"""Acceptance gate: the ten headline claims, one test and one printed
verdict line each. Tolerances are pinned here on purpose; loosening them
is a release decision, not a test edit."""

import math
import time

import pytest

from geomphase import (
    RotatingRingBlock,
    SpinHalf,
    StaticRingBlock,
    aa_phase,
    berry_phase,
    circular_distance,
    eigenvalue_drift,
    evolve,
    invariance_residual,
    transport_error,
)
from geomphase.experiments import (
    _frame_path,
    run_convergence,
    run_direct_sum,
    run_gauge_sweep,
    run_ring_action,
    run_ring_rotating,
    run_ring_static,
)

M = 4096


def _verdict(num, ok, text):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_spin_loop_phases():
    worst_dev, worst_time = 0.0, 0.0
    for theta in (0.0, math.pi / 6, math.pi / 4, math.pi / 3):
        m = SpinHalf(theta=theta)
        for column, sign in ((0, 1.0), (1, -1.0)):
            t0 = time.perf_counter()
            got = berry_phase(_frame_path(m, M, column))
            elapsed = time.perf_counter() - t0
            want = math.pi * (1.0 + sign * math.cos(2.0 * theta))
            worst_dev = max(worst_dev, circular_distance(got, want))
            worst_time = max(worst_time, elapsed)
    ok = worst_dev <= 1e-6 and worst_time < 1.0
    _verdict(1, ok,
             f"spin loop phases vs pi(1 +- cos 2 theta): max dev "
             f"{worst_dev:.3e} (tol 1e-6), max time {worst_time * 1e3:.0f} ms "
             f"(limit 1000 ms) at M={M}")


def test_criterion_02_phase_split():
    theta = math.pi / 6
    c2 = math.cos(2.0 * theta)
    m = SpinHalf(theta=theta)
    worst = 0.0
    for branch, sign in (("+", 1.0), ("-", -1.0)):
        rep = aa_phase(evolve(m.hamiltonian, m.state(branch), steps=M))
        worst = max(
            worst,
            circular_distance(rep.total, math.pi),
            abs(rep.dynamic - (-sign * math.pi * c2)),
            circular_distance(rep.geometric, math.pi * (1.0 + sign * c2)),
        )
    ok = worst <= 1e-5
    _verdict(2, ok,
             f"propagated total/dynamic/geometric split at theta=pi/6: "
             f"max dev {worst:.3e} (tol 1e-5, {M} steps)")


def test_criterion_03_static_ring_both_routes():
    out = run_ring_static(n=(0, 1, 2), cone=(math.pi / 6, math.pi / 3),
                          steps=M, tol=1e-6)
    worst = max(v for d in out["deviations"].values() for v in d.values())
    ok = out["converged"] and worst <= 1e-6
    _verdict(3, ok,
             f"static ring loop + split phases, n in 0..2, both cones: "
             f"max dev {worst:.3e} (tol 1e-6)")


def test_criterion_04_rotating_ring_holonomy():
    out = run_ring_rotating(n=(0, 1, 2), eps=(0.5, 0.3),
                            chi=(math.pi / 3, math.pi / 6),
                            steps=M, tol=1e-6, spread_tol=1e-12)
    worst = max(v for d in out["deviations"].values() for v in d.values())
    spread = max(r["block_spread"] for r in out["results"].values())
    ok = out["converged"] and worst <= 1e-6 and spread <= 1e-12
    _verdict(4, ok,
             f"rotating ring: phase matrix, spectrum {{0, 2pi}}, trivial "
             f"loop unitary: max dev {worst:.3e} (tol 1e-6), block spread "
             f"{spread:.3e} (tol 1e-12)")


def test_criterion_05_action_torus_phases():
    out = run_ring_action(n=(0, 1, 2), eps=0.5, chi=math.pi / 3, n_phi=64,
                          steps=M, tol=1e-6, conn_tol=1e-8)
    phase_devs = [v for d in out["deviations"].values()
                  for k, v in d.items() if k.startswith("torus")]
    conn_devs = [v for d in out["deviations"].values()
                 for k, v in d.items() if k.startswith("connection")]
    ok = (out["converged"] and max(phase_devs) <= 1e-6
          and max(conn_devs) <= 1e-8)
    _verdict(5, ok,
             f"action torus phases dev {max(phase_devs):.3e} (tol 1e-6), "
             f"connection density dev {max(conn_devs):.3e} (tol 1e-8), "
             f"64 angle points, {M} steps")


def test_criterion_06_conservation_diagnostics():
    pairs = [
        SpinHalf(theta=math.pi / 6),
        SpinHalf(theta=math.pi / 3),
        StaticRingBlock(n=0, cone=math.pi / 6),
        StaticRingBlock(n=1, cone=math.pi / 3),
        StaticRingBlock(n=2, cone=math.pi / 4),
        RotatingRingBlock(n=0, eps=0.5, chi=math.pi / 3),
        RotatingRingBlock(n=1, eps=0.3, chi=math.pi / 6),
    ]
    res = max(invariance_residual(p.hamiltonian, p.invariant, n_times=100)
              for p in pairs)
    drift = max(eigenvalue_drift(p.invariant, n_times=100) for p in pairs)
    trans = max(transport_error(p.hamiltonian, p.invariant, steps=M)
                for p in pairs)
    ok = res <= 1e-8 and drift <= 1e-10 and trans <= 1e-5
    _verdict(6, ok,
             f"conserved-pair diagnostics over {len(pairs)} pairs: residual "
             f"{res:.3e} (tol 1e-8), drift {drift:.3e} (tol 1e-10), "
             f"transport {trans:.3e} (tol 1e-5)")


def test_criterion_07_gauge_invariance():
    out = run_gauge_sweep(gauges=10, shift_tol=1e-8, min_change=1e-3)
    shifts = [d["max_shift"] for d in out["deviations"].values()]
    changes = [r["min_sample_change"] for r in out["results"].values()]
    ok = out["converged"] and max(shifts) <= 1e-8 and min(changes) >= 1e-3
    _verdict(7, ok,
             f"10 random gauges per loop: eigenphase shift {max(shifts):.3e} "
             f"(tol 1e-8), smallest sample change {min(changes):.3e} "
             f"(floor 1e-3)")


def test_criterion_08_direct_sum():
    out = run_direct_sum(blocks=(0, 1), steps=M,
                         weight_tol=1e-10, phase_tol=1e-6)
    drift = out["deviations"]["weight_drift"]
    pdev = max(v for k, v in out["deviations"].items() if k != "weight_drift")
    ok = out["converged"] and drift <= 1e-10 and pdev <= 1e-6
    _verdict(8, ok,
             f"two-block direct sum: weight drift {drift:.3e} (tol 1e-10), "
             f"phase mismatch {pdev:.3e} (tol 1e-6)")


def test_criterion_09_convergence_order():
    out = run_convergence(levels=(1024, 2048, 4096), min_gain=3.5, floor=1e-10)
    lines = []
    for name, row in out["results"].items():
        if row["at_floor"]:
            lines.append(f"{name} at floor {max(row['deviations']):.1e}")
        else:
            lines.append(f"{name} gains {['%.2f' % r for r in row['ratios']]}")
    ok = out["converged"]
    _verdict(9, ok, "two halvings per quantity, gain >= 3.5 or at the "
             "1e-10 roundoff floor: " + "; ".join(lines))


def test_criterion_10_adiabatic_limit():
    out = run_ring_rotating(n=(0,), eps=(0.5,), chi=(math.pi / 3,),
                            steps=M, adiabatic=True, ratios=(1e-2, 1e-3),
                            adiabatic_steps=(2 ** 17, 2 ** 19), min_gain=6.0)
    ad = out["results"]["adiabatic"]
    gains = {b: ad[b]["gains"][0] for b in ("+", "-")}
    devs = {b: [r["deviation"] for r in ad[b]["runs"]] for b in ("+", "-")}
    ok = out["converged"] and all(g >= 6.0 for g in gains.values())
    _verdict(10, ok,
             f"slow-rotation tracking, rate 1e-2 -> 1e-3: deviations "
             f"{devs['+'][0]:.2e} -> {devs['+'][1]:.2e} (+), "
             f"{devs['-'][0]:.2e} -> {devs['-'][1]:.2e} (-), gains "
             f"{gains['+']:.1f}, {gains['-']:.1f} (need >= 6)")
