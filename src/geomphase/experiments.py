"""Named end-to-end experiments, each returning one plain dict with the
same shape: inputs, computed results, analytic references, deviations,
and a single converged flag. The command line publishes exactly these.
"""

import math

import numpy as np

from .action import as_frame_path, torus_connection, torus_path, torus_phase
from .evolution import aa_phase, evolve
from .holonomy import (
    berry_phase,
    connection_samples,
    gauge_transform,
    holonomy_report,
    random_phase_gauge,
    random_unitary_gauge,
    sample_frames,
    unitary_eigenphases,
    wilson_loop,
)
from .linalg import TWO_PI, circular_distance
from .models import (
    ActionRingBlock,
    RotatingRingBlock,
    SpinHalf,
    StaticRingBlock,
)
from .ringstate import RingState, assembled_evolve, blockwise_evolve


def _frame_path(model, steps, column=None):
    grid = np.linspace(0.0, model.period, steps + 1)
    fb = model.frame_batch(grid)
    if column is not None:
        fb = fb[:, :, column:column + 1]
    return sample_frames(np.ascontiguousarray(fb), period=model.period)


def _fmt(x):
    return f"{x:.6g}"


def run_spin(theta=(0.0, math.pi / 6, math.pi / 4, math.pi / 3), omega_s=1.0,
             steps=4096, tol=1e-6, aa_tol=1e-5):
    """Berry phases of the spin cone frames plus the cyclic-evolution
    phase split, against pi*(1 +- cos(2*theta)) and friends."""
    results, references, deviations = {}, {}, {}
    ok = True
    formulas = None
    for th in theta:
        m = SpinHalf(theta=th, omega_s=omega_s)
        formulas = m.formulas
        key = f"theta={_fmt(th)}"
        r, d = {}, {}
        for name, col in (("plus", 0), ("minus", 1)):
            g = berry_phase(_frame_path(m, steps, col))
            r[f"berry_{name}"] = g
            d[f"berry_{name}"] = float(circular_distance(g, m.references[f"berry_{name}"]))
        for name, br in (("plus", "+"), ("minus", "-")):
            rep = aa_phase(evolve(m.hamiltonian, m.state(br), steps=steps))
            r[f"aa_{name}"] = {
                "total": rep.total,
                "dynamic": rep.dynamic,
                "geometric": rep.geometric,
                "cyclic_defect": rep.cyclic_defect,
            }
            d[f"aa_total_{name}"] = float(circular_distance(rep.total, m.references["total"]))
            d[f"aa_dynamic_{name}"] = abs(rep.dynamic - m.references[f"dynamic_{name}"])
            d[f"aa_geometric_{name}"] = float(
                circular_distance(rep.geometric, m.references[f"berry_{name}"])
            )
        results[key] = r
        references[key] = dict(m.references)
        deviations[key] = d
        ok = ok and all(
            v <= (tol if k.startswith("berry") else aa_tol) for k, v in d.items()
        )
    return {
        "experiment": "spin",
        "inputs": {"theta": list(theta), "omega_s": omega_s, "steps": steps,
                   "tol": tol, "aa_tol": aa_tol},
        "results": results,
        "references": {"formulas": formulas, "values": references},
        "deviations": deviations,
        "converged": bool(ok),
    }


def run_ring_static(n=(0, 1, 2), cone=(math.pi / 6, math.pi / 3), omega=1.0,
                    eps=0.5, chi=math.pi / 3, steps=4096, tol=1e-6):
    """Static ring blocks: cone-frame Berry phases by the overlap chain
    and by the cyclic phase split, for several blocks and cone angles."""
    results, references, deviations = {}, {}, {}
    ok = True
    formulas = None
    for nn in n:
        for cn in cone:
            m = StaticRingBlock(n=nn, cone=cn, omega=omega, eps=eps, chi=chi)
            formulas = m.formulas
            key = f"n={nn}/cone={_fmt(cn)}"
            r, d = {}, {}
            for name, col, br in (("plus", 0, "+"), ("minus", 1, "-")):
                ref = m.references[f"berry_{name}"]
                g = berry_phase(_frame_path(m, steps, col))
                rep = aa_phase(evolve(m.hamiltonian, m.state(br), steps=steps))
                r[f"berry_{name}"] = g
                r[f"aa_geometric_{name}"] = rep.geometric
                d[f"berry_{name}"] = float(circular_distance(g, ref))
                d[f"aa_geometric_{name}"] = float(circular_distance(rep.geometric, ref))
            results[key] = r
            references[key] = dict(m.references)
            deviations[key] = d
            ok = ok and all(v <= tol for v in d.values())
    return {
        "experiment": "ring-static",
        "inputs": {"n": list(n), "cone": list(cone), "omega": omega, "eps": eps,
                   "chi": chi, "steps": steps, "tol": tol},
        "results": results,
        "references": {"formulas": formulas, "values": references},
        "deviations": deviations,
        "converged": bool(ok),
    }


def adiabatic_tracking(n=0, omega=1.0, eps=0.5, chi=math.pi / 3, ratio=1e-2,
                       steps=131072, branch="+"):
    """Evolve one band eigenstate through a full slow rotation and split
    off the geometric phase. ratio is the rotation rate over the level
    splitting rate; the deviation from the transported-band value shrinks
    linearly with it."""
    probe = RotatingRingBlock(n=n, omega=omega, eps=eps, chi=chi, omega_o=1.0)
    m = RotatingRingBlock(n=n, omega=omega, eps=eps, chi=chi,
                          omega_o=ratio * probe.omega_ns)
    traj = evolve(m.hamiltonian, m.state(branch), steps=steps)
    rep = aa_phase(traj)
    ref = m.references["adiabatic_plus" if branch == "+" else "adiabatic_minus"]
    return {
        "ratio": ratio,
        "steps": steps,
        "branch": branch,
        "geometric": rep.geometric,
        "reference": ref,
        "deviation": float(circular_distance(rep.geometric, ref)),
        "cyclic_defect": rep.cyclic_defect,
    }


def run_ring_rotating(n=(0, 1, 2), eps=(0.5, 0.3), chi=(math.pi / 3, math.pi / 6),
                      omega=1.0, omega_o=1.0, steps=4096, tol=1e-6,
                      spread_tol=1e-12, adiabatic=False, ratios=(1e-2, 1e-3),
                      adiabatic_steps=(131072, 524288), min_gain=6.0):
    """Degenerate-pair holonomy of the rotating ring: the phase matrix,
    its fixed eigenvalues {0, 2*pi}, the trivial loop unitary, and the
    block independence of all of it. Optionally the slow-rotation limit."""
    results, references, deviations = {}, {}, {}
    ok = True
    for e, c in zip(eps, chi):
        key = f"eps={_fmt(e)}/chi={_fmt(c)}"
        gammas = []
        r, d = {}, {}
        for nn in n:
            m = RotatingRingBlock(n=nn, omega=omega, eps=e, chi=c, omega_o=omega_o)
            rep = holonomy_report(_frame_path(m, steps), estimate_convergence=False)
            gammas.append(rep["gamma"])
            d[f"gamma_n={nn}"] = float(np.max(np.abs(rep["gamma"] - m.gamma_ref)))
            d[f"wilson_n={nn}"] = float(np.max(np.abs(rep["wilson"] - np.eye(2))))
            d[f"gamma_eigenvalues_n={nn}"] = float(
                np.max(np.abs(rep["gamma_eigenvalues"] - np.array([0.0, TWO_PI])))
            )
        spread = 0.0
        for g in gammas[1:]:
            spread = max(spread, float(np.max(np.abs(g - gammas[0]))))
        r["gamma"] = gammas[0]
        r["gamma_eigenvalues"] = np.linalg.eigvalsh(gammas[0])
        r["block_spread"] = spread
        m0 = RotatingRingBlock(n=n[0], omega=omega, eps=e, chi=c, omega_o=omega_o)
        results[key] = r
        references[key] = {"gamma": m0.gamma_ref, **m0.references}
        deviations[key] = d
        ok = ok and all(v <= tol for v in d.values()) and spread <= spread_tol
    out = {
        "experiment": "ring-rotating",
        "inputs": {"n": list(n), "eps": list(eps), "chi": list(chi), "omega": omega,
                   "omega_o": omega_o, "steps": steps, "tol": tol,
                   "spread_tol": spread_tol, "adiabatic": adiabatic},
        "results": results,
        "references": references,
        "deviations": deviations,
    }
    if adiabatic:
        runs = {}
        gains_ok = True
        for branch in ("+", "-"):
            track = [
                adiabatic_tracking(n=n[0], omega=omega, eps=eps[0], chi=chi[0],
                                   ratio=rt, steps=st, branch=branch)
                for rt, st in zip(ratios, adiabatic_steps)
            ]
            gains = [
                track[i]["deviation"] / max(track[i + 1]["deviation"], 1e-300)
                for i in range(len(track) - 1)
            ]
            runs[branch] = {"runs": track, "gains": gains}
            gains_ok = gains_ok and all(g >= min_gain for g in gains)
        out["results"]["adiabatic"] = runs
        out["inputs"]["ratios"] = list(ratios)
        out["inputs"]["adiabatic_steps"] = list(adiabatic_steps)
        out["inputs"]["min_gain"] = min_gain
        ok = ok and gains_ok
    out["converged"] = bool(ok)
    return out


def run_ring_action(n=(0, 1, 2), omega=1.0, eps=0.5, chi=math.pi / 3, n_phi=64,
                    steps=4096, tol=1e-6, conn_tol=1e-8, equiv_tol=1e-10):
    """Torus transport of the action eigenfunctions: loop phases against
    pi*(1 -+ cos(2*mix)), per-interval connection samples against the
    constant density, and agreement with the bare band-frame loop."""
    results, references, deviations = {}, {}, {}
    ok = True
    formulas = None
    phases = {"+": [], "-": []}
    for nn in n:
        m = ActionRingBlock(n=nn, omega=omega, eps=eps, chi=chi, n_phi=n_phi)
        formulas = m.formulas
        key = f"n={nn}"
        r, d = {}, {}
        delta = TWO_PI / steps
        for name, br, col in (("plus", "+", 0), ("minus", "-", 1)):
            tp = torus_path(m, br, steps=steps)
            ph = torus_phase(tp)
            conn = torus_connection(tp)
            ref = m.references[f"torus_{name}"]
            dens = m.references[f"connection_{name}"]
            grid = np.linspace(0.0, TWO_PI, steps + 1)
            bare = berry_phase(
                sample_frames(np.ascontiguousarray(m.band_frame(grid)[:, :, col:col + 1]),
                              period=TWO_PI)
            )
            phases[br].append(ph)
            r[f"torus_{name}"] = ph
            r[f"bare_loop_{name}"] = bare
            d[f"torus_{name}"] = float(circular_distance(ph, ref))
            d[f"connection_{name}"] = float(np.max(np.abs(conn - dens * delta)))
            d[f"bare_equivalence_{name}"] = float(circular_distance(ph, bare))
        results[key] = r
        references[key] = dict(m.references)
        deviations[key] = d
        ok = ok and all(
            v <= {"t": tol, "c": conn_tol, "b": equiv_tol}[k[0]] for k, v in d.items()
        )
    spread = max(
        max(abs(p - ps[0]) for p in ps) if len(ps) > 1 else 0.0
        for ps in phases.values()
    )
    results["block_spread"] = spread
    ok = ok and spread <= 1e-10
    return {
        "experiment": "ring-action",
        "inputs": {"n": list(n), "omega": omega, "eps": eps, "chi": chi,
                   "n_phi": n_phi, "steps": steps, "tol": tol,
                   "conn_tol": conn_tol, "equiv_tol": equiv_tol},
        "results": results,
        "references": {"formulas": formulas, "values": references},
        "deviations": deviations,
        "converged": bool(ok),
    }


def run_direct_sum(blocks=(0, 1), cone=math.pi / 6, omega=1.0, eps=0.5,
                   chi=math.pi / 3, steps=4096, weight_tol=1e-10, phase_tol=1e-6):
    """Equal-weight superposition over two static blocks, evolved as the
    assembled system: block weights must stay put and each block must
    accumulate exactly its single-block phase."""
    models = {
        b: StaticRingBlock(n=b, cone=cone, omega=omega, eps=eps, chi=chi)
        for b in blocks
    }
    amp = 1.0 / math.sqrt(len(blocks))
    state = RingState({b: amp * models[b].state("+") for b in blocks})
    single = blockwise_evolve(models, state, steps=steps)
    _traj, drift, phases = assembled_evolve(models, state, steps=steps)
    ref_phases = single.phases()
    d = {"weight_drift": drift}
    for b in blocks:
        d[f"phase_n={b}"] = float(circular_distance(phases[b], ref_phases[b]))
    ok = drift <= weight_tol and all(
        v <= phase_tol for k, v in d.items() if k.startswith("phase")
    )
    return {
        "experiment": "direct-sum",
        "inputs": {"blocks": list(blocks), "cone": cone, "omega": omega, "eps": eps,
                   "chi": chi, "steps": steps, "weight_tol": weight_tol,
                   "phase_tol": phase_tol},
        "results": {"weights": single.weights, "assembled_phases": phases,
                    "single_block_phases": ref_phases},
        "references": {"weights": {b: amp * amp for b in blocks}},
        "deviations": d,
        "converged": bool(ok),
    }


def _sweep_paths(steps):
    sp = SpinHalf(theta=math.pi / 6)
    st = StaticRingBlock(n=0, cone=math.pi / 6)
    rot = RotatingRingBlock(n=0)
    act = ActionRingBlock(n=0)
    paths = {
        "spin/plus": _frame_path(sp, steps, 0),
        "spin/minus": _frame_path(sp, steps, 1),
        "ring-static/plus": _frame_path(st, steps, 0),
        "ring-static/minus": _frame_path(st, steps, 1),
        "ring-rotating/pair": _frame_path(rot, steps),
    }
    for name, br in (("plus", "+"), ("minus", "-")):
        paths[f"ring-action/{name}"] = as_frame_path(torus_path(act, br, steps=steps))
    return paths


def run_gauge_sweep(gauges=10, seed=20260814, steps=2048, amplitude=0.6, modes=3,
                    shift_tol=1e-8, min_change=1e-3):
    """Random smooth closed gauges on one representative loop per model:
    loop eigenphases must not move while the raw connection samples do."""
    rng = np.random.default_rng(seed)
    results, deviations = {}, {}
    ok = True
    for name, path in _sweep_paths(steps).items():
        base_phases = np.sort(unitary_eigenphases(wilson_loop(path)))
        base_samples = connection_samples(path)
        shifts, changes = [], []
        for _ in range(gauges):
            if path.nvec == 1:
                g = random_phase_gauge(rng, path.times.size,
                                       winding=int(rng.integers(-1, 2)),
                                       modes=modes, amplitude=amplitude)
            else:
                g = random_unitary_gauge(rng, path.times.size, path.nvec,
                                         modes=modes, amplitude=amplitude)
            moved = gauge_transform(path, g)
            phases = np.sort(unitary_eigenphases(wilson_loop(moved)))
            shifts.append(float(np.max(circular_distance(phases, base_phases))))
            changes.append(float(np.max(np.abs(connection_samples(moved) - base_samples))))
        results[name] = {"max_shift": max(shifts), "min_sample_change": min(changes),
                         "loop_eigenphases": base_phases}
        deviations[name] = {"max_shift": max(shifts)}
        ok = ok and max(shifts) <= shift_tol and min(changes) >= min_change
    return {
        "experiment": "gauge-sweep",
        "inputs": {"gauges": gauges, "seed": seed, "steps": steps,
                   "amplitude": amplitude, "modes": modes,
                   "shift_tol": shift_tol, "min_change": min_change},
        "results": results,
        "references": {"max_shift": 0.0},
        "deviations": deviations,
        "converged": bool(ok),
    }


def _convergence_specs():
    sp = SpinHalf(theta=math.pi / 3)
    sp_aa = SpinHalf(theta=math.pi / 6)
    st = StaticRingBlock(n=1, cone=math.pi / 3)
    st_aa = StaticRingBlock(n=0, cone=math.pi / 6)
    rot = RotatingRingBlock(n=0)
    act = ActionRingBlock(n=0)

    def spin_berry(steps):
        return circular_distance(berry_phase(_frame_path(sp, steps, 0)),
                                 sp.references["berry_plus"])

    def spin_aa(steps):
        rep = aa_phase(evolve(sp_aa.hamiltonian, sp_aa.state("+"), steps=steps))
        return circular_distance(rep.geometric, sp_aa.references["berry_plus"])

    def static_berry(steps):
        return circular_distance(berry_phase(_frame_path(st, steps, 0)),
                                 st.references["berry_plus"])

    def static_aa(steps):
        rep = aa_phase(evolve(st_aa.hamiltonian, st_aa.state("+"), steps=steps))
        return circular_distance(rep.geometric, st_aa.references["berry_plus"])

    def rotating_gamma(steps):
        rep = holonomy_report(_frame_path(rot, steps), estimate_convergence=False)
        return np.max(np.abs(rep["gamma"] - rot.gamma_ref))

    def rotating_wilson(steps):
        return np.max(np.abs(wilson_loop(_frame_path(rot, steps)) - np.eye(2)))

    def torus(steps):
        return circular_distance(torus_phase(torus_path(act, "+", steps=steps)),
                                 act.references["torus_plus"])

    return {
        "spin_berry": spin_berry,
        "spin_aa_geometric": spin_aa,
        "static_berry": static_berry,
        "static_aa_geometric": static_aa,
        "rotating_gamma": rotating_gamma,
        "rotating_wilson": rotating_wilson,
        "torus_phase": torus,
    }


def run_convergence(levels=(1024, 2048, 4096), min_gain=3.5, floor=1e-10):
    """Step-halving study of every headline quantity. A quantity passes a
    refinement if the deviation drops by min_gain, or if either side is
    already at the noise floor where gains are meaningless."""
    levels = sorted(int(v) for v in levels)
    results, deviations = {}, {}
    ok = True
    for name, fn in _convergence_specs().items():
        devs = [float(fn(lv)) for lv in levels]
        ratios, passed = [], True
        for coarse, fine in zip(devs, devs[1:]):
            at_floor = fine <= floor or coarse <= floor
            ratios.append(None if fine == 0.0 else coarse / fine)
            passed = passed and (at_floor or coarse >= min_gain * fine)
        results[name] = {"levels": levels, "deviations": devs, "ratios": ratios,
                         "at_floor": devs[-1] <= floor, "passed": passed}
        deviations[name] = {"final": devs[-1]}
        ok = ok and passed
    return {
        "experiment": "convergence",
        "inputs": {"levels": levels, "min_gain": min_gain, "floor": floor},
        "results": results,
        "references": {"min_gain": min_gain, "floor": floor},
        "deviations": deviations,
        "converged": bool(ok),
    }


EXPERIMENTS = {
    "spin": run_spin,
    "ring-static": run_ring_static,
    "ring-rotating": run_ring_rotating,
    "ring-action": run_ring_action,
    "direct-sum": run_direct_sum,
    "gauge-sweep": run_gauge_sweep,
    "convergence": run_convergence,
}
