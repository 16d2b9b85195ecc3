"""The benchmark's workloads: lists of tasks, one per route of the package.

A task computes one phase result through geomphase's public API and
returns the (deviation, tolerance) pairs it is checked with. Every
deviation is measured against a closed form, at the tolerance that
tests/test_acceptance.py and configs/full.cfg pin for that quantity.
The seed jitters angles and draws gauges; it never changes a task's
size, so every seed asks for the same work.

Tasks look their functions up on the package at call time, so a Tracer
installed around a pass sees every call.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import geomphase as gp

LOOP_STEPS = 4096
PAIR_STEPS = 2048
EVOLVE_STEPS = 4096
GAUGES = 10
ADIABATIC_RATIO = 1e-2
ADIABATIC_STEPS = 2 ** 14
# First-order adiabatic correction: the slow-drive geometric phase
# misses the transported-band value by c x ratio (criterion 10 checks
# that linearity, not a value). c measures 0.39 on every branch and n,
# so the bound is 0.5 x ratio.
ADIABATIC_TOL = 0.5 * ADIABATIC_RATIO

LOOP_TOL = 1e-6        # criteria 1, 3, 4, 5
AA_SPIN_TOL = 1e-5     # criterion 2, full.cfg [spin] aa_tol
AA_RING_TOL = 1e-6     # criterion 3
TRANSPORT_TOL = 1e-5   # criterion 6
GAUGE_TOL = 1e-8       # criterion 7
WEIGHT_TOL = 1e-10     # criterion 8
PHASE_TOL = 1e-6       # criterion 8

PAIRS = ((0.5, math.pi / 3), (0.3, math.pi / 6))  # (eps, chi), criterion 4
JITTER = 0.03


@dataclass(frozen=True)
class Task:
    name: str
    params: dict
    run: Callable[[], list]


def _interleave(tasks):
    """Spread each kind of task evenly through the pass, so that a slow
    spell of the machine does not land on one kind alone."""
    kinds = {}
    for t in tasks:
        kinds.setdefault(t.name, []).append(t)
    keyed = [((i + 0.5) / len(group), t) for group in kinds.values()
             for i, t in enumerate(group)]
    return [t for _key, t in sorted(keyed, key=lambda kt: kt[0])]


def _jitter(rng, centre):
    return float(centre + rng.uniform(-JITTER, JITTER))


def _levels(model):
    # EigenframeSource groups ascend: group 0 is the lower (minus) level
    return ((0, model.references["berry_minus"]), (1, model.references["berry_plus"]))


def _eigenframe_loop(model, group, want):
    def run():
        path = gp.sample_frames(gp.EigenframeSource(model.invariant, group=group),
                                steps=LOOP_STEPS)
        return [(float(gp.circular_distance(gp.berry_phase(path), want)), LOOP_TOL)]
    return run


def _torus_loop(block, branch, want):
    def run():
        phase = gp.torus_phase(gp.torus_path(block, branch, steps=LOOP_STEPS))
        return [(float(gp.circular_distance(phase, want)), LOOP_TOL)]
    return run


def eigenframe_loops(seed):
    rng = np.random.default_rng([seed, 1])
    tasks = []
    for centre in (math.pi / 6, math.pi / 4, math.pi / 3):
        theta = _jitter(rng, centre)
        m = gp.SpinHalf(theta=theta)
        for group, want in _levels(m):
            tasks.append(Task("spin-loop", {"theta": theta, "group": group},
                              _eigenframe_loop(m, group, want)))
    for n in (0, 1, 2):
        for centre in (math.pi / 6, math.pi / 3):
            cone = _jitter(rng, centre)
            m = gp.StaticRingBlock(n=n, cone=cone)
            for group, want in _levels(m):
                tasks.append(Task("static-loop", {"n": n, "cone": cone, "group": group},
                                  _eigenframe_loop(m, group, want)))
    for n in (0, 1, 2):
        eps, chi = _jitter(rng, 0.5), _jitter(rng, math.pi / 3)
        block = gp.ActionRingBlock(n=n, eps=eps, chi=chi)
        for branch, key in (("+", "torus_plus"), ("-", "torus_minus")):
            tasks.append(Task("torus-loop",
                              {"n": n, "eps": eps, "chi": chi, "branch": branch},
                              _torus_loop(block, branch, block.references[key])))
    return _interleave(tasks)


def _pair_path(model):
    grid = np.linspace(0.0, model.period, PAIR_STEPS + 1)
    return gp.sample_frames(model.frame_batch(grid), period=model.period)


def _pair_loop(model):
    def run():
        rep = gp.holonomy_report(_pair_path(model), estimate_convergence=False)
        return [
            (float(np.max(np.abs(rep["gamma"] - model.gamma_ref))), LOOP_TOL),
            (float(np.max(np.abs(rep["gamma_eigenvalues"] - [0.0, 2 * math.pi]))), LOOP_TOL),
            (float(np.max(np.abs(rep["wilson"] - np.eye(2)))), LOOP_TOL),
        ]
    return run


def _pair_gauge(model, gauge_seed):
    def run():
        path = _pair_path(model)
        base = gp.unitary_eigenphases(gp.wilson_loop(path))
        g = gp.random_unitary_gauge(np.random.default_rng(gauge_seed), path.times.size,
                                    path.nvec, modes=3, amplitude=0.6)
        moved = gp.unitary_eigenphases(gp.wilson_loop(gp.gauge_transform(path, g)))
        return [(float(np.max(gp.circular_distance(moved, base))), GAUGE_TOL)]
    return run


def pair_holonomy(seed):
    rng = np.random.default_rng([seed, 2])
    models = {(eps, chi, n): gp.RotatingRingBlock(n=n, eps=eps, chi=chi)
              for eps, chi in PAIRS for n in (0, 1, 2)}
    tasks = [Task("pair-loop", {"eps": eps, "chi": chi, "n": n}, _pair_loop(m))
             for (eps, chi, n), m in models.items()]
    keys = list(models)
    for _ in range(GAUGES):
        key = keys[int(rng.integers(len(keys)))]
        gauge_seed = int(rng.integers(2 ** 32))
        eps, chi, n = key
        tasks.append(Task("pair-gauge",
                          {"eps": eps, "chi": chi, "n": n, "gauge_seed": gauge_seed},
                          _pair_gauge(models[key], gauge_seed)))
    return _interleave(tasks)


def _aa_spin(model, branch):
    sign = 1.0 if branch == "+" else -1.0
    c2 = math.cos(2.0 * model.theta)

    def run():
        rep = gp.aa_phase(gp.evolve(model.hamiltonian, model.state(branch),
                                    steps=EVOLVE_STEPS))
        return [
            (float(gp.circular_distance(rep.total, math.pi)), AA_SPIN_TOL),
            (abs(rep.dynamic + sign * math.pi * c2), AA_SPIN_TOL),
            (float(gp.circular_distance(rep.geometric, math.pi * (1.0 + sign * c2))),
             AA_SPIN_TOL),
        ]
    return run


def _aa_ring(model, branch, want):
    def run():
        rep = gp.aa_phase(gp.evolve(model.hamiltonian, model.state(branch),
                                    steps=EVOLVE_STEPS))
        return [(float(gp.circular_distance(rep.geometric, want)), AA_RING_TOL)]
    return run


def _transport(model):
    def run():
        return [(gp.transport_error(model.hamiltonian, model.invariant,
                                    steps=EVOLVE_STEPS), TRANSPORT_TOL)]
    return run


def _direct_sum(models, state):
    def run():
        single = gp.blockwise_evolve(models, state, steps=EVOLVE_STEPS).phases()
        _traj, drift, phases = gp.assembled_evolve(models, state, steps=EVOLVE_STEPS)
        return [(drift, WEIGHT_TOL)] + [
            (float(gp.circular_distance(phases[n], single[n])), PHASE_TOL) for n in models
        ]
    return run


def _adiabatic(n, branch):
    def run():
        rep = gp.experiments.adiabatic_tracking(n=n, ratio=ADIABATIC_RATIO,
                                                steps=ADIABATIC_STEPS, branch=branch)
        return [(rep["deviation"], ADIABATIC_TOL)]
    return run


def cyclic_evolution(seed):
    rng = np.random.default_rng([seed, 3])
    tasks = []
    theta = _jitter(rng, math.pi / 6)
    spin = gp.SpinHalf(theta=theta)
    for branch in ("+", "-"):
        tasks.append(Task("aa-spin", {"theta": theta, "branch": branch},
                          _aa_spin(spin, branch)))
    rings = {}
    for n in (0, 1, 2):
        cone = _jitter(rng, (math.pi / 6, math.pi / 3)[n % 2])
        rings[n] = m = gp.StaticRingBlock(n=n, cone=cone)
        for branch, key in (("+", "berry_plus"), ("-", "berry_minus")):
            tasks.append(Task("aa-ring", {"n": n, "cone": cone, "branch": branch},
                              _aa_ring(m, branch, m.references[key])))
    for n, m in rings.items():
        tasks.append(Task("transport", {"n": n, "cone": m.cone}, _transport(m)))
    weight = float(rng.uniform(0.2, 0.8))
    branches = [str(b) for b in rng.choice(["+", "-"], size=2)]
    blocks = {n: rings[n] for n in (0, 1)}
    state = gp.RingState({
        0: math.sqrt(weight) * blocks[0].state(branches[0]),
        1: math.sqrt(1.0 - weight) * blocks[1].state(branches[1]),
    })
    tasks.append(Task("direct-sum", {"weight": weight, "branches": branches},
                      _direct_sum(blocks, state)))
    for n in (0, 1, 2):
        for branch in ("+", "-"):
            tasks.append(Task("adiabatic", {"n": n, "branch": branch, "ratio": ADIABATIC_RATIO,
                                            "steps": ADIABATIC_STEPS},
                              _adiabatic(n, branch)))
    return _interleave(tasks)


WORKLOADS = {
    "eigenframe-loops": eigenframe_loops,
    "pair-holonomy": pair_holonomy,
    "cyclic-evolution": cyclic_evolution,
}
