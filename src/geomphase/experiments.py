"""Named end-to-end experiments, each returning one plain dict with the
same shape: inputs, computed results, analytic references, deviations,
and a single converged flag. The command line publishes exactly these.
"""

import math

import numpy as np

from .action import torus_path, torus_phase
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
    ring_parameters,
)
from .ringstate import RingState, assembled_evolve, blockwise_evolve


def _frame_path(model, steps, column=None):
    grid = np.linspace(0.0, model.period, steps + 1)
    fb = model.frame_batch(grid)
    if column is not None:
        fb = fb[:, :, column:column + 1]
    return sample_frames(fb, period=model.period)


def _fmt(x):
    return f"{x:.6g}"


class _Ledger:
    """The report of one experiment: its name, the inputs it ran with,
    and its deviations, each checked against its own tolerance where it
    is recorded; converged means every check passed."""

    def __init__(self, experiment, inputs):
        self.experiment = experiment
        # a copy: a later locals() call or a tracer refreshes a frame's dict
        self.inputs = dict(inputs)
        self.deviations = {}
        self.passed = True

    def check(self, key, name, deviation, tol):
        """Record deviations[key][name], or deviations[name] when key is
        None, and require it to be at most tol."""
        dev = float(deviation)
        into = self.deviations if key is None else self.deviations.setdefault(key, {})
        into[name] = dev
        self.require(dev <= tol)

    def require(self, passed):
        """A check judged on the results side: a spread, a gain."""
        self.passed = self.passed and bool(passed)

    def report(self, results, references):
        return {"experiment": self.experiment, "inputs": self.inputs,
                "results": results, "references": references,
                "deviations": self.deviations, "converged": self.passed}


def _sweep(least=1, **named):
    """The runs an experiment makes of its sequence inputs: the entries
    of one sequence, or the tuples of paired sequences taken in step.
    Refused with ValueError: paired sequences of unequal length, which
    would drop entries, and fewer than least entries, which would check
    nothing, or no gain between points where least is 2."""
    lengths = [len(seq) for seq in named.values()]
    names = " and ".join(named)
    if len(set(lengths)) > 1:
        raise ValueError(f"{names} must have equal lengths, got {lengths}")
    if lengths[0] < least:
        raise ValueError(f"{names} must have length at least {least}, got {lengths[0]}")
    return list(zip(*named.values())) if len(named) > 1 else list(*named.values())


def run_spin(theta=(0.0, math.pi / 6, math.pi / 4, math.pi / 3), omega_s=1.0,
             steps=4096, tol=1e-6, aa_tol=1e-5):
    """Berry phases of the spin cone frames plus the cyclic-evolution
    phase split, against pi*(1 +- cos(2*theta)) and friends. Each split
    carries its cyclic defect and its norm drift (see PhaseReport)."""
    ledger = _Ledger("spin", locals())
    results, references = {}, {}
    for th in _sweep(theta=theta):
        m = SpinHalf(theta=th, omega_s=omega_s)
        refs = m.references
        key = f"theta={_fmt(th)}"
        r = {}
        for name, col in (("plus", 0), ("minus", 1)):
            g = berry_phase(_frame_path(m, steps, col))
            r[f"berry_{name}"] = g
            ledger.check(key, f"berry_{name}",
                         circular_distance(g, refs[f"berry_{name}"]), tol)
        for name, br in (("plus", "+"), ("minus", "-")):
            rep = aa_phase(evolve(m.hamiltonian, m.state(br), steps=steps))
            r[f"aa_{name}"] = {
                "total": rep.total,
                "dynamic": rep.dynamic,
                "geometric": rep.geometric,
                "cyclic_defect": rep.cyclic_defect,
                "norm_drift": rep.norm_drift,
            }
            ledger.check(key, f"aa_total_{name}",
                         circular_distance(rep.total, refs["total"]), aa_tol)
            ledger.check(key, f"aa_dynamic_{name}",
                         abs(rep.dynamic - refs[f"dynamic_{name}"]), aa_tol)
            ledger.check(key, f"aa_geometric_{name}",
                         circular_distance(rep.geometric, refs[f"berry_{name}"]), aa_tol)
        results[key] = r
        references[key] = dict(refs)
    return ledger.report(results, {"formulas": SpinHalf.formulas, "values": references})


def run_ring_static(n=(0, 1, 2), cone=(math.pi / 6, math.pi / 3), omega=1.0,
                    eps=0.5, chi=math.pi / 3, steps=4096, tol=1e-6):
    """Static ring blocks: cone-frame Berry phases by the overlap chain
    and by the cyclic phase split, for several blocks and cone angles.
    Each split carries its norm drift (see PhaseReport)."""
    ledger = _Ledger("ring-static", locals())
    results, references = {}, {}
    ns, cones = _sweep(n=n), _sweep(cone=cone)
    for nn in ns:
        for cn in cones:
            m = StaticRingBlock(n=nn, cone=cn, omega=omega, eps=eps, chi=chi)
            key = f"n={nn}/cone={_fmt(cn)}"
            r = {}
            for name, col, br in (("plus", 0, "+"), ("minus", 1, "-")):
                ref = m.references[f"berry_{name}"]
                g = berry_phase(_frame_path(m, steps, col))
                rep = aa_phase(evolve(m.hamiltonian, m.state(br), steps=steps))
                r[f"berry_{name}"] = g
                r[f"aa_geometric_{name}"] = rep.geometric
                r[f"aa_norm_drift_{name}"] = rep.norm_drift
                ledger.check(key, f"berry_{name}", circular_distance(g, ref), tol)
                ledger.check(key, f"aa_geometric_{name}",
                             circular_distance(rep.geometric, ref), tol)
            results[key] = r
            references[key] = dict(m.references)
    return ledger.report(results, {"formulas": StaticRingBlock.formulas,
                                   "values": references})


def adiabatic_tracking(n=0, omega=1.0, eps=0.5, chi=math.pi / 3, ratio=1e-2,
                       steps=131072, branch="+"):
    """Evolve one band eigenstate through a full slow rotation and split
    off the geometric phase. ratio is the rotation rate over the level
    splitting rate; the deviation from the transported-band value shrinks
    linearly with it. norm_drift is the run's propagation health (see
    PhaseReport)."""
    # the block's splitting rate omega_ns, without building the block twice
    omega_ns = ring_parameters(n, eps, chi, omega)["omega_ns"]
    m = RotatingRingBlock(n=n, omega=omega, eps=eps, chi=chi, omega_o=ratio * omega_ns)
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
        "norm_drift": rep.norm_drift,
    }


def run_ring_rotating(n=(0, 1, 2), eps=(0.5, 0.3), chi=(math.pi / 3, math.pi / 6),
                      omega=1.0, omega_o=1.0, steps=4096, tol=1e-6,
                      spread_tol=1e-12, adiabatic=False, ratios=(1e-2, 1e-3),
                      adiabatic_steps=(131072, 524288), min_gain=6.0):
    """Degenerate-pair holonomy of the rotating ring: the phase matrix,
    its fixed eigenvalues {0, 2*pi}, the trivial loop unitary, and the
    block independence of all of it. Optionally the slow-rotation limit."""
    ledger = _Ledger("ring-rotating", locals())
    results, references = {}, {}
    ns, pairs = _sweep(n=n), _sweep(eps=eps, chi=chi)
    tracks = (_sweep(least=2, ratios=ratios, adiabatic_steps=adiabatic_steps)
              if adiabatic else [])
    for e, c in pairs:
        key = f"eps={_fmt(e)}/chi={_fmt(c)}"
        blocks = [RotatingRingBlock(n=nn, omega=omega, eps=e, chi=c, omega_o=omega_o)
                  for nn in ns]
        reps = [holonomy_report(_frame_path(m, steps), estimate_convergence=False)
                for m in blocks]
        gammas = [rep["gamma"] for rep in reps]
        for nn, m, rep in zip(ns, blocks, reps):
            want = {"gamma": m.gamma_ref, "wilson": np.eye(2),
                    "gamma_eigenvalues": np.array([0.0, TWO_PI])}
            for name, ref in want.items():
                ledger.check(key, f"{name}_n={nn}", np.max(np.abs(rep[name] - ref)), tol)
        spread = 0.0
        for g in gammas[1:]:
            spread = max(spread, float(np.max(np.abs(g - gammas[0]))))
        ledger.require(spread <= spread_tol)
        results[key] = {"gamma": gammas[0],
                        "gamma_eigenvalues": reps[0]["gamma_eigenvalues"],
                        "block_spread": spread}
        references[key] = {"gamma": blocks[0].gamma_ref, **blocks[0].references}
    if adiabatic:
        runs = {}
        for branch in ("+", "-"):
            track = [
                adiabatic_tracking(n=ns[0], omega=omega, eps=pairs[0][0], chi=pairs[0][1],
                                   ratio=rt, steps=st, branch=branch)
                for rt, st in tracks
            ]
            gains = [
                track[i]["deviation"] / max(track[i + 1]["deviation"], 1e-300)
                for i in range(len(track) - 1)
            ]
            runs[branch] = {"runs": track, "gains": gains}
            ledger.require(all(g >= min_gain for g in gains))
        results["adiabatic"] = runs
    return ledger.report(results, references)


# each branch's torus phase is the same at every n up to rounding; a fixed
# bound, since no run has a reason to set it
_ACTION_SPREAD_TOL = 1e-10


def run_ring_action(n=(0, 1, 2), eps=0.5, chi=math.pi / 3, n_phi=64,
                    steps=4096, tol=1e-6, conn_tol=1e-8, equiv_tol=1e-10):
    """Torus transport of the action eigenfunctions: loop phases against
    pi*(1 -+ cos(2*mix)), per-interval connection samples against the
    constant density, and agreement with the bare band-frame loop."""
    ledger = _Ledger("ring-action", locals())
    results, references = {}, {}
    phases = {"+": [], "-": []}
    for nn in _sweep(n=n):
        m = ActionRingBlock(n=nn, eps=eps, chi=chi, n_phi=n_phi)
        key = f"n={nn}"
        r = {}
        delta = TWO_PI / steps
        for name, br, col in (("plus", "+", 0), ("minus", "-", 1)):
            tp = torus_path(m, br, steps=steps)
            ph = torus_phase(tp)
            conn = connection_samples(tp)[:, 0, 0].real
            ref = m.references[f"torus_{name}"]
            dens = m.references[f"connection_{name}"]
            grid = np.linspace(0.0, TWO_PI, steps + 1)
            bare = berry_phase(
                sample_frames(m.band_frame(grid)[:, :, col:col + 1], period=TWO_PI)
            )
            phases[br].append(ph)
            r[f"torus_{name}"] = ph
            r[f"bare_loop_{name}"] = bare
            ledger.check(key, f"torus_{name}", circular_distance(ph, ref), tol)
            ledger.check(key, f"connection_{name}",
                         np.max(np.abs(conn - dens * delta)), conn_tol)
            ledger.check(key, f"bare_equivalence_{name}",
                         circular_distance(ph, bare), equiv_tol)
        results[key] = r
        references[key] = dict(m.references)
    spread = max(abs(p - ps[0]) for ps in phases.values() for p in ps)
    results["block_spread"] = spread
    ledger.require(spread <= _ACTION_SPREAD_TOL)
    return ledger.report(results, {"formulas": ActionRingBlock.formulas,
                                   "values": references})


def run_direct_sum(blocks=(0, 1), cone=math.pi / 6, omega=1.0, eps=0.5,
                   chi=math.pi / 3, steps=4096, weight_tol=1e-10, phase_tol=1e-6):
    """Equal-weight superposition over two static blocks, evolved as the
    assembled system: block weights must stay put and each block must
    accumulate exactly its single-block phase."""
    ledger = _Ledger("direct-sum", locals())
    blocks = _sweep(blocks=blocks)
    if len(set(blocks)) < len(blocks):
        raise ValueError(f"blocks must not repeat, got {list(blocks)}")
    models = {
        b: StaticRingBlock(n=b, cone=cone, omega=omega, eps=eps, chi=chi)
        for b in blocks
    }
    amp = 1.0 / math.sqrt(len(blocks))
    state = RingState({b: amp * models[b].state("+") for b in blocks})
    single = blockwise_evolve(models, state, steps=steps)
    _traj, drift, phases = assembled_evolve(models, state, steps=steps)
    ref_phases = single.phases()
    ledger.check(None, "weight_drift", drift, weight_tol)
    for b in blocks:
        ledger.check(None, f"phase_n={b}",
                     circular_distance(phases[b], ref_phases[b]), phase_tol)
    results = {"weights": single.weights, "assembled_phases": phases,
               "single_block_phases": ref_phases}
    return ledger.report(results, {"weights": {b: amp * amp for b in blocks}})


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
        paths[f"ring-action/{name}"] = torus_path(act, br, steps=steps)
    return paths


def run_gauge_sweep(gauges=10, seed=20260814, steps=2048, amplitude=0.6, modes=3,
                    shift_tol=1e-8, min_change=1e-3):
    """Random smooth closed gauges on one representative loop per model:
    loop eigenphases must not move while the raw connection samples do."""
    ledger = _Ledger("gauge-sweep", locals())
    draws = _sweep(gauges=range(gauges))
    rng = np.random.default_rng(seed)
    results = {}
    for name, path in _sweep_paths(steps).items():
        base_phases = unitary_eigenphases(wilson_loop(path))
        base_samples = connection_samples(path)
        shifts, changes = [], []
        for _ in draws:
            if path.nvec == 1:
                g = random_phase_gauge(rng, path.times.size,
                                       winding=int(rng.integers(-1, 2)),
                                       modes=modes, amplitude=amplitude)
            else:
                g = random_unitary_gauge(rng, path.times.size, path.nvec,
                                         modes=modes, amplitude=amplitude)
            moved = gauge_transform(path, g)
            phases = unitary_eigenphases(wilson_loop(moved))
            shifts.append(float(np.max(circular_distance(phases, base_phases))))
            changes.append(float(np.max(np.abs(connection_samples(moved) - base_samples))))
        results[name] = {"max_shift": max(shifts), "min_sample_change": min(changes),
                         "loop_eigenphases": base_phases}
        ledger.check(name, "max_shift", max(shifts), shift_tol)
        ledger.require(min(changes) >= min_change)
    return ledger.report(results, {"max_shift": 0.0})


# steps -> deviation of the + branch's loop phase, or of its cyclic
# geometric phase, from berry_plus
def _berry_deviation(model):
    def run(steps):
        return circular_distance(berry_phase(_frame_path(model, steps, 0)),
                                 model.references["berry_plus"])
    return run


def _aa_deviation(model):
    def run(steps):
        rep = aa_phase(evolve(model.hamiltonian, model.state("+"), steps=steps))
        return circular_distance(rep.geometric, model.references["berry_plus"])
    return run


def _convergence_specs():
    rot = RotatingRingBlock(n=0)
    act = ActionRingBlock(n=0)

    def rotating_gamma(steps):
        rep = holonomy_report(_frame_path(rot, steps), estimate_convergence=False)
        return np.max(np.abs(rep["gamma"] - rot.gamma_ref))

    def rotating_wilson(steps):
        return np.max(np.abs(wilson_loop(_frame_path(rot, steps)) - np.eye(2)))

    def torus(steps):
        return circular_distance(torus_phase(torus_path(act, "+", steps=steps)),
                                 act.references["torus_plus"])

    return {
        "spin_berry": _berry_deviation(SpinHalf(theta=math.pi / 3)),
        "spin_aa_geometric": _aa_deviation(SpinHalf(theta=math.pi / 6)),
        "static_berry": _berry_deviation(StaticRingBlock(n=1, cone=math.pi / 3)),
        "static_aa_geometric": _aa_deviation(StaticRingBlock(n=0, cone=math.pi / 6)),
        "rotating_gamma": rotating_gamma,
        "rotating_wilson": rotating_wilson,
        "torus_phase": torus,
    }


def run_convergence(levels=(1024, 2048, 4096), min_gain=3.5, floor=1e-10):
    """Step-halving study of every headline quantity. A quantity passes a
    refinement if the deviation drops by min_gain, or if either side is
    already at the noise floor where gains are meaningless."""
    levels = sorted(int(v) for v in levels)
    ledger = _Ledger("convergence", locals())
    runs = _sweep(least=2, levels=levels)
    results = {}
    for name, fn in _convergence_specs().items():
        devs = [float(fn(lv)) for lv in runs]
        ratios, passed = [], True
        for coarse, fine in zip(devs, devs[1:]):
            at_floor = fine <= floor or coarse <= floor
            ratios.append(None if fine == 0.0 else coarse / fine)
            passed = passed and (at_floor or coarse >= min_gain * fine)
        results[name] = {"levels": levels, "deviations": devs, "ratios": ratios,
                         "at_floor": devs[-1] <= floor, "passed": passed}
        # the finest deviation is reported, not bounded: the verdict is
        # the gain per refinement
        ledger.check(name, "final", devs[-1], math.inf)
        ledger.require(passed)
    return ledger.report(results, {"min_gain": min_gain, "floor": floor})


EXPERIMENTS = {
    "spin": run_spin,
    "ring-static": run_ring_static,
    "ring-rotating": run_ring_rotating,
    "ring-action": run_ring_action,
    "direct-sum": run_direct_sum,
    "gauge-sweep": run_gauge_sweep,
    "convergence": run_convergence,
}
