"""geomphase benchmark: one workload, one seed, one measured run.

    python3 benchmarks/perf/run.py --workload eigenframe-loops --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports the package from
./src. Tasks run back to back in this one process (a closed loop with a
single client) for about --seconds seconds, in whole passes over the
workload's task list, with BLAS threads capped at the number of usable
cores. Every task is checked against its closed form in every pass.
A fixed reference routine (calib.py) is timed before the first task and
after each one, and every time the metrics report is scaled to the
machine speed that routine defines, so that the swings of a shared host
cancel out; the `run` line also gives the times as read.

With --trace 0 the last line of standard output is a JSON object whose
metrics are the end-to-end ones. With --trace 1, untraced and traced
passes alternate and the metrics are the per-layer ones: span counts and
self times per pass, typed errors per layer, the tracing overhead and a
kernel size sweep. The exit code is 1 if any task failed its check and 2
if the package cannot be found.
"""

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.abspath("src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_PROBES = 3       # before every untraced pass, so they span the run
MIN_PASSES = 3         # keeps at least eleven tasks of the dearest kind in every run
MIN_TRACED_PASSES = 2  # of each kind, untraced and traced
DEVIATION_FLOOR = 1e-16

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "task_ms_p50": "ms",
    "task_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "margin_decades_min": "decades",
}

LAYER_NAMES = ("models", "kernels", "linalg", "holonomy", "action", "evolution",
               "invariants", "ringstate")

# Spans reported by the traced run, and which of their tallies.
SPANS = {
    "kernels.eigh_batch": ("calls", "items", "self_s"),
    "kernels.jacobi_eigh": ("calls", "self_s"),
    "kernels.overlap_smins": ("calls", "items", "self_s"),
    "kernels.align_frames": ("calls", "items", "self_s"),
    "kernels.polar_unitary": ("calls", "self_s"),
    "kernels.chain_product": ("calls", "items", "self_s"),
    "kernels.propagate": ("calls", "items", "self_s"),
    "linalg.group_degenerate": ("calls", "self_s"),
    "linalg.matrix_log_unitary": ("calls", "self_s"),
    "linalg.unitary_exp": ("calls", "self_s"),
    "linalg.unitary_eigenphases": ("calls", "self_s"),
    "linalg.polar_unitary": ("calls", "self_s"),
    "models.sample": ("calls", "self_s"),
    "models.frame_batch": ("calls", "self_s"),
    "models.torus_state": ("calls", "self_s"),
    "holonomy.sample_frames": ("calls", "items", "self_s"),
    "holonomy.connection_samples": ("calls", "items", "self_s"),
    "holonomy.overlaps": ("calls", "self_s"),
    "holonomy.wilson_loop": ("calls", "self_s"),
    "holonomy.berry_phase": ("calls", "self_s"),
    "holonomy.holonomy_report": ("calls", "self_s"),
    "holonomy.random_unitary_gauge": ("calls", "self_s"),
    "holonomy.gauge_transform": ("calls", "self_s"),
    "action.torus_path": ("calls", "self_s"),
    "action.as_frame_path": ("calls", "self_s"),
    "evolution.evolve": ("calls", "items", "self_s"),
    "evolution.aa_phase": ("calls", "self_s"),
    "evolution.energy_expectation": ("calls", "self_s"),
    "invariants.transport_error": ("calls", "self_s"),
    "ringstate.blockwise_evolve": ("calls", "self_s"),
    "ringstate.assembled_evolve": ("calls", "self_s"),
}
KIND_UNITS = {"calls": "count", "items": "count", "self_s": "s"}


def per_layer_units():
    """Name -> unit of every metric the traced run prints."""
    import sweep

    units = {f"{span}.{kind}": KIND_UNITS[kind]
             for span, kinds in SPANS.items() for kind in kinds}
    units.update({f"{layer}.failed": "count" for layer in LAYER_NAMES})
    units["evolution.evolve.props_mb"] = "MB"
    units["trace.overhead_frac"] = "fraction"
    units.update({f"kernels.{fn}.ms_M{m}": "ms" for m in sweep.SIZES for fn in sweep.KERNELS})
    return units


def cap_blas_threads():
    """Cap BLAS threads at the usable cores; call before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def setup_probe(workload, seed):
    """Seconds a fresh interpreter takes to import geomphase and build
    the workload's models and inputs, as measured inside it, and the
    reference routine's time read right after in the same interpreter."""
    code = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        f"sys.path[:0] = {[SRC, HERE]!r}\n"
        "import workloads\n"
        f"workloads.WORKLOADS[{workload!r}]({seed})\n"
        "took = time.perf_counter() - t0\n"
        "import calib\n"
        "calib.reference()\n"
        "print(repr(took), repr(0.5 * (calib.reference() + calib.reference())))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120)
    return tuple(map(float, out.stdout.split()[-2:]))


def _git_commit():
    if not os.path.exists(".git"):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() or None


def _source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "geomphase")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def environment(workload, seed, nproc):
    """What tells this run's machine and code apart from another's."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": nproc,
        "machine": platform.machine(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


class TaskRecord:
    __slots__ = ("name", "seconds", "scaled_s", "checks", "error", "self_s")

    def __init__(self, name, seconds, scaled_s, checks, error, self_s):
        self.name = name
        self.seconds = seconds
        self.scaled_s = scaled_s
        self.checks = checks
        self.error = error
        self.self_s = self_s

    @property
    def failed(self):
        return self.error is not None or any(dev > tol for dev, tol in self.checks)

    @property
    def margin(self):
        """Decades between the worst check and its tolerance."""
        return min(math.log10(tol / max(dev, DEVIATION_FLOOR)) for dev, tol in self.checks)


def run_pass(tasks, error_type, tracer=None):
    """One pass over the task list, with the reference routine timed
    before the first task and after each one. A task's scaled time is
    its time times REFERENCE_S over the mean of the two readings around
    it. Returns the task records."""
    import calib

    records = []
    before = calib.reference()
    for task in tasks:
        self0 = tracer.self_total if tracer else 0.0
        t0 = time.perf_counter()
        try:
            checks, error = task.run(), None
        except error_type as e:
            checks, error = [], f"{type(e).__name__}: {e}"
        took = time.perf_counter() - t0
        self_s = tracer.self_total - self0 if tracer else 0.0
        after = calib.reference()
        scaled = took * calib.REFERENCE_S / (0.5 * (before + after))
        records.append(TaskRecord(task.name, took, scaled, checks, error, self_s))
        before = after
    return records


def pass_seconds(records, scaled=True):
    """A pass's time: the sum of its task times, scaled or as read."""
    return sum(r.scaled_s if scaled else r.seconds for r in records)


def run_passes(tasks, error_type, seconds, tracers, min_each, before_pass=None):
    """Cycle passes through `tracers` (None runs untraced) until each has
    min_each passes and the next pass would end past `seconds`, calling
    before_pass() ahead of each. Returns one list of (records, tally)
    per tracer."""
    out = [[] for _ in tracers]
    start = time.perf_counter()
    k = 0
    while True:
        i = k % len(tracers)
        tracer = tracers[i]
        if before_pass is not None:
            before_pass()
        if tracer is None:
            out[i].append((run_pass(tasks, error_type), None))
        else:
            tracer.reset()
            with tracer:
                records = run_pass(tasks, error_type, tracer)
            out[i].append((records, tally(tracer)))
        k += 1
        elapsed = time.perf_counter() - start
        if min(map(len, out)) >= min_each and elapsed * (k + 1) / k > seconds:
            return out


def tally(tracer):
    """Per-pass snapshot of a tracer's counts, in metric names."""
    out = {}
    for span, kinds in SPANS.items():
        st = tracer.stat(span)
        for kind in kinds:
            out[f"{span}.{kind}"] = getattr(st, kind)
    out.update({f"{layer}.failed": n for layer, n in tracer.failed.items()})
    out["evolution.evolve.props_mb"] = tracer.props_bytes / 1e6
    return out


def tail(times):
    """(value, percentile) of the highest percentile with ten tasks beyond it."""
    ordered = sorted(times)
    rank = len(ordered) - 10
    if rank < 1:
        raise ValueError(f"need at least 11 task times for a tail, got {len(ordered)}")
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def summarise(passes):
    """Task counts and the end-to-end metrics (all but setup_s) of untraced
    passes, from scaled times; the `run` line's info keeps the times as read."""
    records = [r for recs, _t in passes for r in recs]
    times = [r.scaled_s for r in records]
    tail_s, tail_pct = tail(times)
    metrics = {
        "wall_s": statistics.median(pass_seconds(recs) for recs, _t in passes),
        "task_ms_p50": 1e3 * statistics.median(times),
        "task_ms_tail": 1e3 * tail_s,
        "peak_rss_mb": peak_rss_mb(),
        "margin_decades_min": min(r.margin for r in records if r.error is None),
    }
    info = {
        "pass_s_as_read": [pass_seconds(recs, scaled=False) for recs, _t in passes],
        "pass_s_scaled": [pass_seconds(recs) for recs, _t in passes],
        "task_ms_p50_as_read": 1e3 * statistics.median(r.seconds for r in records),
        "tasks": len(records),
        "tail_percentile": tail_pct,
        "failed_frac": sum(r.failed for r in records) / len(records),
        "margin_decades_by_task": {},
    }
    for r in records:
        if r.error is None:
            by_task = info["margin_decades_by_task"]
            by_task[r.name] = min(by_task.get(r.name, math.inf), r.margin)
    return records, metrics, info


def main(argv=None):
    ap = argparse.ArgumentParser(description="geomphase benchmark, one run")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    nproc = cap_blas_threads()
    if not os.path.isfile(os.path.join(SRC, "geomphase", "__init__.py")):
        print(f"error: no geomphase package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import calib
    import workloads
    from geomphase.errors import GeomPhaseError

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, pick one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    tasks = workloads.WORKLOADS[args.workload](args.seed)
    calib.reference()  # first call in a process reads slow
    print("env", json.dumps(environment(args.workload, args.seed, nproc)))

    if args.trace:
        from tracer import Tracer
        import sweep

        plain, traced = run_passes(tasks, GeomPhaseError, args.seconds,
                                   [None, Tracer(GeomPhaseError)], MIN_TRACED_PASSES)
        records, _m, info = summarise(plain + traced)
        untraced_wall = statistics.median(pass_seconds(recs) for recs, _t in plain)
        traced_wall = statistics.median(pass_seconds(recs) for recs, _t in traced)
        tallies = [t for _r, t in traced]
        # counts repeat exactly from pass to pass; times take the median
        values = {name: (statistics.median if isinstance(v, float) else statistics.median_low)(
            [t[name] for t in tallies]) for name, v in tallies[0].items()}
        values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
        values.update(sweep.run())
        units = per_layer_units()
    else:
        probes = []

        def probe_setup():
            probes.extend(setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES))

        passes, = run_passes(tasks, GeomPhaseError, args.seconds, [None], MIN_PASSES,
                             before_pass=probe_setup)
        records, values, info = summarise(passes)
        values["setup_s"] = statistics.median(
            took * calib.REFERENCE_S / reference for took, reference in probes)
        info["setup_s_as_read"] = statistics.median(took for took, _ref in probes)
        info["setup_probes"] = len(probes)
        units = END_TO_END

    failures = [r for r in records if r.failed]
    info["failures"] = sorted({f"{r.name}: {r.error or 'tolerance missed'}" for r in failures})
    print("run", json.dumps(info))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
