"""Tests of the benchmark itself. Run from the root of a checkout:

    python3 -m pytest benchmarks/perf/tests -q
"""

import inspect
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import geomphase  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from geomphase.errors import GeomPhaseError  # noqa: E402
from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def _command(workload, trace, seconds=0):
    return SPEC["command"] + ["--workload", workload, "--seed", "3",
                              "--seconds", str(seconds), "--trace", str(trace)]


def _one_of_each(tasks):
    seen = {}
    for t in tasks:
        seen.setdefault(t.name, t)
    return list(seen.values())


def _bindings():
    """Every public binding in every geomphase module and layer class."""
    out = {}
    for modname, module in list(sys.modules.items()):
        if module is None or not modname.startswith("geomphase"):
            continue
        for name, value in vars(module).items():
            if name.startswith("_"):
                continue
            out[(modname, name)] = value
            if inspect.isclass(value) and value.__module__ == modname:
                for attr, member in vars(value).items():
                    out[(modname, name, attr)] = member
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_tasks_and_inputs(name):
    build = workloads.WORKLOADS[name]
    first, again, other = build(11), build(11), build(12)
    assert [(t.name, t.params) for t in first] == [(t.name, t.params) for t in again]
    assert [t.name for t in first] == [t.name for t in other]
    assert [t.params for t in first] != [t.params for t in other]
    assert first[-1].run() == again[-1].run()


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_metric_names_units_and_directions():
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    per = {m["name"]: m for m in SPEC["per_layer"]}
    assert {k: m["unit"] for k, m in e2e.items()} == run.END_TO_END
    assert {k: m["unit"] for k, m in per.items()} == run.per_layer_units()
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert m["better"] in ("lower", "higher")
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_the_declared_ones(trace):
    out = subprocess.run(_command("pair-holonomy", trace), cwd=ROOT, capture_output=True,
                         text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    env = json.loads(next(line[4:] for line in lines if line.startswith("env ")))
    assert {"python", "numpy", "blas", "blas_threads", "nproc", "numba_importable",
            "git_commit", "seed"} <= set(env)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}


def test_no_result_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(_command("pair-holonomy", 0), cwd=tmp_path, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""


def test_span_self_times_fit_inside_each_task():
    tasks = [t for build in workloads.WORKLOADS.values() for t in _one_of_each(build(5))
             if t.name != "adiabatic"]
    tracer = Tracer(GeomPhaseError)
    with tracer:
        records = run.run_pass(tasks, GeomPhaseError, tracer)
    assert all(not r.failed for r in records)
    for r in records:
        assert 0.0 < r.self_s <= r.seconds, r.name
        assert r.scaled_s > 0.0, r.name


def test_tracer_restores_every_binding():
    task = next(t for t in workloads.pair_holonomy(5) if t.name == "pair-loop")
    before = _bindings()
    want = task.run()
    tracer = Tracer(GeomPhaseError)
    with tracer:
        assert geomphase.linalg.matrix_log_unitary is not before[
            ("geomphase.linalg", "matrix_log_unitary")]
        assert (geomphase.holonomy.matrix_log_unitary
                is geomphase.linalg.matrix_log_unitary)
        assert task.run() == want
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert not changed
    calls = tracer.stat("linalg.matrix_log_unitary").calls
    assert calls > 0
    assert task.run() == want
    assert tracer.stat("linalg.matrix_log_unitary").calls == calls


def test_tracer_counts_a_typed_error_once():
    tracer = Tracer(GeomPhaseError)
    singular = [[1.0, 0.0], [0.0, 0.0]]
    with tracer, pytest.raises(GeomPhaseError):
        geomphase.linalg.polar_unitary(singular)
    assert tracer.failed["linalg"] == 1
    assert sum(tracer.failed.values()) == 1


def test_tail_has_ten_tasks_beyond_it():
    value, pct = run.tail([float(i) for i in range(1, 41)])
    assert value == 30.0 and pct == 75.0
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)
