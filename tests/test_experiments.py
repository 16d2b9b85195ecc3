"""The experiment verdicts: at the quick settings every bundled
experiment converges, and every tolerance it takes reaches its verdict."""

import inspect
import math
from pathlib import Path

import pytest

from geomphase import experiments
from geomphase.cli import build_kwargs, load_config
from geomphase.errors import GeomPhaseError
from geomphase.experiments import EXPERIMENTS

QUICK_CFG = Path(__file__).resolve().parents[1] / "configs" / "quick.cfg"

# bounds met from below: no run clears an infinite one
LOWER_BOUNDS = [("gauge-sweep", "min_change"), ("convergence", "min_gain")]

# every deviation bound is met from above: no deviation is below -1
UPPER_BOUNDS = [
    (name, key)
    for name, func in EXPERIMENTS.items()
    for key in inspect.signature(func).parameters
    if key == "tol" or key.endswith("_tol")
]


def _quick_run(name, **override):
    kwargs = build_kwargs(name, load_config(str(QUICK_CFG)), {})
    kwargs.update(override)
    return EXPERIMENTS[name](**kwargs)


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_quick_run_converges(name):
    assert _quick_run(name)["converged"] is True


@pytest.mark.parametrize("name,key,bound", [(n, k, -1.0) for n, k in UPPER_BOUNDS]
                         + [(n, k, math.inf) for n, k in LOWER_BOUNDS])
def test_each_tolerance_reaches_the_verdict(name, key, bound):
    assert _quick_run(name, **{key: bound})["converged"] is False


def test_fixed_action_spread_bound_reaches_the_verdict(monkeypatch):
    # the ring-action block spread is bounded by a constant, not an input
    monkeypatch.setattr(experiments, "_ACTION_SPREAD_TOL", -1.0)
    assert _quick_run("ring-action")["converged"] is False


def test_every_experiment_has_a_bound_under_test():
    assert {n for n, _k in UPPER_BOUNDS + LOWER_BOUNDS} == set(EXPERIMENTS)


def test_adiabatic_gain_reaches_the_verdict():
    # the slow-drive gain check at short runs: two ratios a decade apart
    # gain about 10 in deviation, so 6 passes and an infinite bound fails
    fast = dict(adiabatic=True, ratios=(1e-2, 1e-3), adiabatic_steps=(2**14, 2**15))
    assert _quick_run("ring-rotating", **fast, min_gain=6.0)["converged"] is True
    assert _quick_run("ring-rotating", **fast, min_gain=math.inf)["converged"] is False


def test_adiabatic_tracking_reports_norm_drift():
    # a slow-drive run of four chunks carries its propagation health
    run = experiments.adiabatic_tracking(steps=2**14)
    assert isinstance(run["norm_drift"], float)
    assert 0.0 <= run["norm_drift"] < 1e-10


def test_phase_split_reports_carry_norm_drift():
    # every cyclic split of the spin and the static ring carries its
    # propagation health beside its phases
    spin = _quick_run("spin")["results"]
    drifts = [r[f"aa_{b}"]["norm_drift"] for r in spin.values() for b in ("plus", "minus")]
    ring = _quick_run("ring-static")["results"]
    drifts += [r[f"aa_norm_drift_{b}"] for r in ring.values() for b in ("plus", "minus")]
    assert len(drifts) == 2 * (len(spin) + len(ring))
    assert all(isinstance(d, float) and 0.0 <= d < 1e-10 for d in drifts)


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_report_inputs_are_the_signature(name):
    # every input the experiment ran with is recorded, and nothing else
    report = _quick_run(name)
    assert set(report["inputs"]) == set(inspect.signature(EXPERIMENTS[name]).parameters)


def _refused(name, match, **override):
    # a plain ValueError, which the command line reports as a bad value
    with pytest.raises(ValueError, match=match) as exc:
        _quick_run(name, **override)
    assert not isinstance(exc.value, GeomPhaseError)


@pytest.mark.parametrize("name,override", [
    ("spin", {"theta": ()}),
    ("ring-static", {"n": ()}),
    ("ring-static", {"cone": ()}),
    ("ring-rotating", {"n": ()}),
    ("ring-rotating", {"eps": (), "chi": ()}),
    ("ring-action", {"n": ()}),
    ("direct-sum", {"blocks": ()}),
    ("gauge-sweep", {"gauges": 0}),
    ("convergence", {"levels": ()}),
])
def test_empty_sweep_refused(name, override):
    _refused(name, "must have length at least", **override)


@pytest.mark.parametrize("override", [
    {"eps": (0.5,)},
    {"chi": (math.pi / 3, math.pi / 6, math.pi / 4)},
    {"adiabatic": True, "ratios": (1e-2, 1e-3, 1e-4), "adiabatic_steps": (2**14, 2**15)},
])
def test_unpaired_sequences_refused(override):
    # a bare zip would drop the extra entries and report them as run
    _refused("ring-rotating", "must have equal lengths", **override)


@pytest.mark.parametrize("name,override", [
    ("convergence", {"levels": (512,)}),
    ("ring-rotating", {"adiabatic": True, "ratios": (1e-2,), "adiabatic_steps": (2**14,)}),
])
def test_gain_over_one_point_refused(name, override):
    # a gain verdict over zero refinements would pass vacuously
    _refused(name, "must have length at least 2", **override)


@pytest.mark.parametrize("blocks", [(0, 0), (1, 0, 1)])
def test_repeated_direct_sum_block_refused(blocks):
    # the dict of block models dropped the repeat after the amplitude was
    # taken from the list's length: "total weight must be 1, got 0.5"
    _refused("direct-sum", "blocks must not repeat", blocks=blocks)
