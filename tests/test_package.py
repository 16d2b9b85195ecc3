"""Package-wide checks: the export list, and guards that refuse NaN input
instead of passing it through to a NaN result."""

import math

import numpy as np
import pytest

import geomphase
from geomphase import (
    ActionRingBlock,
    GeomPhaseError,
    OperatorFamily,
    RotatingRingBlock,
    SpinHalf,
    aa_phase,
    berry_phase,
    evolve,
    gauge_transform,
    random_unitary_gauge,
    sample_frames,
    torus_path,
    torus_phase,
    wilson_loop,
)
from geomphase.models import SIGMA_Z


def test_all_names_resolve_once():
    names = geomphase.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(geomphase, name), name


def _nan_frame():
    m = SpinHalf(theta=math.pi / 6)
    frames = m.frame_batch(np.linspace(0.0, m.period, 257))[:, :, :1]
    frames[100] = np.nan
    return berry_phase(sample_frames(frames, period=m.period))


class _NanTorusBlock(ActionRingBlock):
    def torus_state(self, branch, theta):
        values = super().torus_state(branch, theta)
        values[50, 3, 0] = np.nan
        return values


def _nan_torus_sample():
    return torus_phase(torus_path(_NanTorusBlock(n=0, n_phi=16), "+", steps=256))


def _nan_family():
    def sampler(ts):
        h = np.broadcast_to(SIGMA_Z, ts.shape + (2, 2)).copy()
        h[(ts > 0.4) & (ts < 0.6)] = np.nan
        return h

    family = OperatorFamily(2, 1.0, sampler, label="nan mid-period")
    return aa_phase(evolve(family, np.array([1.0, 0.0], dtype=complex), steps=64))


def _nan_gauge():
    b = RotatingRingBlock(n=0)
    grid = np.linspace(0.0, b.period, 257)
    path = sample_frames(b.frame_batch(grid), period=b.period)
    g = random_unitary_gauge(np.random.default_rng(3), grid.size, 2)
    g[10] = np.nan
    return wilson_loop(gauge_transform(path, g))


@pytest.mark.parametrize(
    "run", [_nan_frame, _nan_torus_sample, _nan_family, _nan_gauge],
    ids=["frame-array", "torus-sample", "family", "gauge"],
)
def test_nan_input_is_refused(run):
    with pytest.raises(GeomPhaseError):
        run()
