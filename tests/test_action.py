"""Angle-space transport of the two-component torus eigenfunctions."""

import math
import tracemalloc

import numpy as np
import pytest

from geomphase import (
    ActionRingBlock,
    UnitarityError,
    berry_phase,
    circular_distance,
    connection_samples,
    sample_frames,
    torus_path,
    torus_phase,
)
from geomphase.action import TORUS_NORM_TOL


class ScaledBlock(ActionRingBlock):
    """An ActionRingBlock whose torus samples are all scaled by one factor."""

    def __init__(self, scale, **kwargs):
        super().__init__(**kwargs)
        self.scale = scale

    def torus_state(self, branch, theta):
        return super().torus_state(branch, theta) * self.scale


def test_torus_inner_normalization():
    b = ActionRingBlock(n=0, n_phi=64)
    psi = b.torus_state("+", 0.3)
    assert abs(np.vdot(psi, psi) / b.n_phi - 1.0) < 1e-13


def test_torus_state_array_matches_scalar_calls():
    b = ActionRingBlock(n=2, n_phi=32)
    thetas = np.linspace(0.0, 2 * math.pi, 33).reshape(3, 11)
    for branch in ("+", "-"):
        psi = b.torus_state(branch, thetas)
        assert psi.shape == (3, 11, 32, 2)
        for idx in np.ndindex(thetas.shape):
            assert np.array_equal(psi[idx], b.torus_state(branch, thetas[idx]))
            assert np.array_equal(psi[idx], b.torus_state(branch, float(thetas[idx])))


def test_torus_branches_orthogonal():
    b = ActionRingBlock(n=2, n_phi=64)
    for theta in (0.0, 1.7):
        p = b.torus_state("+", theta)
        m = b.torus_state("-", theta)
        assert abs(np.vdot(p, m) / b.n_phi) < 1e-13


def test_torus_state_matches_per_sample_exponential():
    # the lower component b e^{i((n+1) phi - theta)} against the same
    # phase in extended precision, and against one exp per sample of the
    # summed phase, which is off by that sum's rounding (half an ulp of
    # 6 pi at n = 2: 1.8e-15) and so moves by more than the new form
    ulp = np.finfo(float).eps
    thetas = np.linspace(0.0, 2 * math.pi, 4097)
    for n in (0, 1, 2):
        for eps, chi in ((0.5, math.pi / 3), (0.3, math.pi / 6)):
            b = ActionRingBlock(n=n, eps=eps, chi=chi)
            cm, sm = math.cos(b.theta_mix), math.sin(b.theta_mix)
            x = (n + 1) * b.phi_grid
            phase = x - thetas[:, None]
            ext = x.astype(np.longdouble) - thetas[:, None].astype(np.longdouble)
            for branch, (upper, lower) in (("+", (cm, sm)), ("-", (-sm, cm))):
                psi = b.torus_state(branch, thetas)
                assert psi.shape == (4097, b.n_phi, 2)
                up = upper * np.exp(1j * n * b.phi_grid)
                assert np.array_equal(psi[..., 0], np.broadcast_to(up, psi.shape[:2]))
                exact = np.longdouble(lower) * (np.cos(ext) + 1j * np.sin(ext))
                assert np.max(np.abs(psi[..., 1] - exact)) <= 2 * ulp
                per_sample = lower * np.exp(1j * phase)
                bound = np.spacing(np.max(np.abs(phase))) / 2 + 4 * ulp
                assert np.max(np.abs(psi[..., 1] - per_sample)) <= bound


def test_torus_states_orthogonal_across_n():
    # different radial labels live on different angular harmonics
    a = ActionRingBlock(n=0, n_phi=64)
    b = ActionRingBlock(n=1, n_phi=64)
    assert abs(np.vdot(a.torus_state("+", 0.5), b.torus_state("+", 0.5)) / 64) < 1e-13


def test_torus_path_values_normalized():
    # the frames are the samples over sqrt(n_phi), which the mean-over-grid
    # normalization makes unit columns before any renormalization
    b = ActionRingBlock(n=1, n_phi=64)
    path = torus_path(b, "+", steps=256)
    assert path.steps == 256 and path.frames.shape == (257, 2 * b.n_phi, 1)
    raw = b.torus_state("+", path.times).reshape(257, -1, 1) / math.sqrt(b.n_phi)
    assert np.max(np.abs(path.frames - raw)) < 1e-13
    assert np.max(np.abs(np.linalg.norm(path.frames, axis=1) - 1.0)) < 1e-13


@pytest.mark.parametrize("branch,sign", [("+", -1.0), ("-", 1.0)])
def test_torus_phase_values(branch, sign):
    # the + band rides the steeper cone: pi (1 - cos 2 Theta)
    b = ActionRingBlock(n=0, eps=0.5, chi=math.pi / 3, n_phi=64)
    c2 = math.cos(2 * b.theta_mix)
    want = math.pi * (1 + sign * c2)
    got = torus_phase(torus_path(b, branch, steps=2048))
    assert circular_distance(got, want) < 1e-6


def test_torus_phase_independent_of_n():
    vals = []
    for n in (0, 1, 3):
        b = ActionRingBlock(n=n, eps=0.3, chi=math.pi / 6, n_phi=64)
        vals.append(torus_phase(torus_path(b, "-", steps=1024)))
    assert max(vals) - min(vals) < 1e-10


def test_torus_connection_density():
    # per-interval samples integrate a constant density
    b = ActionRingBlock(n=0, eps=0.5, chi=math.pi / 3, n_phi=64)
    steps = 1024
    delta = 2 * math.pi / steps
    for branch, key in (("+", "connection_plus"), ("-", "connection_minus")):
        samples = connection_samples(torus_path(b, branch, steps=steps))[:, 0, 0].real
        assert samples.shape == (steps,)
        # third-order per-interval truncation, ~1.4e-9 at this resolution
        assert np.max(np.abs(samples - b.references[key] * delta)) < 5e-9
        assert np.max(samples) - np.min(samples) < 1e-14


def test_frame_path_equivalence():
    # quadrature inner product folded into plain columns: the generic
    # loop machinery must see the bare band-frame loop's phase
    b = ActionRingBlock(n=1, eps=0.5, chi=math.pi / 3, n_phi=32)
    steps = 1024
    for branch, col in (("+", 0), ("-", 1)):
        path = torus_path(b, branch, steps=steps)
        assert path.nvec == 1
        grid = np.linspace(0.0, 2 * math.pi, steps + 1)
        bare = berry_phase(sample_frames(b.band_frame(grid)[:, :, col:col + 1],
                                         period=2 * math.pi))
        assert circular_distance(torus_phase(path), bare) < 1e-10


def test_norm_tol_is_the_refusal_edge():
    want = torus_phase(torus_path(ActionRingBlock(n=0, n_phi=32), "+", steps=64))
    for scale in (1 + 0.5 * TORUS_NORM_TOL, 1 - 0.5 * TORUS_NORM_TOL):
        kept = torus_path(ScaledBlock(scale, n=0, n_phi=32), "+", steps=64)
        # renormalized exactly
        assert np.max(np.abs(np.linalg.norm(kept.frames, axis=1) - 1.0)) <= 1e-15
        assert circular_distance(berry_phase(kept), want) < 1e-12
    for scale in (1 + 2 * TORUS_NORM_TOL, 1 - 2 * TORUS_NORM_TOL):
        with pytest.raises(ValueError, match="max norm deviation 2.000e-0"):
            torus_path(ScaledBlock(scale, n=0, n_phi=32), "+", steps=64)


def test_norm_drift_rejected():
    with pytest.raises(UnitarityError):
        torus_path(ScaledBlock(1.01, n=0, n_phi=32), "+", steps=64)


def test_torus_path_peak_memory():
    # the samples are normalized in the buffer torus_state writes, so a
    # loop holds one (M+1, n_phi, 2) stack, not a scaled second copy
    b = ActionRingBlock(n=1)
    steps = 4096
    stack = (steps + 1) * b.n_phi * 2 * np.dtype(np.complex128).itemsize
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        torus_phase(torus_path(b, "+", steps=steps))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * stack


def test_torus_paths_share_no_memory():
    b = ActionRingBlock(n=1, n_phi=16)
    p, q = (torus_path(b, "+", steps=64) for _ in range(2))
    assert not np.shares_memory(p.frames, q.frames)
    assert np.array_equal(p.frames, q.frames)
