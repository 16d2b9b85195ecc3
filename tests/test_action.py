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
    assert abs(np.vdot(psi, psi) - 1.0) < 1e-13


@pytest.mark.parametrize("n_phi", [16, 48, 64])
@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_torus_state_unit_when_flattened(n, n_phi):
    # every sample carries the grid weight 1/sqrt(n_phi), also where that
    # weight is not a power of two (n_phi = 48)
    b = ActionRingBlock(n=n, eps=0.3, chi=math.pi / 6, n_phi=n_phi)
    thetas = np.linspace(0.0, 2 * math.pi, 257)
    for branch in ("+", "-"):
        psi = b.torus_state(branch, thetas).reshape(thetas.size, -1)
        assert np.max(np.abs(np.linalg.norm(psi, axis=1) - 1.0)) <= 1e-15


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
        assert abs(np.vdot(p, m)) < 1e-13


def test_torus_state_matches_per_sample_exponential():
    # the lower component b e^{i((n+1) phi - theta)} against the same
    # phase in extended precision, and against one exp per sample of the
    # summed phase, which is off by that sum's rounding (half an ulp of
    # 6 pi at n = 2: 1.8e-15) and so moves by more than the new form;
    # the samples carry the grid weight 1/sqrt(n_phi) = 1/8, which
    # sqrt(n_phi) undoes exactly
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
                psi = b.torus_state(branch, thetas) * math.sqrt(b.n_phi)
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
    assert abs(np.vdot(a.torus_state("+", 0.5), b.torus_state("+", 0.5))) < 1e-13


def test_torus_path_values_normalized():
    # the frames are the samples, which are written as unit columns
    b = ActionRingBlock(n=1, n_phi=64)
    path = torus_path(b, "+", steps=256)
    assert path.steps == 256 and path.frames.shape == (257, 2 * b.n_phi, 1)
    raw = b.torus_state("+", path.times).reshape(257, -1, 1)
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
    # the 1e-10 edge of every frame array's unitarity check, on the
    # squared norm; a kept column is not rescaled
    want = torus_phase(torus_path(ActionRingBlock(n=0, n_phi=32), "+", steps=64))
    thetas = np.linspace(0.0, 2 * math.pi, 65)
    for sq in (1 + 0.5e-10, 1 - 0.5e-10):
        b = ScaledBlock(math.sqrt(sq), n=0, n_phi=32)
        kept = torus_path(b, "+", steps=64)
        raw = b.torus_state("+", thetas).reshape(65, -1, 1)
        assert np.array_equal(kept.frames[:-1], raw[:-1])
        assert np.array_equal(kept.frames[-1], raw[0])
        assert circular_distance(berry_phase(kept), want) < 1e-12
    for sq in (1 + 2e-10, 1 - 2e-10):
        with pytest.raises(UnitarityError, match="max .* = 2.000e-10 > 1.0e-10"):
            torus_path(ScaledBlock(math.sqrt(sq), n=0, n_phi=32), "+", steps=64)


def test_norm_drift_rejected():
    with pytest.raises(UnitarityError):
        torus_path(ScaledBlock(1.01, n=0, n_phi=32), "+", steps=64)


def test_torus_path_peak_memory():
    # the buffer torus_state writes is the path's frames, so a loop holds
    # one (M+1, n_phi, 2) stack, not a second copy
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


class _KeptBlock(ActionRingBlock):
    """An ActionRingBlock that keeps the last array torus_state returned
    and a copy of what was written to it."""

    def torus_state(self, branch, theta):
        self.returned = super().torus_state(branch, theta)
        self.written = self.returned.copy()
        return self.returned


@pytest.mark.parametrize("branch", ["+", "-"])
def test_torus_path_frames_are_the_samples(branch):
    # no copy and no rescale: the frames are the returned array reshaped,
    # bit for bit, with only the endpoint identified with the start
    b = _KeptBlock(n=1, n_phi=64)
    path = torus_path(b, branch, steps=256)
    assert np.shares_memory(path.frames, b.returned)
    written = b.written.reshape(257, -1, 1)
    assert np.array_equal(path.frames[:-1], written[:-1])
    assert np.array_equal(path.frames[-1], written[0])
