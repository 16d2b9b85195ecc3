"""Angle-space transport of the two-component torus eigenfunctions."""

import math

import numpy as np
import pytest

from geomphase import (
    ActionRingBlock,
    TorusPath,
    UnitarityError,
    as_frame_path,
    berry_phase,
    circular_distance,
    torus_connection,
    torus_path,
    torus_phase,
)


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
    b = ActionRingBlock(n=1, n_phi=64)
    tp = torus_path(b, "+", steps=256)
    assert tp.steps == 256
    norms = np.einsum("mkc,mkc->m", tp.values.conj(), tp.values).real / b.n_phi
    assert np.max(np.abs(norms - 1.0)) < 1e-13


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
        samples = torus_connection(torus_path(b, branch, steps=steps))
        assert samples.shape == (steps,)
        # third-order per-interval truncation, ~1.4e-9 at this resolution
        assert np.max(np.abs(samples - b.references[key] * delta)) < 5e-9
        assert np.max(samples) - np.min(samples) < 1e-14


def test_frame_path_equivalence():
    # quadrature inner product folded into plain columns: the generic
    # loop machinery must see the same phase
    b = ActionRingBlock(n=1, eps=0.5, chi=math.pi / 3, n_phi=32)
    tp = torus_path(b, "+", steps=1024)
    fp = as_frame_path(tp)
    assert fp.nvec == 1
    assert circular_distance(berry_phase(fp), torus_phase(tp)) < 1e-10


def test_norm_tol_is_the_refusal_edge():
    b = ActionRingBlock(n=0, n_phi=32)
    tp = torus_path(b, "+", steps=64)
    want = berry_phase(as_frame_path(tp))
    for tol in (1e-6, 1e-3):
        kept = as_frame_path(TorusPath(tp.thetas, tp.values * (1 + 0.5 * tol)), norm_tol=tol)
        # renormalized exactly, in a copy the path owns
        assert np.max(np.abs(np.linalg.norm(kept.frames, axis=1) - 1.0)) <= 1e-15
        assert not np.shares_memory(kept.frames, tp.values)
        assert circular_distance(berry_phase(kept), want) < 1e-12
        with pytest.raises(ValueError, match="max norm deviation 2.000e-0"):
            as_frame_path(TorusPath(tp.thetas, tp.values * (1 + 2 * tol)), norm_tol=tol)


def test_norm_drift_rejected():
    b = ActionRingBlock(n=0, n_phi=32)
    tp = torus_path(b, "+", steps=64)
    bad = TorusPath(tp.thetas, tp.values * 1.01)
    with pytest.raises(UnitarityError):
        as_frame_path(bad)
