"""Kernel layer against numpy.linalg and scipy.linalg oracles.
Eigenvector columns are only ever compared through residuals, since a
degenerate or sign-free column has no unique value to compare."""

import functools
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from geomphase import RotatingRingBlock, _kernels, random_unitary_gauge

# Every kernel test runs on the one build, plain numpy over LAPACK. The
# id keeps the label that build's results have always been reported
# under.
on_build = pytest.mark.parametrize("kern", [_kernels], ids=["pure-kern0"])


def random_hermitian(rng, n, batch=()):
    a = rng.normal(size=batch + (n, n)) + 1j * rng.normal(size=batch + (n, n))
    return np.ascontiguousarray((a + np.swapaxes(a.conj(), -1, -2)) / 2)


def random_unitary(rng, n, batch=()):
    a = rng.normal(size=batch + (n, n)) + 1j * rng.normal(size=batch + (n, n))
    q, r = np.linalg.qr(a)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return np.ascontiguousarray(q * (d / np.abs(d))[..., None, :])


def sequential_prefix(factors):
    """P[0] = I, P[k+1] = factors[k] @ P[k], one product at a time."""
    out = [np.eye(factors.shape[-1], dtype=np.complex128)]
    for f in factors:
        out.append(f @ out[-1])
    return np.stack(out)


# Lengths at the block edges of the scan: squares, one off a square, primes.
EDGE_LENGTHS = sorted(
    {s * s + d for s in range(1, 18) for d in (-1, 0, 1)} - {0}
    | {2, 3, 5, 7, 13, 31, 97, 127, 251, 293}
)


@on_build
@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_eigh_batch_matches_numpy_eigenvalues(kern, n, rng):
    h = random_hermitian(rng, n, batch=(20,))
    w, v = kern.eigh_batch(h)
    assert np.allclose(w, np.linalg.eigvalsh(h), atol=1e-12)
    assert np.all(np.diff(w, axis=1) >= 0)
    # eigenvector quality via the residual, not vector comparison
    assert np.max(np.abs(h @ v - v * w[:, None, :])) < 1e-12
    assert np.max(np.abs(np.swapaxes(v.conj(), 1, 2) @ v - np.eye(n))) < 1e-13


@on_build
def test_eigh_batch_consistent_with_single(kern, rng):
    h = random_hermitian(rng, 4, batch=(7,))
    wb, vb = kern.eigh_batch(h)
    for i in range(7):
        assert np.max(np.abs(h[i] @ vb[i] - vb[i] * wb[i])) < 1e-12


@on_build
def test_polar_unitary(kern, rng):
    for n in (1, 2, 4):
        m = np.ascontiguousarray(
            rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        )
        u, smin = kern.polar_unitary(m)
        assert np.max(np.abs(u.conj().T @ u - np.eye(n))) < 1e-12
        h = u.conj().T @ m
        assert np.max(np.abs(h - h.conj().T)) < 1e-11
        assert np.min(np.linalg.eigvalsh((h + h.conj().T) / 2)) > 0
        assert abs(smin - np.linalg.svd(m, compute_uv=False)[-1]) < 1e-10


@on_build
def test_polar_unitary_stack_matches_scipy(kern, rng):
    for n in (1, 2, 4):
        m = rng.normal(size=(9, n, n)) + 1j * rng.normal(size=(9, n, n))
        u, smin = kern.polar_unitary(m)
        assert u.shape == m.shape and smin.shape == (9,)
        for i in range(9):
            want, _p = scipy.linalg.polar(m[i])
            assert np.max(np.abs(u[i] - want)) < 1e-12
            assert abs(smin[i] - scipy.linalg.svdvals(m[i])[-1]) < 1e-12


@on_build
def test_chain_product_is_ordered(kern, rng):
    mats = np.ascontiguousarray(
        rng.normal(size=(6, 3, 3)) + 1j * rng.normal(size=(6, 3, 3))
    )
    want = functools.reduce(np.matmul, mats)
    assert np.max(np.abs(kern.chain_product(mats) - want)) < 1e-12
    # unitary factors keep long products bounded
    for length in (1, 2, 6, 17, 2048):
        mats = random_unitary(rng, 3, batch=(length,))
        want = functools.reduce(np.matmul, mats)
        assert np.max(np.abs(kern.chain_product(mats) - want)) < 1e-12


@settings(max_examples=200, deadline=None)
@given(
    m=st.one_of(st.sampled_from(EDGE_LENGTHS), st.integers(1, 300)),
    n=st.sampled_from([1, 2, 3]),
    unitary=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_prefix_products_match_sequential_loop(m, n, unitary, seed):
    rng = np.random.default_rng(seed)
    if unitary:
        factors = random_unitary(rng, n, batch=(m,))
    else:
        factors = (rng.normal(size=(m, n, n))
                   + 1j * rng.normal(size=(m, n, n))) / math.sqrt(n)
    got = _kernels._prefix_products(factors)
    want = sequential_prefix(factors)
    assert got.shape == (m + 1, n, n)
    assert np.array_equal(got[0], np.eye(n))
    if unitary:
        assert np.max(np.abs(got - want)) <= 1e-13
    else:
        # regrouping a product of k factors moves it by about k roundings
        # relative to its size (measured at most 1.8 k eps)
        k = np.arange(m + 1)
        err = np.linalg.norm(got - want, axis=(1, 2))
        size = np.linalg.norm(want, axis=(1, 2))
        assert np.all(err <= 16 * k * np.finfo(float).eps * size)


@on_build
def test_propagate_constant_hamiltonian_exact(kern, rng):
    h = random_hermitian(rng, 3)
    steps, dt = 64, 0.05
    psi0 = rng.normal(size=3) + 1j * rng.normal(size=3)
    psi0 = np.ascontiguousarray(psi0 / np.linalg.norm(psi0))
    mids = np.ascontiguousarray(np.broadcast_to(h, (steps, 3, 3)))
    states, props = kern.propagate(mids, dt, psi0)
    w, v = np.linalg.eigh(h)
    for k in (1, steps // 2, steps):
        exact = v @ (np.exp(-1j * w * k * dt) * (v.conj().T @ psi0))
        assert np.max(np.abs(states[k] - exact)) < 1e-12
    assert np.max(np.abs(props[0] - np.eye(3))) == 0.0
    uT = props[steps]
    assert np.max(np.abs(uT.conj().T @ uT - np.eye(3))) < 1e-12


@on_build
def test_align_frames_parallel_transport(kern, rng):
    # random smooth-ish frames: aligned successors have Hermitian positive
    # overlaps and span the same columns as before
    m1, d, k = 9, 4, 2
    frames = np.empty((m1, d, k), dtype=np.complex128)
    base = np.linalg.qr(rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k)))[0]
    frames[0] = base
    for i in range(1, m1):
        step = 0.05 * (rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k)))
        frames[i] = np.linalg.qr(frames[i - 1] + step)[0]
    aligned, smins = kern.align_frames(np.ascontiguousarray(frames))
    assert np.min(smins) > 0.5
    # interior overlaps become Hermitian positive; the final frame is left
    # alone so the closing overlap keeps the loop's net holonomy
    for i in range(m1 - 2):
        o = aligned[i].conj().T @ aligned[i + 1]
        assert np.max(np.abs(o - o.conj().T)) < 1e-10
        assert np.min(np.linalg.eigvalsh((o + o.conj().T) / 2)) > 0
    for i in range(m1):
        p_old = frames[i] @ frames[i].conj().T
        p_new = aligned[i] @ aligned[i].conj().T
        assert np.max(np.abs(p_old - p_new)) < 1e-12
    assert np.max(np.abs(aligned[-1] - frames[-1])) == 0.0


@on_build
def test_overlap_smins(kern, rng):
    for k in (1, 2):
        frames = np.stack([random_unitary(rng, 3)[:, :k] for _ in range(5)])
        smins = kern.overlap_smins(np.ascontiguousarray(frames))
        assert smins.shape == (4,)
        for i in range(4):
            o = frames[i].conj().T @ frames[i + 1]
            assert abs(smins[i] - np.linalg.svd(o, compute_uv=False)[-1]) < 1e-12


def test_align_frames_gauges_match_sequential_chain():
    # a rotating-ring pair embedded in four dimensions under a random
    # closed U(2) gauge, over 4096 steps
    rng = np.random.default_rng(7)
    m = RotatingRingBlock(n=1, eps=0.3, chi=math.pi / 6)
    t = np.linspace(0.0, m.period, 4097)
    iso = random_unitary(rng, 4)[:, :2]
    frames = iso @ m.frame_batch(t) @ random_unitary_gauge(rng, t.size, 2)
    aligned, smins = _kernels.align_frames(frames)
    polars, want_smins = _kernels.polar_unitary(
        np.swapaxes(frames[1:].conj(), 1, 2) @ frames[:-1])
    gs = sequential_prefix(polars[:-1])[1:]
    assert np.array_equal(smins, want_smins)
    assert np.max(np.abs(aligned[1:-1] - frames[1:-1] @ gs)) < 1e-13
    assert np.array_equal(aligned[0], frames[0])
    assert np.array_equal(aligned[-1], frames[-1])


def test_propagate_matches_extended_precision_chain():
    # the slow rotating pair at drive ratio 1e-3 over one turn; the same
    # step unitaries chained one at a time in extended precision
    probe = RotatingRingBlock(n=0, omega_o=1.0)
    b = RotatingRingBlock(n=0, omega_o=1e-3 * probe.omega_ns)
    steps = 2**15
    dt = b.period / steps
    h_mid = b.hamiltonian.sample((np.arange(steps) + 0.5) * dt)
    w, v = np.linalg.eigh(h_mid)
    units = ((v * np.exp(w * (-1j * dt))[:, None, :])
             @ np.swapaxes(v.conj(), 1, 2)).astype(np.clongdouble)
    psi0 = b.state("+")
    states, _props = _kernels.propagate(h_mid, dt, psi0)
    psi = psi0.astype(np.clongdouble)
    want = [psi]
    for u in units:
        psi = u @ psi
        want.append(psi)
    assert np.max(np.abs(states - np.stack(want))) <= 1e-12
