"""Kernel layer against numpy.linalg and scipy.linalg oracles.
Eigenvector columns are only ever compared through residuals, since a
degenerate or sign-free column has no unique value to compare."""

import functools

import numpy as np
import pytest
import scipy.linalg

from geomphase import _kernels

# Every kernel test runs on the one build, plain numpy over LAPACK. The
# id keeps the label that build's results have always been reported
# under.
on_build = pytest.mark.parametrize("kern", [_kernels], ids=["pure-kern0"])


def random_hermitian(rng, n, batch=()):
    a = rng.normal(size=batch + (n, n)) + 1j * rng.normal(size=batch + (n, n))
    return np.ascontiguousarray((a + np.swapaxes(a.conj(), -1, -2)) / 2)


def random_unitary(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return np.ascontiguousarray(q * (np.diagonal(r) / np.abs(np.diagonal(r))))


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
    frames = np.stack([random_unitary(rng, 3)[:, :2] for _ in range(5)])
    smins = kern.overlap_smins(np.ascontiguousarray(frames))
    for i in range(4):
        o = frames[i].conj().T @ frames[i + 1]
        assert abs(smins[i] - np.linalg.svd(o, compute_uv=False)[-1]) < 1e-12
