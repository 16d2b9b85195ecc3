"""Hot numeric kernels over stacks of small matrices: Hermitian
eigensolves, polar factors, frame alignment, ordered matrix products and
midpoint-exponential propagation.

Every factorization is one numpy.linalg (LAPACK) call on the whole
stack; eigenvalues come back ascending. Only the ordered products, whose
factors do not commute, run as a sequential loop over small matrices.
"""

import numpy as np


def _adjoint(m):
    return np.conj(np.swapaxes(m, -1, -2))


def eigh_batch(hs):
    """Ascending eigenvalues (M, n) and eigenvector columns (M, n, n) of a
    stack of Hermitian matrices."""
    return np.linalg.eigh(hs)


def polar_unitary(m):
    """Unitary factor of m = u * sqrt(m^H m), for one matrix or a stack.

    Returns (u, smallest singular value); the caller decides what "too
    singular" means.
    """
    u, s, vh = np.linalg.svd(m)
    return u @ vh, s[..., -1]


def align_frames(frames):
    """Gauge each frame against its aligned predecessor so consecutive
    overlaps become Hermitian positive.

    The first and the last stored frames are left untouched (the endpoint
    of a closed path is identified with the start). Since
    polar(A G) = polar(A) G for unitary G, the gauge of frame k+1 is the
    polar factor of the raw overlap times the gauge of frame k: one
    batched polar call and a chain of K x K products give every gauge,
    and one batched product applies them.
    Returns the aligned frames and the smallest singular value of every
    overlap.
    """
    polars, smins = polar_unitary(_adjoint(frames[1:]) @ frames[:-1])
    eye = np.eye(frames.shape[2], dtype=np.complex128)
    gs = np.empty((frames.shape[0] - 2,) + eye.shape, dtype=np.complex128)
    g = eye
    for k in range(gs.shape[0]):
        g = polars[k] @ g if smins[k] > 1e-12 else eye
        gs[k] = g
    out = np.empty_like(frames)
    out[0], out[-1] = frames[0], frames[-1]
    np.matmul(frames[1:-1], gs, out=out[1:-1])
    return out, smins


def overlap_smins(frames):
    """Smallest singular value of every consecutive overlap F_k^H F_{k+1}."""
    o = _adjoint(frames[:-1]) @ frames[1:]
    return np.linalg.svd(o, compute_uv=False)[:, -1]


def chain_product(mats):
    """Ordered product mats[0] @ mats[1] @ ... @ mats[-1]."""
    p = np.eye(mats.shape[1], dtype=np.complex128)
    for m in mats:
        p = p @ m
    return p


def propagate(h_mid, dt, psi0):
    """States (M+1, n) and cumulative propagators (M+1, n, n) of one
    midpoint-exponential step per interval.

    Each step U_k = exp(-i H_k dt) comes from an exact diagonalization of
    its midpoint Hamiltonian, so every step is unitary to rounding.
    """
    w, v = np.linalg.eigh(h_mid)
    steps = (v * np.exp(w * (-1j * dt))[:, None, :]) @ _adjoint(v)
    del w, v  # free the eigenbases before the propagator stack is allocated
    n = psi0.shape[0]
    props = np.empty((h_mid.shape[0] + 1, n, n), np.complex128)
    props[0] = np.eye(n)
    for k, step in enumerate(steps):
        np.matmul(step, props[k], out=props[k + 1])
    return props @ psi0, props
