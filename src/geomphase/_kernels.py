"""Hot numeric kernels over stacks of small matrices: Hermitian
eigensolves, polar factors, frame alignment, ordered matrix products and
midpoint-exponential propagation.

Every factorization is one numpy.linalg (LAPACK) call on the whole
stack; eigenvalues come back ascending. One-column stacks take the
closed forms instead: the polar factor of a 1 x 1 matrix is its phase
and its singular value its modulus. The ordered products (propagators,
alignment gauges, the Wilson loop) share one blocked scan: M factors
split into blocks of about sqrt(M), the prefix inside every block runs
as one batched product per block position, and a short chain over the
block totals carries the blocks together. That is about 2M small
products in about 2 sqrt(M) numpy calls, and inside a block the
products still associate in sequence.
"""

import math

import numpy as np


def _adjoint(m):
    return np.conj(np.swapaxes(m, -1, -2))


def _block_scan(factors):
    """Blocked left-multiplying scan of a stack of M square factors.

    The stack is padded with identities to B blocks of L = isqrt(M)
    factors. Returns the block-local prefixes f (B, L, n, n), where
    f[b, j] = factors[bL+j] @ ... @ factors[bL], and the carries
    (B, n, n), where carry[b] is the product of all blocks before b
    (carry[0] = I), so the prefix through factor bL+j is
    f[b, j] @ carry[b].
    """
    m, n = factors.shape[0], factors.shape[-1]
    size = max(1, math.isqrt(m))
    nblocks = max(1, -(-m // size))
    f = np.empty((nblocks * size, n, n), np.complex128)
    f[:m] = factors
    f[m:] = np.eye(n)
    f = f.reshape(nblocks, size, n, n)
    for j in range(1, size):
        f[:, j] = f[:, j] @ f[:, j - 1]
    carry = np.empty((nblocks, n, n), np.complex128)
    carry[0] = np.eye(n)
    for b in range(1, nblocks):
        carry[b] = f[b - 1, -1] @ carry[b - 1]
    return f, carry


def _prefix_products(factors):
    """Prefix products P (M+1, n, n) of a stack of M factors:
    P[0] = I exactly and P[k+1] = factors[k] @ P[k].

    The blocks combine straight into P's buffer, which holds the padded
    tail (fewer than sqrt(M) matrices) beyond the returned view.
    """
    m, n = factors.shape[0], factors.shape[-1]
    f, carry = _block_scan(factors)
    out = np.empty((1 + f.shape[0] * f.shape[1], n, n), np.complex128)
    out[0] = np.eye(n)
    np.matmul(f, carry[:, None], out=out[1:].reshape(f.shape))
    return out[:m + 1]


def eigh_batch(hs):
    """Ascending eigenvalues (M, n) and eigenvector columns (M, n, n) of a
    stack of Hermitian matrices."""
    return np.linalg.eigh(hs)


def polar_unitary(m):
    """Unitary factor of m = u * sqrt(m^H m), for one matrix or a stack.

    Returns (u, smallest singular value); the caller decides what "too
    singular" means. A 1 x 1 factor is the phase of m, which is unitary
    even at m = 0.
    """
    if m.shape[-1] == 1:
        return np.exp(1j * np.angle(m)), np.abs(m[..., 0, 0])
    u, s, vh = np.linalg.svd(m)
    return u @ vh, s[..., -1]


def align_frames(frames):
    """Gauge each frame against its aligned predecessor so consecutive
    overlaps become Hermitian positive.

    The first and the last stored frames are left untouched (the endpoint
    of a closed path is identified with the start). Since
    polar(A G) = polar(A) G for unitary G, the gauge of frame k+1 is the
    polar factor of the raw overlap times the gauge of frame k: one
    batched polar call and a prefix product of the K x K polar factors
    give every gauge, and one batched product applies them.
    Returns the aligned frames and the smallest singular value of every
    overlap; the caller judges them, since a nearly singular overlap has
    no well-defined polar factor.
    """
    polars, smins = polar_unitary(_adjoint(frames[1:]) @ frames[:-1])
    gs = _prefix_products(polars[:-1])[1:]
    out = np.empty_like(frames)
    out[0], out[-1] = frames[0], frames[-1]
    np.matmul(frames[1:-1], gs, out=out[1:-1])
    return out, smins


def overlap_smins(frames):
    """Smallest singular value of every consecutive overlap F_k^H F_{k+1}."""
    o = _adjoint(frames[:-1]) @ frames[1:]
    if o.shape[-1] == 1:
        return np.abs(o[:, 0, 0])
    return np.linalg.svd(o, compute_uv=False)[:, -1]


def chain_product(mats):
    """Ordered product mats[0] @ mats[1] @ ... @ mats[-1]."""
    f, carry = _block_scan(mats[::-1])
    return f[-1, -1] @ carry[-1]


def propagate(h_mid, dt, psi0):
    """States (M+1, n) and cumulative propagators (M+1, n, n) of one
    midpoint-exponential step per interval.

    Each step U_k = exp(-i H_k dt) comes from an exact diagonalization of
    its midpoint Hamiltonian, so every step is unitary to rounding.
    """
    w, v = np.linalg.eigh(h_mid)
    steps = (v * np.exp(w * (-1j * dt))[:, None, :]) @ _adjoint(v)
    del w, v  # free the eigenbases before the propagator stack is allocated
    props = _prefix_products(steps)
    return props @ psi0, props
