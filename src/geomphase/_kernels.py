"""Hot numeric kernels over stacks of small matrices: Hermitian
eigensolves, consecutive frame overlaps, polar factors, frame alignment,
ordered matrix products and midpoint-exponential propagation.

Each factorization picks its method from the matrix shape alone. Stacks
of n > 2 matrices make one numpy.linalg (LAPACK) call on the whole stack;
eigenvalues come back ascending. At n <= 2 LAPACK's per-matrix overhead
far outweighs the arithmetic, so the Hermitian eigensolves, polar
factors, smallest singular values and step exponentials there take
closed forms: a 1 x 1 matrix's polar factor is its phase and its
singular value its modulus; a 2 x 2 matrix M has the polar factor
(M + e^{i arg det M} adj(M)^H) / sqrt(|M|_F^2 + 2 |det M|); and a 2 x 2
Hermitian H = a I + K with K traceless has the eigenvalues a -+ |K| and
exp(-i s H) = e^{-i a s} (cos(|K| s) I - i s sinc(|K| s) K).

Stacked products and Grams F^H G pick their method from the inner
dimension alone. numpy's matmul pays a fixed cost per matrix that
outweighs the arithmetic of an inner dimension <= 2, so there a product
is a broadcast sum over the inner index: the outer product at 1, two
outer products added at 2. Longer inner dimensions take matmul (the
4 x 4 direct sum) and Grams with a longer core take one vecdot, which
conjugates F as it reads it instead of copying it. The ordered products
(propagators, alignment gauges, the Wilson loop) share one blocked
scan: M factors split into blocks of about sqrt(M), the prefix inside
every block runs as one batched product per block position, and a short
chain over the block totals carries the blocks together. That is about
2M small products in about 2 sqrt(M) numpy calls, and inside a block the
products still associate in sequence.
"""

import math

import numpy as np


def _adjoint(m):
    return np.conj(np.swapaxes(m, -1, -2))


def _matmul(a, b, out=None):
    """Stacked product a @ b of (..., m, k) and (..., k, p) stacks, chosen
    by the inner dimension k.

    At k = 1 the broadcast a * b is the outer product; at k = 2 the
    product is a[..., :1] * b[..., :1, :] + a[..., 1:] * b[..., 1:, :].
    The second term is formed before out is written, so out may alias a
    or b. Other k take np.matmul.
    """
    k = a.shape[-1]
    if k == 1:
        return np.multiply(a, b, out=out)
    if k != 2:
        return np.matmul(a, b, out=out)
    second = a[..., 1:] * b[..., 1:, :]
    out = np.multiply(a[..., :1], b[..., :1, :], out=out)
    out += second
    return out


def _gram(f, g):
    """Stacked products F^H G of (..., n, K) and (..., n, L) stacks, shape
    (..., K, L).

    A core of n <= 2 rows is a broadcast sum over the conjugated rows of
    F (see _matmul); a longer core goes to one vecdot, which conjugates F
    as it reads it instead of copying it.
    """
    if f.shape[-2] <= 2:
        return _matmul(_adjoint(f), g)
    return np.vecdot(f[..., :, :, None], g[..., :, None, :], axis=-3)


def _block_scan(factors):
    """Blocked left-multiplying scan of a stack of M square factors.

    The factors split into B blocks of L = isqrt(M). When they fill whole
    blocks and are C-contiguous the scan runs in their own buffer and
    overwrites them; otherwise they are copied and padded with
    identities. Returns the block-local prefixes f (B, L, n, n), where
    f[b, j] = factors[bL+j] @ ... @ factors[bL], and the carries
    (B, n, n), where carry[b] is the product of all blocks before b
    (carry[0] = I), so the prefix through factor bL+j is
    f[b, j] @ carry[b].
    """
    m, n = factors.shape[0], factors.shape[-1]
    size = max(1, math.isqrt(m))
    nblocks = max(1, -(-m // size))
    if nblocks * size == m and factors.flags.c_contiguous:
        f = factors.reshape(nblocks, size, n, n)
    else:
        f = np.empty((nblocks * size, n, n), np.complex128)
        f[:m] = factors
        f[m:] = np.eye(n)
        f = f.reshape(nblocks, size, n, n)
    for j in range(1, size):
        # assigned, not written through out: numpy's overlap handling
        # makes an aliased out about twice as slow on these strided slabs
        f[:, j] = _matmul(f[:, j], f[:, j - 1])
    carry = np.empty((nblocks, n, n), np.complex128)
    carry[0] = np.eye(n)
    for b in range(1, nblocks):
        carry[b] = f[b - 1, -1] @ carry[b - 1]
    return f, carry


def _prefix_products(factors):
    """Prefix products P (M+1, n, n) of a stack of M factors:
    P[0] = I exactly and P[k+1] = factors[k] @ P[k].

    Consumes factors: when they fill whole blocks the scan runs in their
    buffer. Each block's L prefixes, stacked as one (L n) x n matrix, take
    their carry in one product, so the combine is B products with no
    temporary, straight into P's buffer, which holds the padded tail
    (fewer than sqrt(M) matrices) beyond the returned view.
    """
    m, n = factors.shape[0], factors.shape[-1]
    f, carry = _block_scan(factors)
    nblocks = f.shape[0]
    out = np.empty((1 + f.shape[0] * f.shape[1], n, n), np.complex128)
    out[0] = np.eye(n)
    np.matmul(f.reshape(nblocks, -1, n), carry,
              out=out[1:].reshape(nblocks, -1, n))
    return out[:m + 1]


def _expm_herm(h, s):
    """exp(-i s H) for a Hermitian matrix or a stack of them (..., n, n),
    unitary to rounding.

    At n = 2, with H = a I + K, K traceless and |K|^2 = K00^2 + |K01|^2:
    exp(-i s H) = e^{-i a s} (cos(|K| s) I - i s sinc(|K| s) K), exact for
    K = 0. It reads the diagonal and the upper corner only and writes the
    result into one new buffer. Other sizes diagonalize H exactly.
    """
    if h.shape[-1] != 2:
        # the eigenbases are freed on return, before a caller allocates
        w, v = np.linalg.eigh(h)
        return (v * np.exp(w * (-1j * s))[..., None, :]) @ _adjoint(v)
    d0, d1 = h[..., 0, 0].real, h[..., 1, 1].real
    k0 = (d0 - d1) / 2
    k1 = h[..., 0, 1]
    x = s * np.hypot(k0, np.abs(k1))
    phase = np.exp((-1j * s / 2) * (d0 + d1))
    c = phase * np.cos(x)
    q = phase * np.sinc(x / np.pi)
    q *= -1j * s
    qk = q * k0
    out = np.empty(h.shape, np.complex128)
    out[..., 0, 0] = c + qk
    out[..., 1, 1] = c - qk
    out[..., 0, 1] = q * k1
    out[..., 1, 0] = q * np.conj(k1)
    return out


def _svals2(m):
    """det M, |M|_F^2 and the smallest singular value of a stack of 2 x 2
    matrices.

    s_min^2 = 2 |det|^2 / (f + sqrt(f^2 - 4 |det|^2)) with f = |M|_F^2, the
    smaller root of s^4 - f s^2 + |det|^2 written without the cancellation
    of (f - sqrt(disc)) / 2. The discriminant is the squared eigenvalue gap
    of M M^H = [[p, r], [r*, q]], (p - q)^2 + 4 |r|^2, which keeps nearly
    equal singular values apart where f^2 - 4 |det|^2 would cancel.
    """
    a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    det = a * d - b * c
    p = a.real ** 2 + a.imag ** 2 + b.real ** 2 + b.imag ** 2
    q = c.real ** 2 + c.imag ** 2 + d.real ** 2 + d.imag ** 2
    r = np.abs(a * np.conj(c) + b * np.conj(d))
    f = p + q
    ad = np.abs(det)
    root = np.maximum(f + np.hypot(p - q, 2 * r), np.finfo(float).tiny)
    return det, f, np.sqrt(2 * ad * ad / root)


def eigh_batch(hs):
    """Ascending eigenvalues (M, n) and eigenvector columns (M, n, n) of a
    stack of Hermitian matrices.

    At n = 2, with H = a I + K, K = [[k0, k1], [k1*, -k0]] and
    r = hypot(k0, |k1|), the eigenvalues are a -+ r. The +r eigenvector
    is (r + k0, k1*) for k0 >= 0 and (k1, r - k0) otherwise, so no
    component cancels, normalized by hypot(r + |k0|, |k1|); the -r
    eigenvector (y*, -x*) of the +r one (x, y) makes every basis special
    unitary, and K = 0 gives exactly I. It reads the diagonal and the
    upper corner only. Other sizes go to LAPACK.
    """
    if hs.shape[-1] != 2:
        return np.linalg.eigh(hs)
    d0, d1 = hs[..., 0, 0].real, hs[..., 1, 1].real
    a = (d0 + d1) / 2
    k0 = (d0 - d1) / 2
    k1 = hs[..., 0, 1]
    ak1 = np.abs(k1)
    r = np.hypot(k0, ak1)
    pos = k0 >= 0
    x = np.where(pos, r + k0, k1)
    y = np.where(pos, np.conj(k1), r - k0)
    norm = np.hypot(r + np.abs(k0), ak1)
    # K = 0: every basis is an eigenbasis, and (x, y) = (0, 1) picks I
    zero = norm == 0
    inv = 1 / np.where(zero, 1.0, norm)
    x = x * inv
    y = np.where(zero, 1.0, y) * inv
    w = np.empty(r.shape + (2,))
    w[..., 0] = a - r
    w[..., 1] = a + r
    v = np.empty(hs.shape, np.complex128)
    v[..., 0, 0] = np.conj(y)
    v[..., 1, 0] = -np.conj(x)
    v[..., 0, 1] = x
    v[..., 1, 1] = y
    return w, v


def polar_unitary(m):
    """Unitary factor of m = u * sqrt(m^H m), for one matrix or a stack.

    Returns (u, smallest singular value); the caller decides what "too
    singular" means. A 1 x 1 factor is the phase of m, which is unitary
    even at m = 0. A 2 x 2 factor is
    (m + e^{i arg det m} adj(m)^H) / sqrt(|m|_F^2 + 2 |det m|), unitary down
    to rank 1 and zero at m = 0.
    """
    if m.shape[-1] == 1:
        return np.exp(1j * np.angle(m)), np.abs(m[..., 0, 0])
    if m.shape[-1] == 2:
        det, f, smin = _svals2(m)
        scale = 1 / np.sqrt(np.maximum(f + 2 * np.abs(det), np.finfo(float).tiny))
        ph = np.exp(1j * np.angle(det))
        u = np.empty(m.shape, np.complex128)
        u[..., 0, 0] = m[..., 0, 0] + ph * np.conj(m[..., 1, 1])
        u[..., 0, 1] = m[..., 0, 1] - ph * np.conj(m[..., 1, 0])
        u[..., 1, 0] = m[..., 1, 0] - ph * np.conj(m[..., 0, 1])
        u[..., 1, 1] = m[..., 1, 1] + ph * np.conj(m[..., 0, 0])
        u *= scale[..., None, None]
        return u, smin
    u, s, vh = np.linalg.svd(m)
    return u @ vh, s[..., -1]


def align_frames(frames):
    """Gauge each frame against its aligned predecessor so consecutive
    overlaps become Hermitian positive, and return the aligned frames.

    The first and the last stored frames are left untouched (the endpoint
    of a closed path is identified with the start). Since
    polar(A G) = polar(A) G for unitary G, the gauge of frame k+1 is the
    polar factor of the raw overlap times the gauge of frame k: one
    batched polar call and a prefix product of the K x K polar factors
    give every gauge, and one batched product applies them. A nearly
    singular overlap has no well-defined polar factor; the path built
    from the aligned frames refuses it (see overlap_smins).
    """
    polars = polar_unitary(_gram(frames[1:], frames[:-1]))[0]
    gs = _prefix_products(polars[:-1])[1:]
    out = np.empty_like(frames)
    out[0], out[-1] = frames[0], frames[-1]
    _matmul(frames[1:-1], gs, out=out[1:-1])
    return out


def overlap_smins(frames):
    """Consecutive overlaps F_k^H F_{k+1} of a frame stack (M+1, dim, K),
    shape (M, K, K), and the smallest singular value of each, shape (M,).

    The one place a path's overlaps are formed.
    """
    o = _gram(frames[:-1], frames[1:])
    if o.shape[-1] == 1:
        return o, np.abs(o[:, 0, 0])
    if o.shape[-1] == 2:
        return o, _svals2(o)[2]
    return o, np.linalg.svd(o, compute_uv=False)[:, -1]


def chain_product(mats):
    """Ordered product mats[0] @ mats[1] @ ... @ mats[-1]."""
    # the reversed view is not contiguous, so the scan copies it and mats
    # is left as it is (a single factor is never written)
    f, carry = _block_scan(mats[::-1])
    return f[-1, -1] @ carry[-1]


def propagate(h_mid, dt, psi0):
    """States (M+1, n) and cumulative propagators (M+1, n, n) of one
    midpoint-exponential step per interval.

    Each step U_k = exp(-i H_k dt) of its midpoint Hamiltonian is unitary
    to rounding.
    """
    props = _prefix_products(_expm_herm(h_mid, dt))
    return _matmul(props, psi0[:, None])[..., 0], props
