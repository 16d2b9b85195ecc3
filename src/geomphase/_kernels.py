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
dimension and, at 2, the stack length. numpy's matmul pays a fixed cost
per matrix that outweighs the arithmetic of an inner dimension <= 2, so
there a product is written with ufuncs: the outer product at 1, and at
2 each entry a[..., i, 0] b[..., 0, j] + a[..., i, 1] b[..., 1, j]. A
long stack forms each entry from same-shape strided views, which numpy
runs without its buffered broadcast iterator; a short stack (at most
256 entries of a, 64 products of 2 x 2 matrices), where the per-call
cost of those four calls an entry outweighs the iterator's, forms all
entries in one broadcast of the columns of a times the rows of b, the
same multiply-then-add bit for bit. Longer inner dimensions take matmul (the 4 x 4 direct sum) and
Grams with a longer core take one vecdot, which conjugates F as it
reads it instead of copying it.

The ordered products (propagated states, alignment gauges, the Wilson
loop) share one log-depth product tree. The upsweep runs in place:
level j+1 overwrites the odd entries of level j with
level_j[2i+1] @ level_j[2i], the later factor on the left, so entry t
ends as the product of the factors t+1-b .. t, b the lowest set bit of
t+1 (a Fenwick tree). A total walks the set bits of M; prefixes and
propagated states come from a downsweep that fills the positions whose
lowest set bit is h from the multiples of 2h, one batched product per
level written straight into the result. That is about 2 log2 M numpy
calls for all M prefixes, where a sequential loop makes M. The gauges
of a single-column loop skip the tree (see align_frames): 1 x 1 factors
commute, so their prefixes are one cumulative product along the stack,
bit for bit the sequential chain, whose rounding grows about linearly
in k eps, as the tree's does (against an extended-precision chain of
2^12 and 2^16 unit phases, at most 0.16 k eps on both).

A time-independent Hamiltonian H = V diag(w) V^H is propagated in
closed form: its states V diag(e^{-i w k dt}) V^H x0 come from one
eigensolve and one product of the (M, n) phases, exact to rounding,
where the tree builds up rounding over its products
(_propagate_constant, which takes H itself and the step count). A
family declared constant hands its one matrix straight to it (see
evolution.evolve); propagate picks the method from the data, taking the
closed form for a stack of midpoint samples that all equal the first
and the tree for any other stack.
"""

import numpy as np

# the most entries of a for which _matmul forms an inner-dimension-2
# stack in one broadcast: 64 products of 2 x 2 matrices
_SHORT_STACK = 256


def _adjoint(m):
    return np.conj(np.swapaxes(m, -1, -2))


def _matmul(a, b, out=None):
    """Stacked product a @ b of (..., m, k) and (..., k, p) stacks, chosen
    by the inner dimension k and, at k = 2, by the stack length.

    At k = 1 the broadcast a * b is the outer product. At k = 2 every
    entry is a[..., i, 0] * b[..., 0, j] + a[..., i, 1] * b[..., 1, j],
    multiplied then added in that order, and formed before any is
    written, so out may alias a or b. A short stack (the same stack
    shape on both sides and at most _SHORT_STACK entries of a) forms all
    entries at once from the columns of a times the rows of b, three or
    four numpy calls where the entry-wise form makes about four per entry;
    any other stack goes entry by entry (_matmul_entries). Other k take
    np.matmul.
    """
    k = a.shape[-1]
    if k == 1:
        return np.multiply(a, b, out=out)
    if k != 2:
        return np.matmul(a, b, out=out)
    if a.size > _SHORT_STACK or a.shape[:-2] != b.shape[:-2]:
        return _matmul_entries(a, b, out)
    r = a[..., :, 0:1] * b[..., 0:1, :]
    r += a[..., :, 1:2] * b[..., 1:2, :]
    if out is None:
        return r
    out[...] = r
    return out


def _matmul_entries(a, b, out=None):
    """_matmul at k = 2, entry by entry: each entry is formed from
    same-shape strided views, which numpy runs without its buffered
    broadcast iterator, and all are formed before out is written."""
    m, p = a.shape[-2], b.shape[-1]
    entries = []
    for i in range(m):
        for j in range(p):
            e = a[..., i, 0] * b[..., 0, j]
            e += a[..., i, 1] * b[..., 1, j]
            entries.append(e)
    if out is None:
        out = np.empty(entries[0].shape + (m, p), entries[0].dtype)
    for i in range(m):
        for j in range(p):
            out[..., i, j] = entries[i * p + j]
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


def _upsweep(f):
    """Turn a stack of M square factors into their product tree, in place.

    Level j+1 overwrites the odd entries of level j with
    level_j[2i+1] @ level_j[2i], the later factor on the left, so f[t]
    ends as factors[t] @ ... @ factors[t+1-b], b the lowest set bit of
    t+1. One batched product per level; returns f.
    """
    m = f.shape[0]
    h = 1
    while 2 * h <= m:
        end = m - m % (2 * h)
        hi = f[2 * h - 1:end:2 * h]
        _matmul(hi, f[h - 1:end:2 * h], out=hi)
        h *= 2
    return f


def _downsweep(tree, x0, out=None):
    """X (M+1, *x0.shape) with X[0] = x0 and X[k+1] = factors[k] @ X[k],
    from the product tree (M, n, n) of the factors; x0 is (n,) or (n, K).

    X[p] = tree[p-1] @ X[p-b] for b the lowest set bit of p, so the
    positions whose lowest set bit is h come from the multiples of 2h:
    one batched product per level, from the highest power of two <= M
    down, written straight into X's strided views. X is out if given, a
    C-contiguous (M+1, *x0.shape) buffer; x0 may be its first row.
    """
    m, n = tree.shape[0], tree.shape[-1]
    if out is None:
        out = np.empty((m + 1,) + x0.shape, np.complex128)
    x = out.reshape((m + 1, n, -1), copy=False)
    x[0] = x0.reshape(n, -1)
    h = (1 << m.bit_length()) >> 1
    while h:
        _matmul(tree[h - 1::2 * h], x[:m + 1 - h:2 * h], out=x[h::2 * h])
        h //= 2
    return out


def _prefix_products(factors):
    """Prefix products P (M+1, n, n) of a stack of M factors:
    P[0] = I exactly and P[k+1] = factors[k] @ P[k].

    Consumes factors: the product tree is built in their buffer.
    """
    return _downsweep(_upsweep(factors), np.eye(factors.shape[-1]))


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
    # sin(x) / x, and its limit 1 at x = 0
    q = phase * np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0)
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
    component cancels; its larger component r + |k0| divides it before
    it is normalized by hypot(1, |k1| / (r + |k0|)); the -r
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
    r = np.hypot(k0, np.abs(k1))
    # the larger component t = r + |k0| >= |k1| divides the other first,
    # so a subnormal |K| cannot overflow the normalization
    t = r + np.abs(k0)
    zero = t == 0
    # real divisions: numpy divides complex by the reciprocal of t
    tt = np.where(zero, 1.0, t)
    q = np.empty(t.shape, np.complex128)
    np.divide(k1.real, tt, out=q.real)
    np.divide(k1.imag, tt, out=q.imag)
    c = 1 / np.hypot(1.0, np.abs(q))
    qc = q * c
    # K = 0: every basis is an eigenbasis, and (x, y) = (0, 1) picks I
    pos = (k0 >= 0) & ~zero
    x = np.where(pos, c, qc)
    y = np.where(pos, np.conj(qc), c)
    w = np.empty(r.shape + (2,))
    w[..., 0] = a - r
    w[..., 1] = a + r
    v = np.empty(hs.shape, np.complex128)
    v[..., 0, 0] = np.conj(y)
    v[..., 1, 0] = -np.conj(x)
    v[..., 0, 1] = x
    v[..., 1, 1] = y
    return w, v


def _phase(z):
    """z / |z| and |z| of a complex array, the phase exactly 1 where z = 0
    and NaN where z is.

    Two real divisions by the modulus: numpy divides a complex array by a
    real one through the divisor's reciprocal, which overflows at a
    subnormal modulus.
    """
    a = np.abs(z)
    nz = a != 0
    u = np.ones(z.shape, np.complex128)
    np.divide(z.real, a, out=u.real, where=nz)
    np.divide(z.imag, a, out=u.imag, where=nz)
    return u, a


def polar_unitary(m):
    """Unitary factor of m = u * sqrt(m^H m), for one matrix or a stack.

    Returns (u, smallest singular value); the caller decides what "too
    singular" means. A 1 x 1 factor is the phase m / |m| (see _phase), one
    modulus shared with the singular value and two real divisions, within
    2 ulp of exp(i arg m); it is exactly 1 at m = 0, so unitary even there,
    and NaN at NaN. A 2 x 2 factor is
    (m + e^{i arg det m} adj(m)^H) / sqrt(|m|_F^2 + 2 |det m|), unitary down
    to rank 1 and zero at m = 0.
    """
    if m.shape[-1] == 1:
        u, a = _phase(m)
        return u, a[..., 0, 0]
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
    give every gauge, and one batched product applies them. A single
    column's gauges are one cumulative product of the overlap phases, bit
    for bit the sequential chain, each then divided by its modulus: a
    phase m / |m| is unit only to about an ulp, and on a nearly uniform
    loop that error repeats, so the product's modulus would drift by about
    M ulp (up to 1.1e-11 at 2^16 steps of the spin cone); divided, the
    aligned columns stay unit to 6e-16. A nearly singular overlap has no
    well-defined polar factor; the path built from the aligned frames
    refuses it (see overlap_smins).
    """
    polars = polar_unitary(_gram(frames[1:], frames[:-1]))[0]
    if polars.shape[-1] == 1:
        gs = _phase(np.multiply.accumulate(polars[:-1]))[0]
    else:
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
    m = mats.shape[0]
    rev = mats[::-1]
    # the first level is the tree's only copy, so mats is never written
    tree = _upsweep(_matmul(rev[1::2], rev[:m - 1:2]))
    out = mats[0].copy() if m % 2 else np.eye(mats.shape[-1], dtype=np.complex128)
    p = tree.shape[0]
    while p:
        out = out @ tree[p - 1]
        p &= p - 1
    return out


def _is_constant(h):
    """True if the stack is not empty and every matrix equals the first,
    entry for entry. The last is compared first, so a time-dependent
    stack is usually told apart without reading the rest."""
    return h.shape[0] > 0 and (h[-1] == h[0]).all() and (h == h[0]).all()


def _propagate_constant(h, m, dt, x0, out=None):
    """propagate for M = m steps of one Hamiltonian h (n, n):
    X[0] = x0 and X[k] = V diag(e^{-i w k dt}) V^H x0, from one
    eigendecomposition h = V diag(w) V^H.

    Row k, flattened, is sum_j e^{-i w_j k dt} V[:, j] (V^H x0)[j], so
    rows 1..M are one product of the (M, n) phases with the n outer
    products, held as the columns of an (n K, n) matrix. V^H x0 is
    formed before out is written, so x0 may be out's first row, and X[0]
    is x0 exactly.
    """
    w, v = eigh_batch(h[None])
    w, v = w[0], v[0]
    n = w.size
    c = _adjoint(v) @ x0.reshape(n, -1)
    b = (v[:, None, :] * c.T).reshape(-1, n)
    # the angles -w_j k dt column by column: a broadcast into the strided
    # real part would run numpy's buffered iterator, a stack of buffers
    ks = np.arange(1.0, m + 1)
    ph = np.empty((m, n), np.complex128)
    for j in range(n):
        np.multiply(ks, -dt * w[j], out=ph.real[:, j])
    del ks
    np.sin(ph.real, out=ph.imag)
    np.cos(ph.real, out=ph.real)
    if out is None:
        out = np.empty((m + 1,) + x0.shape, np.complex128)
    x = out.reshape((m + 1, -1), copy=False)
    x[0] = x0.reshape(-1)
    # einsum runs numpy's own loops; a BLAS product (4096, 4) x (4, 4) on
    # two threads of a shared 2-core VM was seen to take 8 ms, 0.05 ms on
    # one thread
    np.einsum("mj,pj->mp", ph, b, out=x[1:])
    return out


def propagate(h_mid, dt, x0, out=None):
    """States X (M+1, *x0.shape) of a state (n,) or a column block (n, K)
    under one midpoint-exponential step per interval: X[0] = x0 and
    X[k+1] = U_k X[k].

    Each step U_k = exp(-i H_k dt) of its midpoint Hamiltonian is unitary
    to rounding; the identity block gives the cumulative propagators.
    A stack whose samples all equal the first is one Hamiltonian, and
    U_k ... U_0 = exp(-i H (k+1) dt) comes from one eigendecomposition
    (_propagate_constant); any other stack goes through the product tree.
    out, if given, is the C-contiguous buffer the states are written into;
    x0 may be its first row.
    """
    if _is_constant(h_mid):
        return _propagate_constant(h_mid[0], h_mid.shape[0], dt, x0, out)
    return _downsweep(_upsweep(_expm_herm(h_mid, dt)), x0, out)
