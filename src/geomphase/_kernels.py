"""Hot numeric kernels over stacks of small matrices: Hermitian
eigensolves, consecutive frame overlaps, polar factors, frame alignment,
ordered matrix products, midpoint-exponential propagation and the
closed-form propagation of constant and rigidly turning Hamiltonians.

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

A Hamiltonian that turns rigidly, H(t) = R(t) H R(t)^H with
R(t) = e^{-i G t}, has the exact propagator R(t) e^{-i (H - G) t}; a
time-independent one is the case G = 0. Its states are sums of fixed
vectors times e^{-i Omega t} over the frequencies Omega = g_j + w_l of
the spectra g of G and w of H - G (_closed_form, one eigh_batch call
per run), exact to rounding, where the tree builds up rounding over its
products. Each row is evaluated at its absolute time k dt
(_propagate_closed), so a chunk of a run starts from x0, not from the
previous chunk's last row. The unit phases of a chunk (4096 steps) come
from one table (_phase_table): the product of a coarse table at every
64th step and a fine one over 64 steps, so a chunk of m steps evaluates
F (m / 64 + 64) sines and cosines instead of F m. A family declared
constant or rotating hands (H, G) straight to it (see evolution.evolve);
propagate picks the method from the data, taking the closed form for a
stack of midpoint samples that all equal the first and the tree for any
other stack.
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


# steps per row of the coarse table of _phase_table, and per chunk of
# _propagate_closed: one table of 64 x 64 steps
_FINE_STEPS = 64
_CHUNK_STEPS = _FINE_STEPS * _FINE_STEPS


def _closed_form(h, g, x0):
    """The modes of the exact states X(t) = R(t) e^{-i (H - G) t} x0 of
    H(t) = R(t) H R(t)^H, R(t) = e^{-i G t}, with G = 0 if g is None (a
    constant H): frequencies Omega (F,) and vectors B (F, n K) with
    X(t), flattened, = sum_f B[f] e^{-i Omega_f t}.

    With H - G = W diag(w) W^H and G = V diag(g) V^H, the frequencies are
    Omega_jl = g_j + w_l and B_jl = V[:, j] (V^H W)[j, l] (W^H x0)[l], n^2
    of them; at G = 0 they are w_l and W[:, l] (W^H x0)[l], n of them.
    Both eigendecompositions are one eigh_batch call."""
    n = h.shape[-1]
    if g is None:
        (w,), (v,) = eigh_batch(h[None])
        freqs, p = w, v[None]
    else:
        (w, gw), (v, gv) = eigh_batch(np.stack((h - g, g)))
        freqs = (gw[:, None] + w).reshape(-1)
        p = gv.T[:, :, None] * (_adjoint(gv) @ v)[:, None, :]
    c = _adjoint(v) @ x0.reshape(n, -1)
    # [j, i, l, k] = p[j, i, l] c[l, k], rows (j, l), columns (i, k)
    vecs = (p[..., None] * c).transpose(0, 2, 1, 3).reshape(freqs.size, -1)
    return freqs, vecs


def _phase_table(freqs, dt, a, b, out=None):
    """e^{-i Omega_f k dt} for k = a+1 .. b, shape (F, b - a), from a
    coarse table at every _FINE_STEPS-th step, k = a+1 + 64 q, times a
    fine table over the 64 steps after it, r dt for r = 0 .. 63. A table
    of m steps evaluates F (m / 64 + 64) sines and cosines, not F m. It
    is as accurate as e^{-i Omega_f (k dt)} evaluated step by step: the
    rounding of the argument, |Omega k dt| ulps, outweighs the product's
    few. out, if given, is an (F, c) buffer with c >= b - a rounded up
    to a multiple of 64, or c = b - a < 64; the table is a view of it."""
    m = b - a
    coarse = _unit_phases(np.multiply.outer(-freqs, np.arange(a + 1, b + 1, _FINE_STEPS) * dt))
    fine = _unit_phases(np.multiply.outer(-freqs, np.arange(min(m, _FINE_STEPS)) * dt))
    rows, cols = coarse.shape[1], fine.shape[1]
    if out is None:
        out = np.empty((freqs.size, rows * cols), np.complex128)
    table = out[:, :rows * cols].reshape((freqs.size, rows, cols), copy=False)
    np.multiply(coarse[:, :, None], fine[:, None, :], out=table)
    return out[:, :m]


def _unit_phases(angles):
    """e^{i angles}, written as cos and sin into one complex array."""
    out = np.empty(angles.shape, np.complex128)
    np.cos(angles, out=out.real)
    np.sin(angles, out=out.imag)
    return out


def _propagate_closed(modes, dt, m, out):
    """Rows 1 .. m of the states X(k dt) = sum_f B[f] e^{-i Omega_f k dt}
    of the modes (Omega, B) from _closed_form, written once each into
    out, the C-contiguous (m+1, *x0.shape) buffer of a run, in chunks of
    _CHUNK_STEPS steps with one phase table each. Each row comes from x0
    at its absolute time, so no chunk carries another's rounding.

    Column j of a chunk is sum_f table[f] B[f, j], formed by scaled adds
    over the table's contiguous rows in buffers allocated once per run:
    numpy's einsum took twice as long, a fresh table per chunk faulted
    its pages in each time, and a BLAS product (4096, 4) x (4, 4) on two
    threads of a shared 2-core VM was seen to take 8 ms, 0.05 ms on one
    thread. A frequency times the last time that overflows is refused
    with ValueError: its phases would be NaN."""
    freqs, vecs = modes
    with np.errstate(over="ignore"):  # refused below
        last = freqs * (m * dt)
    if not np.all(np.isfinite(last)):
        raise ValueError("closed form: a frequency times the run's duration is not finite")
    x = out.reshape((m + 1, -1), copy=False)
    size = min(m, _CHUNK_STEPS)
    table = np.empty((freqs.size, min(-(-m // _FINE_STEPS) * _FINE_STEPS, _CHUNK_STEPS)),
                     np.complex128)
    work = np.empty((2, size), np.complex128)
    for a in range(0, m, _CHUNK_STEPS):
        b = min(a + _CHUNK_STEPS, m)
        tab = _phase_table(freqs, dt, a, b, table)
        acc, term = work[:, :b - a]
        for j, rows in enumerate(x[a + 1:b + 1].T):
            np.multiply(tab[0], vecs[0, j], out=acc)
            for f in range(1, freqs.size):
                acc += np.multiply(tab[f], vecs[f, j], out=term)
            rows[...] = acc


def propagate(h_mid, dt, x0, out=None):
    """States X (M+1, *x0.shape) of a state (n,) or a column block (n, K)
    under one midpoint-exponential step per interval: X[0] = x0 and
    X[k+1] = U_k X[k].

    Each step U_k = exp(-i H_k dt) of its midpoint Hamiltonian is unitary
    to rounding; the identity block gives the cumulative propagators.
    A stack whose samples all equal the first is one Hamiltonian, and
    U_k ... U_0 = exp(-i H (k+1) dt) comes in closed form from one
    eigendecomposition (_closed_form, _propagate_closed); any other
    stack goes through the product tree. out, if given, is the
    C-contiguous buffer the states are written into; x0 may be its first
    row, and X[0] is x0 exactly.
    """
    m = h_mid.shape[0]
    if not _is_constant(h_mid):
        return _downsweep(_upsweep(_expm_herm(h_mid, dt)), x0, out)
    modes = _closed_form(h_mid[0], None, x0)
    if out is None:
        out = np.empty((m + 1,) + x0.shape, np.complex128)
    out[0] = x0
    _propagate_closed(modes, dt, m, out)
    return out
