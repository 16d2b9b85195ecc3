"""Kernel layer against numpy.linalg and scipy.linalg oracles.
Eigenvector columns are only ever compared through residuals and
eigenprojectors, since a degenerate or phase-free column has no unique
value to compare."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geomphase import (
    RotatingRingBlock,
    SpinHalf,
    StaticRingBlock,
    _kernels,
    assemble_blocks,
    random_unitary_gauge,
)

# Every kernel test runs on the one build, plain numpy. The
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


# Lengths at the edges of the product tree (powers of two and one off
# them) and of blocked schemes (squares and one off), and primes.
EDGE_LENGTHS = sorted(
    {s * s + d for s in range(1, 18) for d in (-1, 0, 1)} - {0}
    | {2 ** j + d for j in range(1, 9) for d in (-1, 0, 1)}
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


def assert_eigh2_matches_lapack(h):
    """The closed-form 2 x 2 eigensolve against numpy.linalg.eigh, relative
    to each matrix's scale: eigenvalues to 1e-13, the eigenprojectors of a
    split pair to 1e-13 over the relative gap, and the residual and
    orthonormality at the bounds of the general test."""
    w, v = _kernels.eigh_batch(h)
    w0, v0 = np.linalg.eigh(h)
    scale = np.max(np.abs(h), axis=(-2, -1))
    assert w.shape == w0.shape and v.shape == v0.shape
    assert np.all(np.diff(w, axis=-1) >= 0)
    assert np.all(np.abs(w - w0) <= 1e-13 * scale[..., None])
    resid = np.max(np.abs(h @ v - v * w[..., None, :]), axis=(-2, -1))
    assert np.all(resid <= 1e-12 * scale)
    assert np.max(np.abs(np.swapaxes(v.conj(), -1, -2) @ v - np.eye(2))) < 1e-13
    gap = w0[..., 1] - w0[..., 0]
    split = gap > 1e-6 * scale
    for j in (0, 1):
        p = v[..., :, j, None] * v[..., None, :, j].conj()
        p0 = v0[..., :, j, None] * v0[..., None, :, j].conj()
        err = np.max(np.abs(p - p0), axis=(-2, -1))
        assert np.all(err[split] <= 1e-13 * scale[split] / gap[split])


def hermitian2(d0, d1, k1):
    h = np.empty(np.shape(k1) + (2, 2), np.complex128)
    h[..., 0, 0], h[..., 1, 1] = d0, d1
    h[..., 0, 1], h[..., 1, 0] = k1, np.conj(k1)
    return h


def test_eigh_2x2_scalar_identity_gives_exact_identity():
    # K = 0: every basis is an eigenbasis, and the closed form returns I
    c = np.array([0.0, -3.5, 8.0, 1e150, 1e-150])
    w, v = _kernels.eigh_batch(hermitian2(c, c, np.zeros(5)))
    assert np.array_equal(w, np.stack([c, c], axis=1))
    assert np.array_equal(v, np.broadcast_to(np.eye(2), v.shape))


@pytest.mark.parametrize("d0, d1, k1", [
    (3.0, 1.0, 0.0),            # k1 = 0, k0 > 0
    (1.0, 3.0, 0.0),            # k1 = 0, k0 < 0
    (2.0, 2.0, 1.0 + 1.0j),     # k0 = 0
    (2.0, 2.0, -0.5j),          # k0 = 0, imaginary corner
    (0.3, -0.7, 1e-9 - 2e-9j),  # corner far below the diagonal split
])
def test_eigh_2x2_axis_cases_match_lapack(d0, d1, k1):
    h = hermitian2(d0, d1, np.array([k1]))
    assert_eigh2_matches_lapack(h)
    if k1 == 0:
        w, v = _kernels.eigh_batch(h)
        assert np.array_equal(w[0], np.sort([d0, d1]))
        assert np.array_equal(np.abs(v[0]), np.abs(np.linalg.eigh(h)[1][0]))


def test_eigh_2x2_offset_like_the_static_ring(rng):
    # the n = 2 static-ring invariant sits at 8 I plus a traceless part of
    # order one, so its eigenvalues carry 8 I's rounding
    m = StaticRingBlock(n=2, cone=math.pi / 6)
    h = m.invariant.sample(np.linspace(0.0, m.invariant.period, 257))
    assert np.allclose(np.trace(h, axis1=1, axis2=2).real, 16.0)
    assert_eigh2_matches_lapack(h)
    assert_eigh2_matches_lapack(8.0 * np.eye(2) + random_hermitian(rng, 2, batch=(64,)))


@pytest.mark.parametrize("scale", [1e150, 1e-150])
def test_eigh_2x2_extreme_scales(scale, rng):
    assert_eigh2_matches_lapack(scale * random_hermitian(rng, 2, batch=(64,)))
    assert_eigh2_matches_lapack(scale * hermitian2(1.0, -1.0, np.array([0.0, 1e-3, 1j])))


@settings(max_examples=300, deadline=None)
@given(
    entries=st.lists(st.tuples(*[st.floats(-1.0, 1.0, allow_subnormal=False)] * 4),
                     min_size=1, max_size=8),
    exponent=st.integers(-150, 150),
)
# a subnormal corner |K| once overflowed the reciprocal of the eigenvector norm
@example(entries=[(1.0, 1.0, 5.95747527424705e-263, 0.0)], exponent=-47)
def test_eigh_2x2_matches_lapack_property(entries, exponent):
    # each matrix normalized to largest real part 1, then scaled by
    # 10^exponent, so its scale is a normal number
    e = np.array(entries)
    peak = np.max(np.abs(e), axis=1)
    e[peak > 0] /= peak[peak > 0, None]
    h = hermitian2(e[:, 0], e[:, 1], e[:, 2] + 1j * e[:, 3])
    assert_eigh2_matches_lapack(h * 10.0 ** exponent)


@pytest.mark.parametrize("k1", [5.96e-263, 5.96e-263j, 1e-270 - 3e-271j, 3e-265])
def test_eigh_2x2_subnormal_corner_gives_finite_eigenvectors(k1):
    # 1e-47 [[1, k1], [k1*, 1]]: the corner is subnormal, so the
    # eigenvector norm is too, and its reciprocal overflowed to inf
    h = 1e-47 * hermitian2(1.0, 1.0, np.array([k1]))
    w, v = _kernels.eigh_batch(h)
    assert np.all(np.isfinite(w)) and np.all(np.isfinite(v))
    assert np.max(np.abs(np.swapaxes(v.conj(), -1, -2) @ v - np.eye(2))) < 1e-13
    assert_eigh2_matches_lapack(h)


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
    # a 1 x 1 factor is m / |m| over magnitudes from subnormal to near
    # overflow: exactly 1 at m = 0, NaN at NaN, and smin is |m| itself
    eps = np.finfo(float).eps
    m = (rng.normal(size=(4096, 1, 1)) + 1j * rng.normal(size=(4096, 1, 1))) \
        * np.exp(rng.uniform(-690.0, 700.0, size=(4096, 1, 1)))
    m[:6, 0, 0] = [0.0, np.nan, complex(1.0, np.nan), complex(np.nan, 0.0),
                   1e-310 + 1e-310j, -5e-324j]
    u, smin = kern.polar_unitary(m)
    assert u.shape == m.shape and u.dtype == np.complex128
    assert np.array_equal(smin, np.abs(m[:, 0, 0]), equal_nan=True)
    assert u[0, 0, 0] == 1.0 and smin[0] == 0.0
    assert np.all(np.isnan(u[1:4].real)) and np.all(np.isnan(u[1:4].imag))
    # a subnormal m has only its own few digits, but a finite unit phase
    assert u[5, 0, 0] == -1j
    assert abs(u[4, 0, 0] - (1 + 1j) / math.sqrt(2)) < 1e-13
    u, m = u[6:, 0, 0], m[6:, 0, 0]
    # each part within 2 ulp of 1 of exp(i arg m), and |u| within 2 ulp
    # of 1 (both reach 2 ulp in ten million such draws)
    want = np.exp(1j * np.angle(m))
    assert np.max(np.abs(u.real - want.real)) <= 2 * eps
    assert np.max(np.abs(u.imag - want.imag)) <= 2 * eps
    assert np.max(np.abs(np.abs(u) - 1)) <= 2 * eps


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
def test_chain_product_matches_reduce(m, n, unitary, seed):
    rng = np.random.default_rng(seed)
    if unitary:
        mats = random_unitary(rng, n, batch=(m,))
    else:
        mats = (rng.normal(size=(m, n, n))
                + 1j * rng.normal(size=(m, n, n))) / math.sqrt(n)
    # the overlaps of a path are read-only, and the product leaves them be
    kept = mats.copy()
    mats.flags.writeable = False
    want = functools.reduce(np.matmul, kept)
    got = _kernels.chain_product(mats)
    assert np.array_equal(mats, kept)
    assert got.shape == (n, n)
    if unitary:
        assert np.max(np.abs(got - want)) <= 1e-12
    else:
        # the bound of test_prefix_products_match_sequential_loop
        err = np.linalg.norm(got - want)
        assert err <= 16 * m * np.finfo(float).eps * np.linalg.norm(want)


@settings(max_examples=200, deadline=None)
@given(
    m=st.one_of(st.sampled_from(EDGE_LENGTHS), st.integers(1, 300)),
    n=st.sampled_from([1, 2, 3]),
    cols=st.sampled_from(["one", "two", "all"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_propagate_column_block_matches_sequential_chain(m, n, cols, seed):
    rng = np.random.default_rng(seed)
    k = {"one": 1, "two": min(2, n), "all": n}[cols]
    h_mid = random_hermitian(rng, n, batch=(m,))
    dt = 0.3
    x0 = random_unitary(rng, n)[:, :k]
    units = _kernels._expm_herm(h_mid, dt)
    want = [x0]
    for u in units:
        want.append(u @ want[-1])
    got = _kernels.propagate(h_mid, dt, x0)
    assert got.shape == (m + 1, n, k)
    assert np.array_equal(got[0], x0)
    assert np.max(np.abs(got - np.stack(want))) <= 1e-13
    # a state is the block's single column
    state = _kernels.propagate(h_mid, dt, x0[:, 0])
    assert state.shape == (m + 1, n)
    assert np.max(np.abs(state - np.stack(want)[..., 0])) <= 1e-13


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
    # the tree consumes its factors, so the oracle reads them first
    want = sequential_prefix(factors)
    got = _kernels._prefix_products(factors)
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


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def assert_product_close(got, want, a, b):
    # each entry sums k products, each rounded to a few eps of |a| |b|
    k = a.shape[-1]
    tol = 4 * k * np.finfo(float).eps * np.max(np.abs(a)) * np.max(np.abs(b))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= tol


@pytest.mark.parametrize("a_shape, b_shape", [
    ((40, 3, 1), (40, 1, 4)),      # inner dimension 1: the outer product
    ((40, 4, 2), (40, 2, 3)),      # inner dimension 2: the broadcast sum
    ((40, 2, 3), (40, 3, 2)),      # inner dimension 3: np.matmul
    ((6, 7, 2, 2), (6, 1, 2, 2)),  # broadcast batch dimensions
    ((40, 2, 2), (2, 1)),          # a stack times one column
    ((2, 2), (40, 2, 2)),          # one matrix times a stack
    ((40, 1, 2), (40, 2, 1)),      # the Gram of one-column frames
    ((40, 2, 2), (40, 2, 1)),      # a state step, and a two-column Gram
])
def test_matmul_matches_numpy(a_shape, b_shape, rng):
    a, b = random_complex(rng, a_shape), random_complex(rng, b_shape)
    want = np.matmul(a, b)
    assert_product_close(_kernels._matmul(a, b), want, a, b)
    out = np.empty(want.shape, np.complex128)
    assert _kernels._matmul(a, b, out=out) is out
    assert_product_close(out, want, a, b)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_matmul_out_may_alias_either_operand(k, rng):
    # an in-place product: f[:, j] @ f[:, j-1] written over f[:, j]
    f = random_complex(rng, (9, 4, k, k))
    a, b = f[:, 2].copy(), f[:, 1].copy()
    _kernels._matmul(f[:, 2], f[:, 1], out=f[:, 2])
    assert_product_close(f[:, 2], a @ b, a, b)
    _kernels._matmul(f[:, 0], f[:, 1], out=f[:, 1])
    assert_product_close(f[:, 1], f[:, 0] @ b, f[:, 0], b)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_matmul_out_may_alias_a_strided_operand(k, rng):
    # the tree's level step: the odd entries times the even ones, written
    # over the odd ones; then the even entries times the odd ones, written
    # over the odd ones
    f = random_complex(rng, (10, k, k))
    odd, even = f[1::2].copy(), f[::2].copy()
    _kernels._matmul(f[1::2], f[::2], out=f[1::2])
    assert_product_close(f[1::2], odd @ even, odd, even)
    assert np.array_equal(f[::2], even)
    odd = f[1::2].copy()
    _kernels._matmul(f[::2], f[1::2], out=f[1::2])
    assert_product_close(f[1::2], even @ odd, even, odd)
    # a transposed view written over itself
    g = random_complex(rng, (7, k, k))
    gt = np.swapaxes(g, -1, -2)
    before = gt.copy()
    _kernels._matmul(gt, gt, out=gt)
    assert_product_close(gt, before @ before, before, before)


@pytest.mark.parametrize("stack", [(), (0,), (1,), (2,), (63,), (64,), (65,), (130,)])
@pytest.mark.parametrize("m, p", [(2, 2), (2, 1), (1, 2)])
def test_matmul_short_stack_is_bitwise_the_entrywise_form(stack, m, p, rng):
    # a short stack forms every entry with the multiply-then-add of the
    # entry-wise form, so the two agree to the last bit, signed zeros
    # included; the lengths straddle 64 and 128 products, where a reaches
    # _SHORT_STACK entries, and () is a single matrix
    a = random_complex(rng, stack + (m, 2))
    b = random_complex(rng, stack + (2, p))
    want = _kernels._matmul_entries(a, b)
    assert _kernels._matmul(a, b).tobytes() == want.tobytes()
    # out aliasing whichever operand has the result's shape
    if a.shape == want.shape:
        x = a.copy()
        assert _kernels._matmul(x, b, out=x).tobytes() == want.tobytes()
    if b.shape == want.shape:
        y = b.copy()
        assert _kernels._matmul(a, y, out=y).tobytes() == want.tobytes()


def test_matmul_broadcast_takes_the_entrywise_path(rng, monkeypatch):
    # the short form's size test counts the entries of a only, so a
    # broadcast stack, whose length a does not show, goes entry by entry
    calls = []
    entries = _kernels._matmul_entries

    def spy(a, b, out=None):
        calls.append((a.shape, b.shape))
        return entries(a, b, out)

    monkeypatch.setattr(_kernels, "_matmul_entries", spy)
    a, b = random_complex(rng, (2, 2)), random_complex(rng, (40, 2, 2))
    got = _kernels._matmul(a, b)
    assert calls == [((2, 2), (40, 2, 2))]
    assert got.tobytes() == entries(a, b).tobytes()
    assert_product_close(got, a @ b, a, b)
    calls.clear()
    _kernels._matmul(b[:3], b[3:6])
    assert calls == []


@pytest.mark.parametrize("core", [1, 2, 3])
@pytest.mark.parametrize("k, el", [(1, 1), (2, 2), (1, 2)])
def test_gram_matches_per_matrix_products(core, k, el, rng):
    f, g = random_complex(rng, (30, core, k)), random_complex(rng, (30, core, el))
    got = _kernels._gram(f, g)
    want = np.stack([fi.conj().T @ gi for fi, gi in zip(f, g)])
    assert_product_close(got, want, np.swapaxes(f, -1, -2), g)


def test_propagate_peak_memory_stays_below_three_stacks():
    # the product tree is built in the step buffer and the downsweep
    # writes straight into the states, so propagate never holds more than
    # the steps, the result and the step exponential's scalar temporaries
    # (2.5 (M+1, 2, 2) stacks); a copy of the steps would make it three
    m = 2**14
    ring = RotatingRingBlock(n=0, eps=0.5, chi=math.pi / 3)
    dt = ring.period / m
    h_mid = ring.hamiltonian.sample((np.arange(m) + 0.5) * dt)
    psi0 = ring.state("+")
    stack = (m + 1) * 4 * np.dtype(np.complex128).itemsize
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        _kernels.propagate(h_mid, dt, psi0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2.75 * stack


@on_build
def test_propagate_constant_hamiltonian_exact(kern, rng):
    h = random_hermitian(rng, 3)
    steps, dt = 64, 0.05
    psi0 = rng.normal(size=3) + 1j * rng.normal(size=3)
    psi0 = np.ascontiguousarray(psi0 / np.linalg.norm(psi0))
    mids = np.ascontiguousarray(np.broadcast_to(h, (steps, 3, 3)))
    states = kern.propagate(mids, dt, psi0)
    props = kern.propagate(mids, dt, np.eye(3))
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
    aligned = kern.align_frames(np.ascontiguousarray(frames))
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
        overlaps, smins = kern.overlap_smins(np.ascontiguousarray(frames))
        assert overlaps.shape == (4, k, k)
        assert smins.shape == (4,)
        for i in range(4):
            o = frames[i].conj().T @ frames[i + 1]
            assert np.max(np.abs(overlaps[i] - o)) < 1e-15
            assert abs(smins[i] - np.linalg.svd(o, compute_uv=False)[-1]) < 1e-12


def test_align_frames_gauges_match_sequential_chain():
    # a rotating-ring pair embedded in four dimensions under a random
    # closed U(2) gauge, over 4096 steps
    rng = np.random.default_rng(7)
    m = RotatingRingBlock(n=1, eps=0.3, chi=math.pi / 6)
    t = np.linspace(0.0, m.period, 4097)
    iso = random_unitary(rng, 4)[:, :2]
    frames = iso @ m.frame_batch(t) @ random_unitary_gauge(rng, t.size, 2)
    aligned = _kernels.align_frames(frames)
    polars = _kernels.polar_unitary(np.swapaxes(frames[1:].conj(), 1, 2) @ frames[:-1])[0]
    gs = sequential_prefix(polars[:-1])[1:]
    assert np.max(np.abs(aligned[1:-1] - frames[1:-1] @ gs)) < 1e-13
    assert np.array_equal(aligned[0], frames[0])
    assert np.array_equal(aligned[-1], frames[-1])


@pytest.mark.parametrize("theta", [math.pi / 6, 0.7], ids=["pi/6", "0.7"])
@pytest.mark.parametrize("col", [0, 1])
def test_align_frames_single_column_gauges_match_sequential_chain(theta, col):
    # raw eigensolver columns of the spin cone over 2^16 steps; the gauges
    # are the phases of the sequential chain of the same 1 x 1 polar
    # factors, chained in extended precision. Unnormalized, the chain's
    # modulus drifts with the step count: 8.1e-12 at theta = 0.7
    fam = SpinHalf(theta=theta).invariant
    t = np.linspace(0.0, fam.period, 2**16 + 1)
    frames = np.ascontiguousarray(_kernels.eigh_batch(fam.sample(t))[1][:, :, col:col + 1])
    frames[-1] = frames[0]
    aligned = _kernels.align_frames(frames)
    polars = _kernels.polar_unitary(np.swapaxes(frames[1:].conj(), 1, 2) @ frames[:-1])[0]
    chain = np.cumprod(polars[:-1, 0, 0].astype(np.clongdouble))
    gs = (chain / np.abs(chain))[:, None, None]
    assert np.max(np.abs(aligned[1:-1] - frames[1:-1] * gs)) < 1e-13
    assert np.array_equal(aligned[0], frames[0])
    assert np.array_equal(aligned[-1], frames[-1])
    # interior overlaps are real positive, and the columns stay unit
    o = np.sum(aligned[:-2, :, 0].conj() * aligned[1:-1, :, 0], axis=1)
    assert np.max(np.abs(np.angle(o))) <= 1e-15
    assert np.max(np.abs(np.linalg.norm(aligned[:, :, 0], axis=1) - 1)) <= 1e-15


def test_propagate_matches_extended_precision_chain():
    # the slow rotating pair at drive ratio 1e-3 over one turn; the
    # kernel's own step unitaries chained one at a time in extended
    # precision, so this checks the product tree and nothing else
    probe = RotatingRingBlock(n=0, omega_o=1.0)
    b = RotatingRingBlock(n=0, omega_o=1e-3 * probe.omega_ns)
    steps = 2**15
    dt = b.period / steps
    h_mid = b.hamiltonian.sample((np.arange(steps) + 0.5) * dt)
    units = _kernels._expm_herm(h_mid, dt).astype(np.clongdouble)
    psi0 = b.state("+")
    states = _kernels.propagate(h_mid, dt, psi0)
    psi = psi0.astype(np.clongdouble)
    want = [psi]
    for u in units:
        psi = u @ psi
        want.append(psi)
    assert np.max(np.abs(states - np.stack(want))) <= 1e-12


def taylor_expm(a, terms=60):
    """exp(a) for a stack of small matrices by its Taylor series in
    extended precision; for |a| <= 4 the dropped terms are below 1e-19."""
    a = np.asarray(a, np.clongdouble)
    term = np.broadcast_to(np.eye(a.shape[-1], dtype=np.clongdouble), a.shape)
    out = term.copy()
    for k in range(1, terms):
        term = term @ a / k
        out = out + term
    return out


@settings(max_examples=200, deadline=None)
@given(
    scale=st.sampled_from([1.0, 1e-3, 1e-9, 1e-13, 0.0]),
    shift=st.floats(-2.0, 2.0),
    s=st.floats(-1.5, 1.5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_step_exponential_matches_extended_precision(scale, shift, s, seed):
    # H = shift I + scale K with |K| <= 1, down to |K| s -> 0 and K = 0
    rng = np.random.default_rng(seed)
    k = random_hermitian(rng, 2, batch=(16,))
    k -= np.trace(k, axis1=1, axis2=2)[:, None, None] / 2 * np.eye(2)
    k /= np.linalg.norm(k, axis=(1, 2), ord=2)[:, None, None]
    h = shift * np.eye(2) + scale * k
    got = _kernels._expm_herm(h, s)
    want = taylor_expm(-1j * s * h.astype(np.clongdouble))
    # measured at most 5.3e-16; the eigh-built step reaches 3.2e-15
    assert np.max(np.abs(got - want)) <= 2e-15
    assert np.max(np.abs(np.swapaxes(got.conj(), 1, 2) @ got - np.eye(2))) <= 2e-15
    for i in range(0, 16, 5):
        assert np.max(np.abs(got[i] - scipy.linalg.expm(-1j * s * h[i]))) <= 1e-14


@pytest.mark.parametrize("n", [2, 3])
def test_step_exponential_matches_scipy_expm(n, rng):
    # random Hermitian stacks, with a K = 0 sample and |K| s at and next to
    # multiples of pi, where sin(|K| s) / (|K| s) passes through zero
    s = 0.9
    h = random_hermitian(rng, n, batch=(64,))
    if n == 2:
        k = h - np.trace(h, axis1=1, axis2=2)[:, None, None] / 2 * np.eye(2)
        h -= k
        norms = np.linalg.norm(k, axis=(1, 2), ord=2)
        targets = [j * math.pi + d for j in (1, 2, 3) for d in (0.0, 1e-12, -1e-8, 1e-3)]
        x = np.concatenate(([0.0], targets, rng.uniform(0.0, 4.0, 64 - 1 - len(targets))))
        h += k * (x / (norms * s))[:, None, None]
    got = _kernels._expm_herm(h, s)
    want = scipy.linalg.expm(-1j * s * h)
    # measured at most 2.5e-15 over five seeds
    assert np.max(np.abs(got - want)) <= 1e-14


def test_propagate_constant_two_level_hamiltonian_exact(rng):
    # the 2 x 2 closed-form steps chained against exp(-i H k dt)
    h = random_hermitian(rng, 2)
    steps, dt = 64, 0.05
    psi0 = np.array([0.6, 0.8j])
    h_mid = np.broadcast_to(h, (steps, 2, 2))
    states = _kernels.propagate(h_mid, dt, psi0)
    props = _kernels.propagate(h_mid, dt, np.eye(2))
    for k in (1, steps // 2, steps):
        exact = scipy.linalg.expm(-1j * h * k * dt)
        assert np.max(np.abs(props[k] - exact)) < 1e-13
        assert np.max(np.abs(states[k] - exact @ psi0)) < 1e-13
    assert np.array_equal(props[0], np.eye(2))


def _constant_hamiltonian(case):
    # random n = 2, 3 and the 4 x 4 direct sum of two static ring blocks
    if case == "direct-sum":
        fam = assemble_blocks([StaticRingBlock(n=n).hamiltonian for n in (0, 1)])
        return fam.sample(np.zeros(1))[0]
    return random_hermitian(np.random.default_rng(7), {"n2": 2, "n3": 3}[case])


def _expm_states(h, dt, x0, m):
    # exp(-i H k dt) x0 for k = 0..m, each step's exponential on its own
    units = scipy.linalg.expm(-1j * dt * np.arange(m + 1)[:, None, None] * h)
    return units @ x0


@pytest.mark.parametrize("cols", [None, 2], ids=["state", "block"])
@pytest.mark.parametrize("case", ["n2", "n3", "direct-sum"])
def test_propagate_constant_matches_expm(case, cols):
    # a stack of one repeated sample takes the closed form, exact to
    # rounding against exp(-i H t_k) at every grid time
    h = _constant_hamiltonian(case)
    n, m = h.shape[0], 500
    dt = 2 * math.pi / m
    x0 = random_unitary(np.random.default_rng(3), n)
    x0 = np.ascontiguousarray(x0[:, 0] if cols is None else x0[:, :cols])
    h_mid = np.ascontiguousarray(np.broadcast_to(h, (m, n, n)))
    got = _kernels.propagate(h_mid, dt, x0)
    assert got.shape == (m + 1,) + x0.shape
    assert np.array_equal(got[0], x0)
    assert np.max(np.abs(got - _expm_states(h, dt, x0, m))) <= 1e-13


@pytest.mark.parametrize("case", ["n2", "direct-sum"])
def test_propagate_constant_first_row_may_be_x0(case):
    # evolve's chunks start from the last state of the chunk before, a
    # view of the first row they write: that row must stay x0 exactly
    h = _constant_hamiltonian(case)
    n, m, dt = h.shape[0], 300, 0.02
    x0 = random_unitary(np.random.default_rng(5), n)[:, 0]
    buf = np.empty((m + 1, n), np.complex128)
    buf[0] = x0
    h_mid = np.ascontiguousarray(np.broadcast_to(h, (m, n, n)))
    got = _kernels.propagate(h_mid, dt, buf[0], out=buf)
    assert got is buf
    assert np.array_equal(buf[0], x0)
    assert np.max(np.abs(buf - _expm_states(h, dt, x0, m))) <= 1e-13


@pytest.mark.parametrize("where", [0, 150, -1], ids=["first", "middle", "last"])
@pytest.mark.parametrize("n", [2, 3])
def test_propagate_one_ulp_off_constant_takes_the_tree(n, where):
    # one sample one ulp away from the rest is a time-dependent stack:
    # the product tree, bit for bit, and the sequential chain to 1e-13
    rng = np.random.default_rng(11)
    m, dt = 300, 0.3
    h_mid = np.ascontiguousarray(np.broadcast_to(random_hermitian(rng, n), (m, n, n)))
    h_mid[where, 0, 0] = np.nextafter(h_mid[where, 0, 0].real, np.inf)
    assert not _kernels._is_constant(h_mid)
    x0 = random_unitary(rng, n)[:, :1]
    got = _kernels.propagate(h_mid, dt, x0)
    tree = _kernels._downsweep(_kernels._upsweep(_kernels._expm_herm(h_mid, dt)), x0)
    assert np.array_equal(got, tree)
    want = [x0]
    for u in _kernels._expm_herm(h_mid, dt):
        want.append(u @ want[-1])
    assert np.max(np.abs(got - np.stack(want))) <= 1e-13


@pytest.mark.parametrize("a,b", [(0, 4096), (0, 100), (0, 64), (0, 1), (0, 63),
                                 (12288, 12488), (4095, 4096)])
def test_phase_table_matches_direct_evaluation(a, b):
    # rows k = a+1 .. b: the first row, the 63rd/64th-step boundary of the
    # coarse table, a count that is not a multiple of 64, a single step
    # and the last row, at |Omega t| up to 1e4
    freqs = np.array([1.0, -3.3, 7.1, 0.0, 0.37])
    dt = 1e4 / (b * 7.1)
    eps = np.finfo(float).eps
    got = _kernels._phase_table(freqs, dt, a, b)
    assert got.shape == (5, b - a)
    angles = np.multiply.outer(-freqs, np.arange(a + 1, b + 1) * dt)
    direct = np.cos(angles) + 1j * np.sin(angles)
    bound = eps * (1.0 + np.abs(angles))
    assert np.max(np.abs(angles)) >= 1e4 * (1 - 1e-12)
    assert np.all(np.abs(got - direct) <= 4 * bound)
    assert np.array_equal(got[:, 0], direct[:, 0]) and np.array_equal(got[3], np.ones(b - a))
    if np.finfo(np.longdouble).eps < eps:
        # both miss the extended-precision phase by the argument's rounding
        ext = np.multiply.outer(-freqs.astype(np.longdouble),
                                np.arange(a + 1, b + 1).astype(np.longdouble) * np.longdouble(dt))
        exact = np.cos(ext) + 1j * np.sin(ext)
        assert np.all(np.abs(got - exact) <= 2 * bound)
        assert np.all(np.abs(direct - exact) <= 2 * bound)


def test_propagate_empty_stack_gives_x0():
    x0 = np.array([0.6, 0.8j])
    got = _kernels.propagate(np.empty((0, 2, 2), np.complex128), 0.1, x0)
    assert got.shape == (1, 2) and np.array_equal(got[0], x0)


def test_propagate_constant_peak_memory():
    # the closed form holds the (M, n) phases and the states, and forms
    # its angles column by column; a broadcast into the phases' strided
    # real part read 2.27 stacks, the whole exp(-1j * angles) 3.26
    m = 2**14
    ring = StaticRingBlock(n=0)
    dt = ring.period / m
    h_mid = ring.hamiltonian.sample((np.arange(m) + 0.5) * dt)
    psi0 = ring.state("+")
    stack = (m + 1) * psi0.size * np.dtype(np.complex128).itemsize
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        _kernels.propagate(h_mid, dt, psi0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * stack


@st.composite
def _two_by_two(draw):
    # M = W diag(1, s2) V^H scaled: singular values nearly equal, far apart,
    # near rank 1, or a near-identity overlap I + eps X
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["equal", "spread", "rank", "identity"]))
    if kind == "identity":
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        return np.eye(2) + draw(st.sampled_from([0.0, 1e-12, 1e-6, 1e-2])) * x
    s2 = {"equal": 1 - draw(st.sampled_from([0.0, 1e-15, 1e-12, 1e-8, 1e-4])),
          "spread": draw(st.floats(1e-3, 1.0)),
          "rank": draw(st.sampled_from([1e-4, 1e-6, 1e-8]))}[kind]
    scale = draw(st.floats(0.1, 10.0))
    w, v = random_unitary(rng, 2), random_unitary(rng, 2)
    return scale * (w * np.array([1.0, s2])) @ v.conj().T


@settings(max_examples=300, deadline=None)
@given(m=_two_by_two())
def test_polar_unitary_2x2_matches_svd_and_scipy(m):
    u, smin = _kernels.polar_unitary(m)
    w, s, vh = np.linalg.svd(m)
    # the complex polar factor is conditioned by 1 / s_min
    tol = 1e-15 * (8 + s[0] / s[-1])
    assert np.max(np.abs(u - w @ vh)) <= tol
    assert np.max(np.abs(u - scipy.linalg.polar(m)[0])) <= tol
    assert np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 1e-15 * 8
    # both compute s_min to within rounding of the largest singular value
    assert abs(smin - s[-1]) <= 4e-16 * s[0] + 1e-14 * s[-1]
    stack_u, stack_smin = _kernels.polar_unitary(np.stack([m, m.conj()]))
    assert np.max(np.abs(stack_u[0] - u)) <= 1e-15 * 8
    assert np.max(np.abs(stack_u[1] - u.conj())) <= 1e-15 * 8
    assert abs(stack_smin[1] - smin) <= 4e-16 * s[0]
    assert _kernels.overlap_smins(np.stack([np.eye(2), m]))[1][0] == stack_smin[0]
