"""Dense-matrix layer against closed-form and numpy.linalg oracles."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from geomphase import (
    BranchCutError,
    HermiticityError,
    RankDeficiencyError,
    RotatingRingBlock,
    SkewHermiticityError,
    UnitarityError,
    circular_distance,
    evolve,
    gauge_transform,
    group_degenerate,
    matrix_log_unitary,
    mod_2pi,
    polar_unitary,
    sample_frames,
    unitary_eigenphases,
    unitary_exp,
)
from geomphase.linalg import (
    CLUSTER_REL_TOL,
    _first_structure_break,
    _log_unitary2,
    _log_unitary_eig,
    require_hermitian,
    require_unitary,
)


def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def test_mod_2pi_range(rng):
    # the subnormal negatives are the boundary trap: naive np.mod rounds
    # them up to exactly 2*pi
    edge = [0.0, -0.0, 1e-300, -1e-300, -1e-16, 2 * math.pi, -2 * math.pi,
            6.283185307179586, -6.283185307179586]
    for x in list(rng.uniform(-50.0, 50.0, size=200)) + edge:
        y = mod_2pi(x)
        assert 0.0 <= y < 2 * math.pi, x
        assert abs(math.remainder(y - x, 2 * math.pi)) < 1e-9


def test_circular_distance_properties(rng):
    for a, b in rng.uniform(-20.0, 20.0, size=(200, 2)):
        d = circular_distance(a, b)
        assert 0.0 <= d <= math.pi + 1e-12
        assert abs(d - circular_distance(b, a)) < 1e-12
        assert circular_distance(a, a + 2 * math.pi) < 1e-9


def test_group_degenerate():
    w = np.array([1.0, 1.0 + 1e-12, 2.0, 3.0, 3.0, 3.0])
    groups = group_degenerate(w)
    assert groups == [slice(0, 2), slice(2, 3), slice(3, 6)]


def _sizes(w):
    return [g.stop - g.start for g in group_degenerate(w)]


@st.composite
def _spectra(draw):
    # rows pinned at max|w| = top, built downward from gaps that are
    # wide, exactly zero, or a relative 1e-6 below or above the fixed
    # cluster cut CLUSTER_REL_TOL * max(1, top), which top on either side
    # of 1 moves; later rows copy row 0's gap kinds except for a few
    # drawn changes. Negated and reversed, a stack keeps its gaps and has
    # its largest |w| at the first entry of each row.
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 6))
    top = draw(st.floats(0.25, 1e3))
    kinds = ("wide", "zero", "below", "above")
    base = draw(st.lists(st.sampled_from(kinds), min_size=n - 1, max_size=n - 1))
    rows = [list(base) for _ in range(m)]
    for _ in range(draw(st.integers(0, 2)) if n > 1 else 0):
        rows[draw(st.integers(0, m - 1))][draw(st.integers(0, n - 2))] = \
            draw(st.sampled_from(kinds))
    cut = CLUSTER_REL_TOL * max(1.0, top)
    width = {"zero": 0.0, "below": cut * (1 - 1e-6), "above": cut * (1 + 1e-6)}
    ws = np.empty((m, n))
    for r, row in enumerate(rows):
        ws[r, -1] = top
        for i in range(n - 2, -1, -1):
            kind = row[i]
            gap = (draw(st.floats(0.01, 0.4)) * top / n if kind == "wide"
                   else width[kind])
            ws[r, i] = ws[r, i + 1] - gap
    if draw(st.booleans()):
        ws = -ws[:, ::-1]
    return ws


@settings(max_examples=300, deadline=None)
@given(_spectra())
def test_first_structure_break_matches_group_degenerate(ws):
    sizes0 = _sizes(ws[0])
    want = next((k for k in range(ws.shape[0]) if _sizes(ws[k]) != sizes0), None)
    assert _first_structure_break(ws) == want


def test_unitary_exp_taylor_oracle(rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    # small enough that the dropped fifth-order term is < 1e-11
    a = 3e-3 * (a - a.conj().T) / 2
    u = unitary_exp(a)
    series = np.eye(3) + a + a @ a / 2 + a @ a @ a / 6 + a @ a @ a @ a / 24
    assert np.max(np.abs(u - series)) < 1e-10
    assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-13


def test_unitary_exp_rejects_non_skew():
    with pytest.raises(SkewHermiticityError):
        unitary_exp(np.eye(2, dtype=complex))


def test_unitary_exp_stack_matches_single_and_scipy(rng):
    for shape in ((7, 2, 2), (3, 4, 3, 3)):
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        a = 1.5 * (a - np.conj(np.swapaxes(a, -1, -2))) / 2
        u = unitary_exp(a)
        assert u.shape == shape
        for idx in np.ndindex(*shape[:-2]):
            assert np.max(np.abs(u[idx] - unitary_exp(a[idx]))) <= 1e-13
            assert np.max(np.abs(u[idx] - scipy.linalg.expm(a[idx]))) <= 1e-13


def test_unitary_exp_stack_refused_by_one_bad_matrix(rng):
    a = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
    a = (a - np.conj(np.swapaxes(a, -1, -2))) / 2
    a[3] += 1e-6 * np.eye(2)
    with pytest.raises(SkewHermiticityError):
        unitary_exp(a)


@pytest.mark.parametrize("shape", [(3, 3), (2, 2), (9, 2, 2), (4, 5, 3, 3)])
def test_unitary_exp_skew_defect_is_max_abs_a_plus_a_adjoint(shape, rng):
    # the defect is read as the Hermiticity defect of -i A; it must be
    # max |A + A^H| to the last bit, which the tolerance pins from both
    # sides, and the message must print that value
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    a = (a - np.conj(np.swapaxes(a, -1, -2))) / 2
    a[..., 1, 0] += 3e-7 - 2e-7j
    a[..., 0, 0] += 1e-7
    want = np.max(np.abs(a + np.conj(np.swapaxes(a, -1, -2))))
    unitary_exp(a, tol=want)
    with pytest.raises(SkewHermiticityError) as err:
        unitary_exp(a, tol=np.nextafter(want, 0.0))
    assert str(err.value) == (
        f"matrix is not skew-Hermitian: max |A + A^H| = {want:.3e} > "
        f"{np.nextafter(want, 0.0):.1e}"
    )
    a[(0,) * (len(shape) - 2) + (0, 1)] = np.nan
    with pytest.raises(SkewHermiticityError, match="nan"):
        unitary_exp(a)


def test_unitary_eigenphases_recovers_diagonal(rng):
    phases = np.array([-2.5, -0.3, 0.1, 1.9])
    g = random_unitary(rng, 4)
    u = g @ np.diag(np.exp(1j * phases)) @ g.conj().T
    got = unitary_eigenphases(u)
    assert np.max(np.abs(np.sort(got) - phases)) < 1e-12


def test_unitary_eigenphases_match_numpy_eigvals(rng):
    for n in (1, 2, 3, 5, 8):
        for _ in range(10):
            u = random_unitary(rng, n)
            got = unitary_eigenphases(u)
            want = np.sort(np.angle(np.linalg.eigvals(u)))
            assert np.max(np.abs(got - want)) < 1e-13
            assert np.all(np.diff(got) >= 0)
            assert np.all((got > -math.pi) & (got <= math.pi))


def test_matrix_log_roundtrip(rng):
    for n in (2, 3, 5):
        u = random_unitary(rng, n)
        a = matrix_log_unitary(u)
        assert np.max(np.abs(a + a.conj().T)) < 1e-13
        assert np.max(np.abs(unitary_exp(a) - u)) < 1e-12


def test_matrix_log_hard_pairs(rng):
    # phase pairs closing quadratically in cos: the two-stage split must
    # keep the round-trip at machine precision
    for gap in (1e-3, 1e-5, 1e-7):
        for base in (0.0, math.pi / 2, 3.0):
            phases = np.array([base, base + gap, -1.2])
            g = random_unitary(rng, 3)
            u = g @ np.diag(np.exp(1j * phases)) @ g.conj().T
            a = matrix_log_unitary(u)
            assert np.max(np.abs(unitary_exp(a) - u)) < 5e-13


@settings(max_examples=80, deadline=None)
@given(
    base=st.sampled_from([0.0, math.pi / 2, 3.0, math.pi - 1e-9]),
    gap=st.one_of(st.just(0.0), st.floats(min_value=1e-15, max_value=1e-3)),
    other=st.floats(min_value=-3.1, max_value=3.1),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_matrix_log_near_degenerate_property(base, gap, other, seed):
    # a near-degenerate phase pair in a random basis, next to one free
    # phase; the pair at pi - 1e-9 sits inside the branch-cut margin, so
    # matrix_log_unitary refuses it and its log is taken by the eigensolve
    # path without the refusal
    phases = np.array([base, base - gap, other])
    g = random_unitary(np.random.default_rng(seed), 3)
    u = g @ np.diag(np.exp(1j * phases)) @ g.conj().T
    at_cut = base > 3.1
    if at_cut:
        with pytest.raises(BranchCutError):
            matrix_log_unitary(u)
    a = _log_unitary_eig(u)[1] if at_cut else matrix_log_unitary(u)
    assert np.max(np.abs(a + a.conj().T)) < 1e-13
    assert np.max(np.abs(unitary_exp(a) - u)) <= 5e-13
    assert np.max(np.abs(a - scipy.linalg.logm(u))) < 1e-12


@settings(max_examples=120, deadline=None)
@given(
    base=st.sampled_from([0.0, math.pi / 2, 3.0, math.pi - 1e-9]),
    gap=st.one_of(st.just(0.0), st.floats(min_value=1e-15, max_value=1e-3)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_matrix_log_2x2_near_degenerate_property(base, gap, seed):
    # the 2 x 2 closed form on a near-degenerate pair in a random basis,
    # against scipy and the eigensolve path
    phases = np.array([base, base - gap])
    g = random_unitary(np.random.default_rng(seed), 2)
    u = g @ np.diag(np.exp(1j * phases)) @ g.conj().T
    at_cut = base > 3.1
    if at_cut:
        with pytest.raises(BranchCutError):
            matrix_log_unitary(u)
    a = _log_unitary2(u)[1] if at_cut else matrix_log_unitary(u)
    assert np.max(np.abs(a + a.conj().T)) < 1e-13
    assert np.max(np.abs(unitary_exp(a) - u)) <= 5e-13
    assert np.max(np.abs(a - scipy.linalg.logm(u))) < 1e-12
    assert np.max(np.abs(a - _log_unitary_eig(u)[1])) < 1e-12


@settings(max_examples=100, deadline=None)
@given(
    phases=st.lists(st.floats(-3.1, 3.1), min_size=2, max_size=2),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_matrix_log_2x2_matches_eigensolve_path(phases, seed):
    # any pair of principal eigenphases, singly and as a stack
    g = random_unitary(np.random.default_rng(seed), 2)
    u = g @ np.diag(np.exp(1j * np.array(phases))) @ g.conj().T
    a = matrix_log_unitary(u)
    # a close pair pins the log only to about eps / gap
    tol = 1e-13 + 1e-15 / max(abs(phases[0] - phases[1]), 1e-3)
    assert np.max(np.abs(a - _log_unitary_eig(u)[1])) <= tol
    assert np.max(np.abs(a - scipy.linalg.logm(u))) <= tol
    assert np.allclose(np.sort(np.linalg.eigvalsh(-1j * a)), np.sort(phases), atol=1e-12)
    stack = matrix_log_unitary(np.stack([u, u.conj()]))
    assert np.max(np.abs(stack[0] - a)) <= 1e-15 * 8
    assert np.max(np.abs(stack[1] - a.conj())) <= 1e-15 * 8


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.floats(1e-9, 1e-2), st.floats(-1e-2, -1e-9)),
                min_size=2, max_size=2))
def test_matrix_log_2x2_small_phases_keep_relative_precision(phases):
    # connection samples are logs of near-identity overlaps summed over
    # thousands of intervals, so small phases must keep their precision
    # relative to their size, not be rounded to the grid of phases near pi
    a = matrix_log_unitary(np.diag(np.exp(1j * np.array(phases))))
    err = np.max(np.abs(np.diagonal(a).imag - phases))
    assert err <= 4 * np.finfo(float).eps * np.max(np.abs(phases))
    assert np.max(np.abs(a - np.diag(np.diagonal(a)))) == 0.0


def test_matrix_log_2x2_straddling_the_cut(rng):
    # eigenphases +-(pi - 0.1) sit on both sides of the cut; the principal
    # log keeps them there rather than joining them across it
    for _ in range(20):
        g = random_unitary(rng, 2)
        u = g @ np.diag(np.exp(1j * np.array([math.pi - 0.1, -(math.pi - 0.1)]))) @ g.conj().T
        a = matrix_log_unitary(u)
        assert np.allclose(np.linalg.eigvalsh(-1j * a), [-(math.pi - 0.1), math.pi - 0.1],
                           atol=1e-13)
        assert np.max(np.abs(a - scipy.linalg.logm(u))) < 1e-13
        assert np.max(np.abs(a - _log_unitary_eig(u)[1])) < 1e-13
        assert np.max(np.abs(unitary_exp(a) - u)) < 1e-13


def test_matrix_log_2x2_det_at_exactly_pi():
    # i [[a, b], [-b, a]] has det exactly -1; its conjugate has arg det
    # exactly -pi, so half of arg det falls on either side of the circle
    u = 1j * np.array([[0.6, 0.8], [-0.8, 0.6]])
    for m, arg in ((u, math.pi), (u.conj(), -math.pi)):
        assert np.angle(np.linalg.det(m)) == arg
        a = matrix_log_unitary(m)
        assert np.max(np.abs(a - scipy.linalg.logm(m))) < 1e-14
        assert np.max(np.abs(a - _log_unitary_eig(m)[1])) < 1e-14
        assert np.max(np.abs(unitary_exp(a) - m)) < 1e-14
    # -I: both eigenphases exactly at the cut, refused; the closed form
    # without the refusal takes the log
    with pytest.raises(BranchCutError):
        matrix_log_unitary(-np.eye(2, dtype=complex))
    a = _log_unitary2(-np.eye(2, dtype=complex))[1]
    assert np.array_equal(a, 1j * math.pi * np.eye(2))


def test_matrix_log_branch_cut():
    u = np.diag(np.exp(1j * np.array([math.pi - 1e-9, 0.3])))
    with pytest.raises(BranchCutError):
        matrix_log_unitary(u)
    a = _log_unitary2(u)[1]
    assert np.max(np.abs(unitary_exp(a) - u)) < 1e-12


def test_matrix_log_rejects_non_unitary():
    with pytest.raises(UnitarityError):
        matrix_log_unitary(1.5 * np.eye(2, dtype=complex))


def test_require_unitary_refuses_one_bad_matrix(rng):
    for n in (2, 3):
        stack = np.stack([random_unitary(rng, n) for _ in range(16)])
        assert require_unitary(stack) is stack
        stack[7] *= 1 + 1e-9
        with pytest.raises(UnitarityError, match=r"max \|M\^H M - I\| = 2\.0"):
            require_unitary(stack)
        with pytest.raises(UnitarityError):
            require_unitary(stack[7])
        require_unitary(stack[6])


@pytest.mark.parametrize("route", ["frame-array", "gauge", "evolve-block"])
def test_orthonormality_guard_is_require_unitary(route):
    # every route that takes orthonormal columns from its caller checks
    # them through require_unitary: max |X^H X - I| = 0.5e-10 passes and
    # 2e-10 is refused with require_unitary's message and type, a
    # ValueError
    b = RotatingRingBlock(n=0)
    frames = b.frame_batch(np.linspace(0.0, b.period, 65))
    path = sample_frames(frames, period=b.period)

    def run(scale):
        if route == "frame-array":
            return sample_frames(frames * scale, period=b.period)
        if route == "gauge":
            return gauge_transform(path, np.broadcast_to(scale * np.eye(2), (65, 2, 2)))
        return evolve(b.hamiltonian, scale * frames[0], steps=8)

    run(math.sqrt(1.0 + 0.5e-10))
    with pytest.raises(UnitarityError, match=r"max \|M\^H M - I\| = 2\.000e-10 > 1\.0e-10"):
        run(math.sqrt(1.0 + 2e-10))
    assert issubclass(UnitarityError, ValueError)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_require_hermitian_stack_defect_matches_full_expression(n, rng):
    # a stack is read entry by entry over i <= j; its defect must be the
    # max |M - M^H| of the whole stack to the last bit, which the
    # tolerance pins from both sides
    stack = rng.normal(size=(33, n, n)) + 1j * rng.normal(size=(33, n, n))
    want = np.max(np.abs(stack - np.swapaxes(stack.conj(), -1, -2)))
    for s in (stack, stack.reshape(3, 11, n, n)):
        assert require_hermitian(s, tol=want) is s
        with pytest.raises(HermiticityError):
            require_hermitian(s, tol=np.nextafter(want, 0.0))
    herm = (stack + np.swapaxes(stack.conj(), -1, -2)) / 2
    assert require_hermitian(herm, tol=0.0) is herm
    assert require_hermitian(herm[:0]).shape == (0, n, n)


@pytest.mark.parametrize("i, j", [(1, 1), (0, 1), (1, 0)])
def test_require_hermitian_stack_refuses_one_nan_entry(i, j, rng):
    a = rng.normal(size=(16, 2, 2)) + 1j * rng.normal(size=(16, 2, 2))
    stack = (a + np.swapaxes(a.conj(), -1, -2)) / 2
    stack[9, i, j] = np.nan
    with pytest.raises(HermiticityError, match="nan"):
        require_hermitian(stack)


def test_polar_unitary_properties(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u = polar_unitary(m)
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12
    h = u.conj().T @ m
    assert np.max(np.abs(h - h.conj().T)) < 1e-11
    assert np.min(np.linalg.eigvalsh((h + h.conj().T) / 2)) > 0


def test_polar_unitary_of_unitary_is_identity_map(rng):
    g = random_unitary(rng, 3)
    assert np.max(np.abs(polar_unitary(g) - g)) < 1e-13


def test_polar_rank_deficient():
    m = np.zeros((2, 2), dtype=complex)
    m[0, 0] = 1.0
    with pytest.raises(RankDeficiencyError):
        polar_unitary(m)


def test_log_exp_roundtrip_property(rng):
    for n in (2, 3, 4, 6):
        for _ in range(10):
            u = random_unitary(rng, n)
            assert np.max(np.abs(unitary_exp(matrix_log_unitary(u)) - u)) < 1e-12
