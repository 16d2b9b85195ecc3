"""Model layer: every family is checked against matrices built from
scratch here, and every published closed-form value is recomputed from
its defining expression before being compared."""

import dataclasses
import inspect
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomphase import (
    ActionRingBlock,
    DegenerateMixingError,
    GeomPhaseError,
    HermiticityError,
    OperatorFamily,
    RotatingRingBlock,
    SpinHalf,
    StaticRingBlock,
    aa_phase,
    assemble_blocks,
    constant_family,
    coupling_matrix,
    rotating_family,
    trig_family,
)
from geomphase.evolution import Trajectory, _energy_and_norms
from geomphase.linalg import hermitian_defect
from geomphase.models import ID2, SIGMA_X, SIGMA_Y, SIGMA_Z

EPS_CHI = [(0.5, math.pi / 3), (0.3, math.pi / 6), (0.8, 1.1)]


def mixing_oracle(eps, chi):
    delta = eps * math.cos(chi)
    g = 1.0 - eps * math.sin(chi)
    return delta, g, math.hypot(delta, g)


def test_operator_family_validates_period():
    with pytest.raises(ValueError):
        OperatorFamily(2, 1.0, lambda ts: ts[:, None, None] * np.diag([1.0, -1.0]).astype(complex))


@pytest.mark.parametrize("period", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_non_finite_or_non_positive_period_refused(period):
    # a NaN or infinite period once passed the period <= 0 test and gave
    # NaN states in evolve
    with pytest.raises(ValueError, match="period must be finite and positive"):
        OperatorFamily(2, period, lambda ts: np.broadcast_to(SIGMA_Z, ts.shape + (2, 2)))
    with pytest.raises(ValueError, match="period must be finite and positive"):
        constant_family(SIGMA_Z, period)


@pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf])
def test_trig_family_refuses_non_finite_frequency(omega):
    with pytest.raises(ValueError, match="frequency must be finite"):
        trig_family(SIGMA_Z, SIGMA_X, SIGMA_Y, omega)
    with pytest.raises(ValueError, match="frequency must be finite"):
        trig_family(SIGMA_Z, SIGMA_X, SIGMA_Y, omega, period=1.0)


def test_trig_family_refuses_overflowing_phase():
    # cos and sin of an overflowed omega t are NaN, which the unchecked
    # samples of a built family must never carry
    fam = trig_family(SIGMA_Z, SIGMA_X, SIGMA_Y, 1e300)
    with pytest.raises(ValueError, match="omega t is not finite"):
        fam.sample([0.0, 1e10])


def test_families_with_unbounded_coefficients_refused():
    # every sample is finite while sum |C_k| is; 3 x 6e307 overflows
    big = 6e307
    with pytest.raises(ValueError, match="not finite"):
        trig_family(big * SIGMA_Z, big * SIGMA_Z, big * SIGMA_Z, 1.0)
    assert trig_family(big * SIGMA_Z, big * SIGMA_X, 0 * SIGMA_Y, 1.0).hermitian


def test_huge_exactly_hermitian_coefficients_build_without_warning():
    # C + C^H would overflow above about 9e307 though C is finite
    big = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fams = [trig_family(0 * SIGMA_Z, big * SIGMA_X, 0 * SIGMA_Y, 1.0),
                constant_family(big * SIGMA_Z, 1.0)]
        for fam in fams:
            hs = fam.sample(np.linspace(0.0, fam.period, 33))
            assert np.all(np.isfinite(hs))
            assert hermitian_defect(hs) == 0.0
        assert np.array_equal(fams[1].matrix, big * SIGMA_Z)
        # aa_phase reads their energies from the coefficients: the doubled
        # cross feature 2 Re conj(psi_0) psi_1 of (1, 1)/sqrt 2 is 1, where
        # a doubled coefficient would overflow
        even = np.full(2, 1 / math.sqrt(2), dtype=complex)
        tilted = np.array([math.cos(math.pi / 8), math.sin(math.pi / 8)], dtype=complex)
        for fam, e_even in zip(fams, (big, 0.0)):
            times = np.linspace(0.0, fam.period, 33)
            e, _ = _energy_and_norms(Trajectory(fam, times, np.tile(even, (33, 1))))
            assert np.all(np.isfinite(e)) and e[0] == pytest.approx(e_even, rel=1e-15)
            # and the split of a state whose energy stays below 0.71 big
            rep = aa_phase(Trajectory(fam, times, np.tile(tilted, (33, 1))))
            assert all(math.isfinite(v) for v in dataclasses.astuple(rep))
        # a huge coefficient that is Hermitian to 1e-10 only
        skew = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
        c = big * ID2 + 5e-11 * skew + 3e-11j * ID2
        m = constant_family(c, 1.0).matrix
        assert hermitian_defect(m) == 0.0
        assert np.max(np.abs(m - c)) <= 5e-11
        # the refusal of an unbounded sum stays, for its own reason
        unbounded = re.escape("the sum of the coefficients' |C| is not finite")
        with pytest.raises(ValueError, match=unbounded):
            trig_family(SIGMA_Z, big * SIGMA_X, big * SIGMA_X, 1.0)


def test_operator_family_validates_hermiticity():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(HermiticityError):
        OperatorFamily(2, 1.0, lambda ts: np.broadcast_to(bad, (ts.size, 2, 2)))


def test_trig_family_values_and_batch(rng):
    c0, c1, c2 = SIGMA_Z.copy(), 0.3 * SIGMA_X, 0.7 * SIGMA_Y
    fam = trig_family(c0, c1, c2, 2.0)
    assert abs(fam.period - math.pi) < 1e-15
    ts = rng.uniform(0, 10, size=8)
    batch = fam.sample(ts)
    for t, m in zip(ts, batch):
        want = c0 + c1 * math.cos(2.0 * t) + c2 * math.sin(2.0 * t)
        assert np.max(np.abs(fam(t) - want)) < 1e-14
        assert np.max(np.abs(m - want)) < 1e-14


@pytest.mark.parametrize("n", [1, 2, 4])
def test_trig_family_sample_matches_broadcast_formula(n, rng):
    # the sampler writes each entry from (M,) cos and sin; the broadcast
    # C0 + cos C1 + sin C2 over the whole stack is the oracle
    def herm():
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return (a + a.conj().T) / 2
    c0, c1, c2 = herm(), herm(), herm()
    omega = 1.7
    fam = trig_family(c0, c1, c2, omega)
    ts = rng.uniform(-5, 5, size=257)
    want = (c0[None] + np.cos(omega * ts)[:, None, None] * c1
            + np.sin(omega * ts)[:, None, None] * c2)
    got = fam.sample(ts)
    assert got.shape == (257, n, n) and got.flags.c_contiguous
    scale = np.max(np.abs(c0)) + np.max(np.abs(c1)) + np.max(np.abs(c2))
    assert np.max(np.abs(got - want)) <= 1e-15 * scale


def test_constant_family():
    fam = constant_family(SIGMA_X, 2.0)
    assert np.max(np.abs(fam(1.234) - SIGMA_X)) == 0.0
    assert fam.sample(np.zeros(3)).shape == (3, 2, 2)
    # the declared matrix is C0; no other family declares one
    assert np.array_equal(fam.matrix, SIGMA_X) and not fam.matrix.flags.writeable
    assert trig_family(SIGMA_Z, SIGMA_X, SIGMA_Y, 1.0).matrix is None
    assert assemble_blocks([fam, fam]).matrix is None
    # the matrix is the one coefficient of the family's terms; a trig
    # family carries three and its frequency, a direct sum and a plain
    # sampler none
    (c,), omega = fam.terms
    assert c is fam.matrix and omega == 0.0
    trig = trig_family(SIGMA_Z, SIGMA_X, SIGMA_Y, 2.5)
    assert [np.array_equal(a, b) for a, b in zip(trig.terms[0], (SIGMA_Z, SIGMA_X, SIGMA_Y))] == [True] * 3
    assert trig.terms[1] == 2.5
    assert assemble_blocks([fam, fam]).terms is None
    assert OperatorFamily(2, trig.period, trig._sampler).terms is None
    with pytest.raises(AttributeError):
        fam.terms = None


def test_hermitian_marks_the_package_builders_only():
    trig = trig_family(SIGMA_Z, SIGMA_X, SIGMA_Y, 1.0)
    const = constant_family(SIGMA_X, 2.0 * math.pi)
    plain = OperatorFamily(2, 2.0 * math.pi, trig._sampler)
    assert trig.hermitian and const.hermitian and not plain.hermitian
    assert assemble_blocks([trig, const]).hermitian
    assert not assemble_blocks([trig, plain]).hermitian
    with pytest.raises(AttributeError):
        trig.hermitian = False


def test_coefficients_checked_to_1e_10_and_kept_exactly_hermitian():
    skew = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    with pytest.raises(HermiticityError, match="C1 is not Hermitian"):
        trig_family(SIGMA_Z, SIGMA_X + 2e-10 * skew, SIGMA_Y, 1.0)
    with pytest.raises(HermiticityError, match="C0 is not Hermitian"):
        constant_family(SIGMA_X + 2e-10 * skew, 1.0)
    # within the tolerance the family keeps the exact Hermitian part
    c = SIGMA_X + 5e-11 * skew + 3e-11j * ID2
    fam = constant_family(c, 1.0)
    assert hermitian_defect(fam.matrix) == 0.0
    assert np.max(np.abs(fam.matrix - c)) <= 5e-11
    # an exactly Hermitian coefficient is kept bit for bit
    assert np.array_equal(constant_family(SIGMA_Y, 1.0).matrix, SIGMA_Y)


def _near_hermitian(n):
    # a Hermitian matrix plus a perturbation whose defect stays below the
    # 1e-10 coefficient tolerance: |e_ij - conj(e_ji)| <= sqrt(2) x 7e-11
    entry = st.floats(-1e3, 1e3)
    noise = st.floats(-3.5e-11, 3.5e-11)

    def build(parts):
        a, e = np.array(parts[0]), np.array(parts[1])
        a = a[..., 0] + 1j * a[..., 1]
        e = e[..., 0] + 1j * e[..., 1]
        return (a + a.conj().T) / 2 + e

    cell = lambda x: st.lists(st.lists(st.tuples(x, x), min_size=n, max_size=n),
                              min_size=n, max_size=n)
    return st.tuples(cell(entry), cell(noise)).map(build)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 3),
    data=st.data(),
    omega=st.floats(0.01, 50.0) | st.floats(-50.0, -0.01),
    times=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
)
def test_built_families_sample_exactly_hermitian(n, data, omega, times):
    # the oracle for sampling them unchecked: at any finite time, every
    # sample of trig_family, constant_family and their direct sum is
    # finite and Hermitian bit for bit, from coefficients that were only
    # Hermitian to 1e-10
    c0, c1, c2 = (data.draw(_near_hermitian(n)) for _ in range(3))
    trig = trig_family(c0, c1, c2, omega)
    const = constant_family(c0, trig.period)
    for fam in (trig, const, assemble_blocks([trig, const])):
        assert fam.hermitian
        hs = fam.sample(times)
        assert np.all(np.isfinite(hs))
        assert hermitian_defect(hs) == 0.0
    # by value, the samples are C0 + cos C1 + sin C2 formed in complex
    # arithmetic from the family's terms, entry and mirror alike
    (e0, e1, e2), w = trig.terms
    wt = w * np.asarray(times, dtype=float)
    want = e0 + np.cos(wt)[:, None, None] * e1 + np.sin(wt)[:, None, None] * e2
    assert np.array_equal(trig.sample(times), want)
    assert np.array_equal(const.sample(times), np.broadcast_to(e0, want.shape))


def test_families_own_their_coefficients():
    # a later edit of the caller's arrays reaches neither family, so the
    # checked coefficients are the ones sampled; the family's own copies
    # are read-only
    c = SIGMA_X.copy()
    const = constant_family(c, 1.0)
    c0, c1, c2 = SIGMA_Z.copy(), SIGMA_X.copy(), SIGMA_Y.copy()
    trig = trig_family(c0, c1, c2, 1.0)
    for a in (c, c0, c1, c2):
        a[0, 1] = 5.0
    assert np.array_equal(const(0.3), SIGMA_X)
    assert np.array_equal(const.matrix, SIGMA_X)
    t = 0.3
    want = SIGMA_Z + math.cos(t) * SIGMA_X + math.sin(t) * SIGMA_Y
    assert np.max(np.abs(trig(t) - want)) <= 1e-15
    with pytest.raises(ValueError, match="read-only"):
        const.matrix[0, 1] = 5.0


class TestSpinHalf:
    def test_hamiltonian(self):
        m = SpinHalf(theta=math.pi / 6, omega_s=2.0)
        assert np.allclose(m.hamiltonian(0.7), SIGMA_Z)

    def test_frame_diagonalizes_invariant(self, rng):
        m = SpinHalf(theta=math.pi / 5, omega_s=1.3)
        for t in rng.uniform(0, 10, size=5):
            f = m.frame_batch(t)
            inv = m.invariant(t)
            # column 0 is the +1 eigenvector, column 1 the -1 eigenvector
            assert np.max(np.abs(inv @ f[:, 0] - f[:, 0])) < 1e-13
            assert np.max(np.abs(inv @ f[:, 1] + f[:, 1])) < 1e-13
            assert np.max(np.abs(f.conj().T @ f - ID2)) < 1e-13

    def test_references(self):
        for theta in (0.0, math.pi / 6, math.pi / 4, math.pi / 3):
            m = SpinHalf(theta=theta)
            c2 = math.cos(2 * theta)
            assert abs(m.references["berry_plus"] - math.pi * (1 + c2)) < 1e-15
            assert abs(m.references["berry_minus"] - math.pi * (1 - c2)) < 1e-15
            total = m.references["berry_plus"] + m.references["berry_minus"]
            assert abs(total - 2 * math.pi) < 1e-15

    def test_batch_matches_single(self, rng):
        m = SpinHalf(theta=0.4)
        ts = rng.uniform(0, 7, size=6)
        fb = m.frame_batch(ts)
        for t, f in zip(ts, fb):
            assert np.max(np.abs(f - m.frame_batch(t))) < 1e-15

    def test_state_columns(self):
        m = SpinHalf(theta=0.3)
        assert np.allclose(m.state("+"), m.frame_batch(0.0)[:, 0])
        assert np.allclose(m.state("-"), m.frame_batch(0.0)[:, 1])


def test_coupling_matrix_spectrum(rng):
    for eps, chi in EPS_CHI:
        delta, g, s = mixing_oracle(eps, chi)
        for theta in rng.uniform(0, 2 * math.pi, size=4):
            m = coupling_matrix(delta, g, theta)
            assert np.max(np.abs(m - m.conj().T)) < 1e-15
            assert np.allclose(np.linalg.eigvalsh(m), [-s, s], atol=1e-14)
            want = (g * SIGMA_Z + delta * math.cos(theta) * SIGMA_X
                    - delta * math.sin(theta) * SIGMA_Y)
            assert np.max(np.abs(m - want)) < 1e-15


def test_degenerate_mixing_rejected():
    # delta = g = 0 leaves the band rotation undefined
    with pytest.raises(DegenerateMixingError):
        StaticRingBlock(eps=1.0, chi=math.pi / 2)


BAD_RING_PARAMETERS = [
    ("n", 1.5), ("n", -1), ("n", "1"),
    ("eps", math.nan), ("eps", math.inf), ("chi", math.nan), ("chi", -math.inf),
    ("omega", math.nan), ("omega", math.inf), ("omega", 0.0),
]


@pytest.mark.parametrize("block,name,value", [
    (block, name, value)
    for block in (StaticRingBlock, RotatingRingBlock, ActionRingBlock)
    for name, value in BAD_RING_PARAMETERS
    if name in inspect.signature(block).parameters
])
def test_ring_blocks_refuse_bad_parameters_by_name(block, name, value):
    # a plain ValueError naming the input, not block 1 run under the label
    # "n=1.5", nor a numerical error from the model the value spoiled
    with pytest.raises(ValueError, match=f"^{name} must be") as exc:
        block(**{name: value})
    assert not isinstance(exc.value, GeomPhaseError)


@pytest.mark.parametrize("make,name,value", [
    (SpinHalf, "theta", math.nan), (SpinHalf, "theta", math.inf),
    (SpinHalf, "omega_s", math.nan), (SpinHalf, "omega_s", math.inf),
    (StaticRingBlock, "cone", math.nan), (StaticRingBlock, "cone", -math.inf),
])
def test_models_refuse_non_finite_inputs_by_name(make, name, value):
    # NaN gave "C0 is not Hermitian: ... nan", an infinite theta "math
    # domain error"
    with pytest.raises(ValueError, match=f"^{name} must be finite") as exc:
        make(**{name: value})
    assert not isinstance(exc.value, GeomPhaseError)


@pytest.mark.parametrize("omega_o", [math.nan, math.inf, -math.inf])
def test_rotating_ring_block_refuses_non_finite_rotation(omega_o):
    # refused by name before rotating_family sees G, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="frequency must be finite") as exc:
            RotatingRingBlock(omega_o=omega_o)
    assert not isinstance(exc.value, GeomPhaseError)


class TestStaticRingBlock:
    def test_energies_and_hamiltonian(self):
        for n in (0, 1, 2):
            for eps, chi in EPS_CHI:
                b = StaticRingBlock(n=n, omega=1.3, eps=eps, chi=chi)
                delta, g, s = mixing_oracle(eps, chi)
                half = n + 0.5
                ell = half * ID2 - 0.5 * coupling_matrix(delta, g)
                assert np.max(np.abs(b.hamiltonian(0.2) - 1.3 * ell @ ell)) < 1e-13
                assert abs(b.e_plus - 1.3 * (half + s / 2) ** 2) < 1e-13
                assert abs(b.e_minus - 1.3 * (half - s / 2) ** 2) < 1e-13
                assert abs(b.splitting - 2 * 1.3 * half * s) < 1e-13
                assert abs(b.splitting - (b.e_plus - b.e_minus)) < 1e-12

    def test_band_basis_diagonalizes_coupling(self):
        b = StaticRingBlock(n=1, eps=0.5, chi=math.pi / 3)
        m = coupling_matrix(b.delta, b.g)
        up, lo = b.band_basis[:, 0], b.band_basis[:, 1]
        # upper band pairs with the -s coupling eigenvalue
        assert np.max(np.abs(m @ up + b.s * up)) < 1e-13
        assert np.max(np.abs(m @ lo - b.s * lo)) < 1e-13

    def test_invariant_levels(self, rng):
        for n in (0, 1, 2):
            b = StaticRingBlock(n=n, cone=0.5)
            for t in rng.uniform(0, b.period, size=4):
                w = np.sort(np.linalg.eigvalsh(b.invariant(t)))
                assert np.allclose(w, [4 * n - 1, 4 * n + 1], atol=1e-12)

    def test_invariant_period_is_splitting_rate(self):
        b = StaticRingBlock(n=0, cone=math.pi / 6)
        assert abs(b.invariant.period - 2 * math.pi / b.splitting) < 1e-12
        assert abs(b.period - b.invariant.period) < 1e-12

    def test_references(self):
        for cone in (math.pi / 6, math.pi / 3):
            b = StaticRingBlock(n=2, cone=cone)
            c2 = math.cos(2 * cone)
            assert abs(b.references["berry_plus"] - math.pi * (1 + c2)) < 1e-15
            assert abs(b.references["berry_minus"] - math.pi * (1 - c2)) < 1e-15
            lv = b.references["invariant_levels"]
            assert lv == (9.0, 7.0)


class TestRotatingRingBlock:
    def test_requires_rotation(self):
        with pytest.raises(ValueError):
            RotatingRingBlock(omega_o=0.0)

    def test_hamiltonian_matches_coupling(self, rng):
        b = RotatingRingBlock(n=1, omega=0.9, eps=0.5, chi=math.pi / 3, omega_o=0.7)
        delta, g, s = mixing_oracle(0.5, math.pi / 3)
        half = 1.5
        c0 = 0.9 * (half * half + s * s / 4)
        kappa = 0.9 * half
        for t in rng.uniform(0, 2 * b.period, size=5):
            want = c0 * ID2 - kappa * coupling_matrix(delta, g, 0.7 * t)
            assert np.max(np.abs(b.hamiltonian(t) - want)) < 1e-12
        assert abs(b.e_plus - (c0 + kappa * s)) < 1e-13
        assert abs(b.e_minus - (c0 - kappa * s)) < 1e-13

    def test_invariant_is_degenerate_level(self):
        b = RotatingRingBlock(n=2)
        assert np.max(np.abs(b.invariant(0.3) - 2.5 * ID2)) == 0.0

    def test_frames_diagonalize_coupling(self, rng):
        for eps, chi in EPS_CHI:
            b = RotatingRingBlock(n=0, eps=eps, chi=chi, omega_o=1.0)
            delta, g, s = mixing_oracle(eps, chi)
            for t in rng.uniform(0, b.period, size=4):
                f = b.frame_batch(t)
                m = coupling_matrix(delta, g, t)
                assert np.max(np.abs(m @ f[:, 0] + s * f[:, 0])) < 1e-12
                assert np.max(np.abs(m @ f[:, 1] - s * f[:, 1])) < 1e-12
                assert np.max(np.abs(f.conj().T @ f - ID2)) < 1e-13

    def test_gamma_ref_spectrum(self):
        for eps, chi in EPS_CHI:
            b = RotatingRingBlock(eps=eps, chi=chi)
            g = b.gamma_ref
            assert np.max(np.abs(g - g.conj().T)) < 1e-15
            assert np.allclose(np.linalg.eigvalsh(g), [0.0, 2 * math.pi],
                               atol=1e-12)
            assert abs(np.trace(g).real - 2 * math.pi) < 1e-12

    def test_adiabatic_references_sum(self):
        b = RotatingRingBlock(eps=0.4, chi=0.9)
        s = b.references
        assert abs(s["adiabatic_plus"] + s["adiabatic_minus"] - 2 * math.pi) < 1e-13


class TestActionRingBlock:
    def test_operator_levels(self, rng):
        for n in (0, 1, 3):
            b = ActionRingBlock(n=n, eps=0.5, chi=math.pi / 3)
            _, _, s = mixing_oracle(0.5, math.pi / 3)
            for theta in rng.uniform(0, 2 * math.pi, size=4):
                w = np.sort(np.linalg.eigvalsh(b.operator(theta)))
                want = [n + 0.5 * (1 - s), n + 0.5 * (1 + s)]
                assert np.allclose(w, want, atol=1e-13)
            assert b.references["action_levels"] == (b.action_plus, b.action_minus)

    def test_torus_state_structure(self):
        b = ActionRingBlock(n=1, eps=0.5, chi=math.pi / 3, n_phi=32)
        theta = 0.8
        cm, sm = math.cos(b.theta_mix), math.sin(b.theta_mix)
        phi = b.phi_grid
        psi = b.torus_state("+", theta)
        assert psi.shape == (32, 2)
        # unit when flattened: the modes carry the grid weight 1/sqrt(32)
        norm = np.sum(np.abs(psi) ** 2)
        assert abs(norm - 1.0) < 1e-13
        psi = psi * math.sqrt(32)
        assert np.max(np.abs(psi[:, 0] - cm * np.exp(1j * phi))) < 1e-13
        want1 = sm * np.exp(1j * (2 * phi - theta))
        assert np.max(np.abs(psi[:, 1] - want1)) < 1e-13

    def test_band_frame_matches_rotating_frames(self):
        a = ActionRingBlock(n=0, eps=0.3, chi=math.pi / 6)
        r = RotatingRingBlock(n=0, eps=0.3, chi=math.pi / 6, omega_o=1.0)
        for theta in (0.0, 1.0, 4.0):
            assert np.max(np.abs(a.band_frame(theta) - r.band_frame(theta))) < 1e-14


def test_assemble_blocks_direct_sum(rng):
    b0 = StaticRingBlock(n=0, cone=math.pi / 6)
    b1 = StaticRingBlock(n=1, cone=math.pi / 6)
    period = b0.period
    fam = assemble_blocks([b0.invariant, b1.invariant], period=period)
    assert fam.dim == 4
    for t in rng.uniform(0, period, size=3):
        m = fam(t)
        assert np.max(np.abs(m[:2, :2] - b0.invariant(t))) < 1e-14
        assert np.max(np.abs(m[2:, 2:] - b1.invariant(t))) < 1e-14
        assert np.max(np.abs(m[:2, 2:])) == 0.0
        assert np.max(np.abs(m[2:, :2])) == 0.0


def _turned(h0, g, t):
    # R(t) H0 R(t)^H with R(t) = e^{-i G t}, from G's eigendecomposition
    w, v = np.linalg.eigh(g)
    r = (v * np.exp(-1j * w * t)) @ v.conj().T
    return r @ h0 @ r.conj().T


def _random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = a + a.conj().T
    return a / np.max(np.abs(a))


@pytest.mark.parametrize("levels", [(-0.35, 0.35, 0.35), (0.0, 0.0, 0.7, 0.7), (0.0, 0.7)])
@pytest.mark.parametrize("dense", [False, True], ids=["diagonal-G", "dense-G"])
def test_rotating_family_samples_turn_h0(levels, dense, rng):
    # every level difference of G is 0 or +-omega = 0.7, so any Hermitian
    # H0 turns at one frequency; a dense G is diagonalized once
    n = len(levels)
    u = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    g = u @ np.diag(levels) @ u.conj().T if dense else np.diag(levels).astype(complex)
    h0 = _random_hermitian(rng, n)
    period = 2 * math.pi / 0.7
    fam = rotating_family(h0, g, period)
    assert fam.hermitian and abs(abs(fam.terms[1]) - 0.7) <= 1e-15
    ts = np.linspace(0.0, 2 * period, 41)
    want = np.stack([_turned(h0, g, t) for t in ts])
    assert np.max(np.abs(fam.sample(ts) - want)) <= 1e-14
    # the terms are the samples' coefficients, as for a trig_family
    (c0, c1, c2), omega = fam.terms
    wt = omega * ts[:, None, None]
    assert np.max(np.abs(c0 + np.cos(wt) * c1 + np.sin(wt) * c2 - want)) <= 1e-14


# omega_o and -omega_o; the slow drives of the benchmark, 1e-2 omega_ns;
# a rate whose period 2 pi / |omega_o| gives back |omega_o| one ulp off
RING_RATES = [1.0, -1.0, 1e-2, -1e-2, 2.907288304960468]


@pytest.mark.parametrize("rate", RING_RATES)
@pytest.mark.parametrize("n,eps,chi", [(0, 0.5, math.pi / 3), (2, 0.3, math.pi / 6)])
def test_rotating_ring_block_keeps_its_trig_family_bit_for_bit(n, eps, chi, rate):
    # H(0) turned by G = -omega_o sigma_z / 2 gives the coefficients the
    # block once wrote by hand, its frequency omega_o with its sign, and
    # the same samples bit for bit
    probe = RotatingRingBlock(n=n, eps=eps, chi=chi, omega_o=1.0)
    omega_o = rate * probe.omega_ns if abs(rate) < 0.1 else rate
    b = RotatingRingBlock(n=n, eps=eps, chi=chi, omega_o=omega_o)
    want = trig_family(b.c0 * ID2 - b.kappa * b.g * SIGMA_Z,
                       -b.kappa * b.delta * SIGMA_X,
                       b.kappa * b.delta * SIGMA_Y, omega_o)
    fam = b.hamiltonian
    assert [np.array_equal(a, c) for a, c in zip(fam.terms[0], want.terms[0])] == [True] * 3
    assert fam.terms[1] == omega_o and fam.period == want.period == b.period
    ts = np.linspace(-b.period, 3 * b.period, 1001)
    assert fam.sample(ts).tobytes() == want.sample(ts).tobytes()
    h0, g = fam.rotation
    assert np.array_equal(h0, want(0.0))
    assert np.array_equal(g, -0.5 * omega_o * SIGMA_Z)
    if rate == RING_RATES[-1]:
        assert 2 * math.pi / b.period != omega_o


@pytest.mark.parametrize("h0,g,period,error,match", [
    # G's levels 0, 1, 2: entry (0, 2) turns at the second harmonic
    (np.ones((3, 3)), np.diag([0.0, 1.0, 2.0]), 2 * math.pi, ValueError, "second harmonic"),
    # one coupled pair turning at 1.5, not at 2 pi / period = 1
    (SIGMA_X, 0.75 * SIGMA_Z, 2 * math.pi, ValueError, r"turns at 1\.5"),
    (np.array([[0.0, 1.0], [0.0, 0.0]]), SIGMA_Z, 2 * math.pi, HermiticityError, "H0 is not Hermitian"),
    (SIGMA_X, np.array([[0.0, 1.0], [0.0, 0.0]]), 2 * math.pi, HermiticityError, "G is not Hermitian"),
    (np.diag([math.nan, 0.0]), 0.5 * SIGMA_Z, 2 * math.pi, ValueError, "H0 has a non-finite entry"),
    (SIGMA_X, np.diag([math.inf, 0.0]), 2 * math.pi, ValueError, "G has a non-finite entry"),
    (SIGMA_X, 0.5 * SIGMA_Z, math.nan, ValueError, "period must be finite and positive"),
    (SIGMA_X, 0.5 * SIGMA_Z, math.inf, ValueError, "period must be finite and positive"),
    (SIGMA_X, 0.5 * SIGMA_Z, 0.0, ValueError, "period must be finite and positive"),
    (SIGMA_X, 0.5 * SIGMA_Z, -2 * math.pi, ValueError, "period must be finite and positive"),
], ids=["second-harmonic", "off-period", "skew-H0", "skew-G", "nan-H0", "inf-G",
        "nan-period", "inf-period", "zero-period", "negative-period"])
def test_rotating_family_refusals(h0, g, period, error, match):
    # each raised before any numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=match):
            rotating_family(h0, g, period)


def test_rotation_is_read_only_and_declared_by_two_builders():
    h0, g = SIGMA_X.copy(), -0.5 * SIGMA_Z
    fam = rotating_family(h0, g, 2 * math.pi)
    assert fam.terms[1] == 1.0
    h0[0, 1] = 7.0  # the caller's array does not reach the family
    rh, rg = fam.rotation
    assert np.array_equal(rh, SIGMA_X) and np.array_equal(rg, g)
    assert not rh.flags.writeable and not rg.flags.writeable
    with pytest.raises(AttributeError):
        fam.rotation = None
    const = constant_family(SIGMA_X, 1.0)
    assert const.rotation[0] is const.matrix and const.rotation[1] is None
    trig = trig_family(SIGMA_Z, SIGMA_X, SIGMA_Y, 1.0)
    for other in (trig, assemble_blocks([const, const]),
                  OperatorFamily(2, trig.period, trig._sampler)):
        assert other.rotation is None
