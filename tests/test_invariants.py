"""Conservation diagnostics, checked on pairs where the defect is known
in closed form before being trusted on the pairs that should pass."""

import math

import numpy as np
import pytest

from geomphase import (
    DegeneracySplitError,
    EigenframeSource,
    HermiticityError,
    OperatorFamily,
    RotatingRingBlock,
    SpinHalf,
    StaticRingBlock,
    TrackingAmbiguityError,
    constant_family,
    decompose_state,
    eigenvalue_drift,
    evolve,
    group_degenerate,
    invariance_residual,
    sample_frames,
    transport_error,
    trig_family,
)
from geomphase.invariants import _eigenspaces
from geomphase.models import SIGMA_X, SIGMA_Z

ALL_PAIRS = [
    ("spin pi/6", SpinHalf(theta=math.pi / 6)),
    ("spin pi/3", SpinHalf(theta=math.pi / 3)),
    ("static n=0", StaticRingBlock(n=0, cone=math.pi / 6)),
    ("static n=1", StaticRingBlock(n=1, cone=math.pi / 3)),
    ("static n=2", StaticRingBlock(n=2, cone=math.pi / 4)),
    ("rotating n=0", RotatingRingBlock(n=0, eps=0.5, chi=math.pi / 3)),
    ("rotating n=1", RotatingRingBlock(n=1, eps=0.3, chi=math.pi / 6)),
]


def test_residual_oracle_constant_pair():
    # I = sigma_x, H = sigma_z: dI/dt = 0 and -i[I, H] = -2 sigma_y,
    # so the defect norm is exactly 2 sqrt(2)
    h = constant_family(SIGMA_Z.copy(), 2 * math.pi)
    inv = constant_family(SIGMA_X.copy(), 2 * math.pi)
    r = invariance_residual(h, inv)
    assert abs(r - 2 * math.sqrt(2)) < 1e-6


def test_residual_scales_with_coupling():
    h = constant_family(SIGMA_Z.copy(), 2 * math.pi)
    inv = constant_family(0.25 * SIGMA_X, 2 * math.pi)
    r = invariance_residual(h, inv)
    assert abs(r - 0.5 * math.sqrt(2)) < 1e-6


@pytest.mark.parametrize("name,model", ALL_PAIRS)
def test_real_pairs_conserved(name, model):
    assert invariance_residual(model.hamiltonian, model.invariant) < 1e-8
    assert eigenvalue_drift(model.invariant) < 1e-10
    assert transport_error(model.hamiltonian, model.invariant,
                           steps=2048) < 1e-5


def test_eigenvalue_drift_oracle():
    # eigenvalues of cos(t) sigma_z + sin(t) sigma_x are fixed at +-1;
    # of (1 + cos(t)/2) sigma_z they swing by 1 around +-1
    fixed = trig_family(np.zeros((2, 2), dtype=complex), SIGMA_Z.copy(),
                        SIGMA_X.copy(), 1.0)
    assert eigenvalue_drift(fixed) < 1e-12
    swing = trig_family(SIGMA_Z.copy(), 0.5 * SIGMA_Z,
                        np.zeros((2, 2), dtype=complex), 1.0)
    times = np.linspace(0.0, 2 * math.pi, 201)  # hits the t=pi extremum
    assert abs(eigenvalue_drift(swing, times=times) - 1.0) < 1e-12


def _diag_family(c0, c1, c2):
    return trig_family(np.diag(c0).astype(complex), np.diag(c1).astype(complex),
                       np.diag(c2).astype(complex), 1.0)


def _plain(family):
    # the same samples from a plain sampler, checked where they are used
    return OperatorFamily(family.dim, family.period, family.sample)


@pytest.mark.parametrize("family", [
    SpinHalf().invariant,
    StaticRingBlock(n=2).invariant,
    _plain(StaticRingBlock(n=1).invariant),
    # a group that splits at the first step is not refused here
    _diag_family([0, 0, 15], [0, 0, -5], [0, 1, 0]),
], ids=["spin", "static-ring", "plain-sampler", "split-group"])
def test_eigenvalue_drift_reads_the_eigenspace_route(family):
    times = np.linspace(0.0, family.period, 101)
    ws = _eigenspaces(family, times)[0]
    assert eigenvalue_drift(family, times=times) == float(np.max(np.abs(ws - ws[0])))


def _spoiled_sigma_x(bad):
    # sigma_x at every time except 0.4 < t < 0.6, where the sample is bad;
    # the family's own check at t = 0 and the period passes
    def sampler(times):
        hs = np.broadcast_to(SIGMA_X, (times.size, 2, 2)).copy()
        hs[(times > 0.4) & (times < 0.6)] = bad
        return hs
    return OperatorFamily(2, 1.0, sampler)


SPOILED = {
    "nan": _spoiled_sigma_x(np.full((2, 2), np.nan)),
    "non-hermitian": _spoiled_sigma_x(np.array([[0.0, 1.0], [0.0, 0.0]])),
}


@pytest.mark.parametrize("kind", SPOILED)
@pytest.mark.parametrize("check", [
    lambda fam: eigenvalue_drift(fam),
    lambda fam: invariance_residual(constant_family(SIGMA_Z.copy(), 1.0), fam),
    lambda fam: invariance_residual(fam, constant_family(SIGMA_X.copy(), 1.0)),
], ids=["drift", "residual-invariant", "residual-hamiltonian"])
def test_diagnostics_refuse_spoiled_family(check, kind):
    # a NaN sample once turned both diagnostics into NaN without an error
    with pytest.raises(HermiticityError):
        check(SPOILED[kind])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_diagnostics_refuse_non_finite_times(bad):
    # a built family's samples are used unchecked, so a non-finite time
    # is refused before it can make a NaN sample
    m = SpinHalf()
    times = np.array([0.0, bad, 1.0])
    with pytest.raises(ValueError, match="non-finite time"):
        eigenvalue_drift(m.invariant, times=times)
    with pytest.raises(ValueError, match="non-finite time"):
        invariance_residual(m.hamiltonian, m.invariant, times=times)


def test_transport_error_refuses_non_hermitian_invariant():
    # at n = 2 the eigensolve reads one triangle only, so a spoiled lower
    # corner once gave the clean family's transport error, 3.8e-14
    ring = StaticRingBlock(n=0)
    clean = ring.invariant

    def sampler(times):
        hs = clean.sample(times)
        hs[(times > 0.1) & (times < 0.2), 1, 0] += 1e-3
        return hs

    spoiled = OperatorFamily(2, clean.period, sampler)
    assert transport_error(ring.hamiltonian, clean) < 1e-10
    with pytest.raises(HermiticityError):
        transport_error(ring.hamiltonian, spoiled)


def test_transport_error_detects_broken_pair():
    # sigma_x is not conserved under sigma_z: the state leaves the
    # initial eigenspace by an O(1) amount within one period
    h = constant_family(SIGMA_Z.copy(), 2 * math.pi)
    inv = constant_family(SIGMA_X.copy(), 2 * math.pi)
    assert transport_error(h, inv, steps=256) > 0.1


def test_tracking_ambiguity_on_level_crossing():
    # cos(t) sigma_z has levels +-|cos t|, which collide at t = pi/2;
    # past the collision the t=0 labels cannot be followed
    inv = trig_family(np.zeros((2, 2), dtype=complex), SIGMA_Z.copy(),
                      np.zeros((2, 2), dtype=complex), 1.0)
    h = constant_family(SIGMA_X.copy(), 2 * math.pi)
    with pytest.raises(TrackingAmbiguityError):
        transport_error(h, inv, steps=256)


def _transport_error_loop(hamiltonian, invariant, steps):
    # the per-sample reference: one eigensolve and one projection per time
    traj = evolve(hamiltonian, np.eye(hamiltonian.dim), steps=steps)
    w0, v0 = np.linalg.eigh(invariant(traj.times[0]))
    worst = 0.0
    for t, u in zip(traj.times, traj.states):
        _w, v = np.linalg.eigh(invariant(t))
        for g in group_degenerate(w0):
            carried = u @ v0[:, g]
            resid = carried - v[:, g] @ (v[:, g].conj().T @ carried)
            worst = max(worst, float(np.linalg.norm(resid)))
    return worst


@pytest.mark.parametrize("n", [0, 1, 2])
def test_transport_error_matches_per_sample_loop(n):
    m = StaticRingBlock(n=n, cone=math.pi / 5)
    got = transport_error(m.hamiltonian, m.invariant, steps=512)
    want = _transport_error_loop(m.hamiltonian, m.invariant, steps=512)
    assert abs(got - want) <= 1e-14


@pytest.mark.parametrize("inv,first", [
    # the pair 0, 0 splits at the first step; the top level has drifted
    # by a quarter of the gap 10 only past t = pi/3
    (_diag_family([0, 0, 15], [0, 0, -5], [0, 1, 0]),
     "degenerate group structure changed at t=0.0245437:"),
    # levels -|cos t|, |cos t|: they drift by a quarter of the gap 2 from
    # t = pi/3 on and coincide only at t = pi/2
    (_diag_family([0, 0], [1, -1], [0, 0]), "eigenvalue tracking lost at t=1.05538:"),
], ids=["structure-first", "tracking-first"])
def test_transport_error_reports_first_failure(inv, first):
    h = constant_family(np.zeros((inv.dim, inv.dim), dtype=complex), 2 * math.pi)
    with pytest.raises(TrackingAmbiguityError) as exc:
        transport_error(h, inv, steps=256)
    assert str(exc.value).startswith(first)


_SPLIT_FIRST = _diag_family([0, 0, 15], [0, 0, -5], [0, 1, 0])


def test_split_reported_alike_by_frames_and_transport():
    # both read the invariant's groups along the same grid from one route;
    # a split is a kind of tracking ambiguity, so transport_error's
    # structure-first case is both types
    assert issubclass(DegeneracySplitError, TrackingAmbiguityError)
    h = constant_family(np.zeros((3, 3), dtype=complex), 2 * math.pi)
    with pytest.raises(DegeneracySplitError) as by_frames:
        sample_frames(EigenframeSource(_SPLIT_FIRST), steps=256)
    with pytest.raises(DegeneracySplitError) as by_transport:
        transport_error(h, _SPLIT_FIRST, steps=256)
    assert str(by_frames.value) == str(by_transport.value) == (
        "degenerate group structure changed at t=0.0245437: [1, 1, 1] vs [2, 1] at t=0"
    )


def _spoiled_sigma_z():
    # sigma_z, but with a lower corner that breaks Hermiticity at
    # 0.4 < t < 0.6; a NaN time takes the clean branch
    def sampler(ts):
        hs = np.broadcast_to(SIGMA_Z, ts.shape + (2, 2)).copy()
        hs[(ts > 0.4) & (ts < 0.6), 1, 0] = 0.3
        return hs

    return OperatorFamily(2, 1.0, sampler, label="spoiled")


@pytest.mark.parametrize("t,error,match", [
    # eigh reads one triangle only, so the spoiled sample would be
    # decomposed as if it mirrored that triangle
    (0.5, HermiticityError, "sample stack is not Hermitian"),
    (math.nan, ValueError, "non-finite time"),
], ids=["non-hermitian", "nan-time"])
def test_decompose_state_samples_like_every_check(t, error, match):
    fam = _spoiled_sigma_z()
    psi = np.array([1.0, 0.0], dtype=complex)
    assert decompose_state(fam, 0.2, psi) == [(-1.0, 0.0), (1.0, 1.0)]
    with pytest.raises(error, match=match):
        decompose_state(fam, t, psi)


def test_decompose_state_weights():
    m = SpinHalf(theta=math.pi / 6)
    plus, minus = m.state("+"), m.state("-")
    psi = math.sqrt(0.25) * plus + math.sqrt(0.75) * minus
    w = decompose_state(m.invariant, 0.0, psi)
    assert np.allclose(sorted(wt for _ev, wt in w), [0.25, 0.75], atol=1e-12)


def test_decompose_state_eigenstate():
    m = StaticRingBlock(n=0, cone=math.pi / 6)
    w = decompose_state(m.invariant, 0.0, m.state("+"))
    vals = sorted(w)
    # levels 4n -+ 1: all weight on the upper one
    assert abs(vals[0][0] - (-1.0)) < 1e-9 and vals[0][1] < 1e-12
    assert abs(vals[1][0] - 1.0) < 1e-9 and abs(vals[1][1] - 1.0) < 1e-12
