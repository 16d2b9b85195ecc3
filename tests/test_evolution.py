"""Propagation layer against exact propagators.

The spin Hamiltonian is static, so the midpoint-exponential stepper must
be exact to roundoff. The rotating ring has an exact solution through the
co-rotating frame, which pins the time-dependent path as well.
"""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from geomphase import (
    GeomPhaseError,
    HermiticityError,
    NonCyclicError,
    OperatorFamily,
    RotatingRingBlock,
    SpinHalf,
    StaticRingBlock,
    Trajectory,
    aa_phase,
    assemble_blocks,
    circular_distance,
    constant_family,
    cyclic_defect,
    evolve,
    rotating_family,
    transport_error,
    trig_family,
)
from geomphase import _kernels, evolution, linalg
from geomphase.evolution import CHUNK_STEPS, _energy_and_norms, _hermitian_samples
from geomphase.models import ID2, SIGMA_X, SIGMA_Y, SIGMA_Z


def spin_exact(omega_s, t, psi0):
    u = np.diag(np.exp(-0.5j * omega_s * t * np.array([1.0, -1.0])))
    return u @ psi0


def rotating_exact(block, t, psi0):
    # transform to the frame co-rotating with the coupling; there the
    # generator is static and the propagator splits exactly
    m0 = block.hamiltonian(0.0) - block.c0 * ID2
    h_rot = ((block.c0 - block.omega_o / 2) * ID2 + m0
             + (block.omega_o / 2) * SIGMA_Z)
    w, v = np.linalg.eigh(h_rot)
    inner = v @ (np.exp(-1j * w * t) * (v.conj().T @ psi0))
    return np.diag([1.0, np.exp(-1j * block.omega_o * t)]) @ inner


def test_spin_propagation_exact(rng):
    m = SpinHalf(theta=math.pi / 6, omega_s=1.7)
    psi0 = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi0 /= np.linalg.norm(psi0)
    traj = evolve(m.hamiltonian, psi0, steps=512)
    for k in (0, 100, 512):
        want = spin_exact(1.7, traj.times[k], psi0)
        assert np.max(np.abs(traj.states[k] - want)) < 1e-12


def _undeclared(fam):
    # the same trig terms without the rotation: integrated step by step
    (c0, c1, c2), omega = fam.terms
    twin = trig_family(c0, c1, c2, omega)
    assert twin.rotation is None and np.array_equal(twin.sample([0.3]), fam.sample([0.3]))
    return twin


# a state, the identity block and a one-column block
def _starts(b):
    return (b.state("+"), ID2, b.frame_batch(0.0)[:, 1:])


def test_rotating_ring_propagation():
    b = RotatingRingBlock(n=0, eps=0.5, chi=math.pi / 3, omega_o=1.0)
    # the declared family takes the closed form, exact to rounding over
    # more than one chunk and a partial cycle
    for x0 in _starts(b):
        traj = evolve(b.hamiltonian, x0, steps=CHUNK_STEPS + 5, duration=1.3 * b.period)
        assert traj.states.shape == (CHUNK_STEPS + 6,) + x0.shape
        assert np.array_equal(traj.states[0], x0)
        for k in (1, 63, 64, 65, CHUNK_STEPS, CHUNK_STEPS + 1, CHUNK_STEPS + 5):
            want = np.reshape([rotating_exact(b, traj.times[k], c)
                               for c in x0.reshape(2, -1).T], x0.T.shape).T
            assert np.max(np.abs(traj.states[k] - want)) <= 1e-12
    # its undeclared twin is integrated by the midpoint steps
    psi0 = b.state("+")
    traj = evolve(_undeclared(b.hamiltonian), psi0, steps=4096)
    err = 0.0
    for k in (1024, 2048, 4096):
        want = rotating_exact(b, traj.times[k], psi0)
        err = max(err, float(np.max(np.abs(traj.states[k] - want))))
    assert err < 1e-6


@pytest.mark.parametrize("ratio", [1e-2, 1e-3, 1e-4])
def test_rotating_frame_propagator_oracle(ratio):
    # H(t) = e^{-i w t G} H0 e^{i w t G} with G = diag(0, 1), so
    # U(t) = e^{-i w t G} e^{-i (H0 - w G) t} exactly. The drive rate w is
    # ratio times the level-splitting rate, as in the adiabatic runs.
    probe = RotatingRingBlock(n=0, eps=0.5, chi=math.pi / 3, omega_o=1.0)
    b = RotatingRingBlock(n=0, eps=0.5, chi=math.pi / 3,
                          omega_o=ratio * probe.omega_ns)
    w = b.omega_o
    gen = np.diag([0.0, 1.0]).astype(complex)
    h0 = b.hamiltonian(0.0)
    # 25 periods of the level splitting, a small part of one rotation;
    # the identity block evolves into the cumulative propagators
    duration = 50 * math.pi / probe.omega_ns

    def oracle(steps):
        t = np.linspace(0.0, duration, steps + 1)
        rot = np.exp(-1j * w * t)[:, None, None] * gen + (ID2 - gen)
        assert np.max(np.abs(b.hamiltonian.sample(t)
                             - rot @ h0 @ rot.conj().transpose(0, 2, 1))) < 1e-14
        return rot @ scipy.linalg.expm(-1j * (h0 - w * gen) * t[:, None, None])

    # the declared family's closed form is exact to rounding, for the
    # identity block, a state and a column block alike
    want = oracle(CHUNK_STEPS + 5)
    for x0 in _starts(b):
        got = evolve(b.hamiltonian, x0, steps=CHUNK_STEPS + 5, duration=duration).states
        assert np.array_equal(got[0], x0)
        assert np.max(np.abs(got - want @ x0)) <= 1e-12
    # the undeclared twin's midpoint step errs by the drift of H over a
    # step, which is proportional to the drive rate (measured
    # 0.91e-4 * ratio here)
    traj = evolve(_undeclared(b.hamiltonian), np.eye(2), steps=4096, duration=duration)
    assert np.max(np.abs(traj.states - oracle(4096))) <= 2e-4 * ratio


def test_rotating_family_propagator_is_exact(rng):
    # a dense 3 x 3 G with levels -w/2, w/2, w/2 turns a random H0 at w;
    # evolve takes U(t) = e^{-i G t} e^{-i (H0 - G) t} in closed form
    u = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    g = u @ np.diag([-0.35, 0.35, 0.35]) @ u.conj().T
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h0 = (a + a.conj().T) / 4
    fam = rotating_family(h0, g, 2 * math.pi / 0.7)
    traj = evolve(fam, np.eye(3), steps=CHUNK_STEPS + 5, duration=3.3 * fam.period)
    assert np.array_equal(traj.states[0], np.eye(3))
    for k in range(0, CHUNK_STEPS + 6, 97):
        t = traj.times[k]
        want = scipy.linalg.expm(-1j * g * t) @ scipy.linalg.expm(-1j * (h0 - g) * t)
        assert np.max(np.abs(traj.states[k] - want)) <= 1e-12
    assert np.max(np.abs(traj.states[-1] - scipy.linalg.expm(-1j * g * traj.times[-1])
                         @ scipy.linalg.expm(-1j * (h0 - g) * traj.times[-1]))) <= 1e-12


def test_closed_form_refuses_overflowed_phase():
    # e^{-i Omega t} at Omega t = 1e310 would be NaN, with only a warning
    fam = constant_family(1e10 * SIGMA_Z, 1.0)
    with pytest.raises(ValueError, match="duration is not finite"):
        evolve(fam, np.array([1.0, 0.0]), steps=8, duration=1e300)


def test_norm_conserved(rng):
    b = RotatingRingBlock(n=1, eps=0.3, chi=math.pi / 6, omega_o=0.9)
    psi0 = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi0 /= np.linalg.norm(psi0)
    traj = evolve(b.hamiltonian, psi0, steps=1024)
    norms = np.linalg.norm(traj.states, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_evolve_rejects_unnormalized():
    m = SpinHalf()
    with pytest.raises(ValueError):
        evolve(m.hamiltonian, np.array([1.0, 1.0], dtype=complex))


def test_evolve_column_block_matches_identity_block(rng):
    # the block's states are the cumulative propagators times the block
    b = RotatingRingBlock(n=1, eps=0.3, chi=math.pi / 6, omega_o=0.9)
    x0 = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    props = evolve(b.hamiltonian, ID2, steps=1024).states
    traj = evolve(b.hamiltonian, x0, steps=1024)
    assert traj.states.shape == (1025, 2, 2)
    assert np.max(np.abs(traj.states - props @ x0)) < 1e-13
    col = evolve(b.hamiltonian, x0[:, :1], steps=1024).states
    assert col.shape == (1025, 2, 1)
    assert np.max(np.abs(col - traj.states[..., :1])) < 1e-13


@pytest.mark.parametrize("x0", [
    np.array([[1.0, 1.0], [0.0, 1.0]]) / math.sqrt(2),  # unit columns, not orthogonal
    np.array([[1.0, 0.0], [0.0, 1.0 + 1e-9]]),          # one column too long
    np.array([[1.0], [1.0]]),                           # a column of norm sqrt 2
    np.array([[math.nan], [0.0]]),
    np.ones((3, 1)) / math.sqrt(3),                     # wrong dimension
    np.zeros((2, 0)),                                   # no columns
])
def test_evolve_rejects_non_orthonormal_block(x0):
    with pytest.raises(ValueError):
        evolve(SpinHalf().hamiltonian, x0, steps=8)


def test_energy_and_dynamic_phase():
    # eigenstate of a static Hamiltonian: <E> constant, dynamic = -E T
    m = SpinHalf(theta=0.0, omega_s=1.0)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    traj = evolve(m.hamiltonian, psi0, steps=256)
    e, norms = _energy_and_norms(traj)
    assert np.max(np.abs(e / norms - 0.5)) < 1e-13
    assert abs(aa_phase(traj).dynamic + 0.5 * traj.times[-1]) < 1e-10


def test_dynamic_phase_ignores_norm_drift():
    # a propagator that lets the norm drift by delta must not shift the
    # dynamic phase by about 2 delta times the integrated energy; an
    # eigenvector of the rotating ring's U(T) makes the run cyclic
    m = RotatingRingBlock(n=1, eps=0.5, chi=math.pi / 3)
    psi0 = np.linalg.eig(evolve(m.hamiltonian, ID2, steps=1024).states[-1])[1][:, 0]
    traj = evolve(m.hamiltonian, psi0 / np.linalg.norm(psi0), steps=1024)
    scaled = dataclasses.replace(traj, states=traj.states * (1 + 1e-6))
    dynamic = aa_phase(traj).dynamic
    assert abs(dynamic) > 1.0
    assert abs(aa_phase(scaled).dynamic - dynamic) < 1e-12


def test_phase_report_norm_drift():
    # the drift is max |<psi|psi> - 1| over the grid: rounding on a
    # unitary run, (1 + 1e-6)^2 - 1 = 2e-6 on the scaled states
    m = SpinHalf(theta=math.pi / 6)
    traj = evolve(m.hamiltonian, m.state("+"), steps=1024)
    rep = aa_phase(traj)
    assert rep.norm_drift < 1e-12
    scaled = aa_phase(dataclasses.replace(traj, states=traj.states * (1 + 1e-6)))
    assert abs(scaled.norm_drift - 2.000001e-6) < 1e-12
    assert abs(scaled.dynamic - rep.dynamic) < 1e-12


def _dense_trig(rng):
    # a random 3 x 3 trig_family with complex entries off the diagonal
    def herm():
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        return (a + a.conj().T) / 2
    return trig_family(herm(), herm(), herm(), 1.3)


ENERGY_FAMILIES = {
    # direct sums of one rotating pair (2 x 2) and of two (4 x 4): sampled
    "1": lambda rng: assemble_blocks([RotatingRingBlock(n=0).hamiltonian]),
    "2": lambda rng: assemble_blocks(
        [RotatingRingBlock(n=n).hamiltonian for n in range(2)]),
    # built families: read from their coefficients
    "trig": lambda rng: RotatingRingBlock(n=1).hamiltonian,
    "constant": lambda rng: StaticRingBlock(n=1).hamiltonian,
    "dense-3x3-trig": _dense_trig,
}


@pytest.mark.parametrize("make", ENERGY_FAMILIES.values(), ids=ENERGY_FAMILIES.keys())
def test_energy_expectation_matches_einsum(make, rng):
    fam = make(rng)
    psi0 = rng.normal(size=fam.dim) + 1j * rng.normal(size=fam.dim)
    traj = evolve(fam, psi0 / np.linalg.norm(psi0), steps=512)
    # a drifted norm must divide out as it does in the oracle
    traj = dataclasses.replace(traj, states=traj.states * 1.1)
    psi, hs = traj.states, fam.sample(traj.times)
    want = (np.einsum("mi,mij,mj->m", psi.conj(), hs, psi).real
            / np.einsum("mi,mi->m", psi.conj(), psi).real)
    e, norms = _energy_and_norms(traj)
    got = e / norms
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_phases_refuse_column_block():
    # the scalar split is defined for a state; a block's split is K x K
    m = RotatingRingBlock(n=1, eps=0.5, chi=math.pi / 3)
    traj = evolve(m.hamiltonian, np.eye(2), steps=64)
    for f in (_energy_and_norms, cyclic_defect, aa_phase):
        with pytest.raises(ValueError, match=r"\(65, 2, 2\)"):
            f(traj)


def test_hermitian_samples_peak_memory():
    # the trig sampler writes each entry from (M,) cos and sin and the
    # stack check reads entries, so neither holds a second stack
    m = 2**14
    fam = RotatingRingBlock(n=0, eps=0.5, chi=math.pi / 3).hamiltonian
    times = np.linspace(0.0, fam.period, m + 1)
    stack = (m + 1) * 4 * np.dtype(np.complex128).itemsize
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        _hermitian_samples(fam, times)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * stack


def test_aa_decomposition_spin():
    for theta in (math.pi / 6, math.pi / 3):
        m = SpinHalf(theta=theta, omega_s=1.0)
        c2 = math.cos(2 * theta)
        for branch, sign in (("+", 1.0), ("-", -1.0)):
            traj = evolve(m.hamiltonian, m.state(branch), steps=2048)
            rep = aa_phase(traj)
            assert rep.cyclic_defect < 1e-10
            assert circular_distance(rep.total, math.pi) < 1e-9
            assert abs(rep.dynamic - (-sign * math.pi * c2)) < 1e-9
            want_geo = math.pi * (1 + sign * c2)
            assert circular_distance(rep.geometric, want_geo) < 1e-9


def test_partial_evolution_not_cyclic():
    m = SpinHalf(theta=math.pi / 6)
    traj = evolve(m.hamiltonian, m.state("+"), steps=512,
                  duration=0.37 * m.period)
    assert cyclic_defect(traj) > 1e-2
    with pytest.raises(NonCyclicError) as exc:
        aa_phase(traj)
    assert exc.value.defect > 1e-2


def test_time_dependent_hermiticity_enforced():
    fam = constant_family(SIGMA_X, 1.0)
    traj = evolve(fam, np.eye(2), steps=8)
    # sanity: constant sigma_x rotates the state fully in one period unit
    u = traj.states[-1]
    want = (math.cos(1.0) * ID2 - 1j * math.sin(1.0) * SIGMA_X)
    assert np.max(np.abs(u - want)) < 1e-12


@pytest.mark.parametrize("duration", [math.nan, math.inf, -math.inf])
def test_non_finite_duration_refused(duration):
    # a NaN or infinite duration once gave NaN states without an error
    m = SpinHalf()
    with pytest.raises(ValueError, match="duration must be finite"):
        evolve(m.hamiltonian, m.state("+"), steps=8, duration=duration)
    with pytest.raises(ValueError, match="duration must be finite"):
        evolve(m.invariant, m.state("+"), steps=8, duration=duration)


def _count_defects(monkeypatch):
    # every call of linalg.hermitian_defect, which require_hermitian makes
    calls = []
    original = linalg.hermitian_defect

    def counted(m):
        calls.append(np.shape(m))
        return original(m)

    monkeypatch.setattr(linalg, "hermitian_defect", counted)
    return calls


def test_built_families_sampled_without_defect_checks(monkeypatch):
    # a trig family is Hermitian by construction, so neither evolve nor
    # _hermitian_samples reads its samples' defect; a plain sampler over
    # the same function is still checked, once per run
    fam = _undeclared(RotatingRingBlock(n=1).hamiltonian)
    plain = OperatorFamily(2, fam.period, fam._sampler, label="plain")
    psi = np.array([1.0, 0.0], dtype=complex)
    steps = CHUNK_STEPS + 5
    calls = _count_defects(monkeypatch)
    traj = evolve(fam, psi, steps=steps)
    _hermitian_samples(fam, traj.times)
    assert calls == []
    want = evolve(plain, psi, steps=steps)
    assert calls == [(steps, 2, 2)]
    assert np.array_equal(traj.states, want.states)


def test_built_families_refuse_non_finite_times():
    fam = SpinHalf().invariant
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="non-finite time"):
            _hermitian_samples(fam, [0.0, bad, 1.0])


def test_trajectory_shapes():
    m = SpinHalf()
    traj = evolve(m.hamiltonian, m.state("+"), steps=16)
    assert traj.steps == 16
    assert traj.times.shape == (17,)
    assert traj.states.shape == (17, 2)
    assert abs(traj.times[-1] - m.period) < 1e-12
    props = evolve(m.hamiltonian, ID2, steps=16).states
    assert props.shape == (17, 2, 2)
    assert np.max(np.abs(props[0] - ID2)) == 0.0


def _slow_pair():
    # the rotating pair driven at 1e-2 of its splitting rate: a
    # time-dependent H whose band state comes back to its ray
    probe = RotatingRingBlock(n=0, eps=0.5, chi=math.pi / 3, omega_o=1.0)
    return RotatingRingBlock(n=0, eps=0.5, chi=math.pi / 3,
                             omega_o=1e-2 * probe.omega_ns)


def _whole_grid(fam, x0, steps):
    # one propagate call over every midpoint of the run
    t = np.linspace(0.0, fam.period, steps + 1)
    return _kernels.propagate(fam.sample(0.5 * (t[:-1] + t[1:])), t[-1] / steps, x0)


CHUNK_EDGES = [CHUNK_STEPS - 1, CHUNK_STEPS, CHUNK_STEPS + 1, 2 * CHUNK_STEPS + 3]


@pytest.mark.parametrize("steps", CHUNK_EDGES)
@pytest.mark.parametrize("blocks", [1, 2], ids=["pair-state", "direct-sum-block"])
def test_chunked_evolve_matches_whole_grid(steps, blocks, rng):
    # a state of the rotating pair, and a two-column block of the 4 x 4
    # direct sum (the eigh step exponential); runs of at most one chunk
    # make the same calls as the whole grid and agree bit for bit
    b = _slow_pair()
    fam = assemble_blocks([b.hamiltonian] * blocks, period=b.period)
    if blocks == 1:
        x0 = b.state("+")
    else:
        z = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        x0 = np.linalg.qr(z)[0]
    got = evolve(fam, x0, steps=steps).states
    want = _whole_grid(fam, x0, steps)
    assert got.shape == want.shape == (steps + 1,) + x0.shape
    if steps <= CHUNK_STEPS:
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("steps", [CHUNK_STEPS + 1, 2 * CHUNK_STEPS + 3])
@pytest.mark.parametrize("blocks", [1, 2], ids=["ring-state", "direct-sum-block"])
def test_chunked_constant_evolve_matches_expm(steps, blocks, rng):
    # a constant H takes the closed form in every chunk, each chunk
    # starting from the last state of the one before: exact to rounding
    # against exp(-i H t) at every grid time, and states[0] is x0
    rings = [StaticRingBlock(n=n) for n in range(blocks)]
    fam = assemble_blocks([r.hamiltonian for r in rings])
    if blocks == 1:
        x0 = rings[0].state("+")
    else:
        z = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        x0 = np.linalg.qr(z)[0]
    traj = evolve(fam, x0, steps=steps)
    assert np.array_equal(traj.states[0], x0)
    h = fam.sample(np.zeros(1))[0]
    want = scipy.linalg.expm(-1j * traj.times[:, None, None] * h) @ x0
    assert np.max(np.abs(traj.states - want)) <= 1e-13


def _sampled(family):
    # a plain sampler over a built family's own sampler: no terms, so
    # aa_phase forms H psi from its grid-edge samples
    return OperatorFamily(family.dim, family.period, family._sampler, label=family.label)


@pytest.mark.parametrize("steps", CHUNK_EDGES)
def test_chunked_energies_match_one_pass(steps, monkeypatch):
    # the grid-edge energies and norms read chunk by chunk are those of
    # one whole-grid pass of the same coefficient route, bit for bit, and
    # so are the dynamic phase and the norm drift of aa_phase; they match
    # the sampled route to 1e-14 relative
    b = _slow_pair()
    traj = evolve(b.hamiltonian, b.state("+"), steps=steps)
    got_e, got_norms = _energy_and_norms(traj)
    rep = aa_phase(traj)
    monkeypatch.setattr(evolution, "CHUNK_STEPS", steps + 1)
    e, norms = _energy_and_norms(traj)
    assert np.array_equal(got_e, e) and np.array_equal(got_norms, norms)
    assert rep.dynamic == float(-np.trapezoid(e / norms, traj.times))
    assert rep.norm_drift == float(np.max(np.abs(norms - 1.0)))
    want_e, want_norms = _energy_and_norms(dataclasses.replace(traj, family=_sampled(b.hamiltonian)))
    assert np.max(np.abs(e - want_e)) <= 1e-14 * np.max(np.abs(want_e))
    assert np.max(np.abs(norms - want_norms)) <= 1e-14


@pytest.mark.parametrize("steps", [CHUNK_STEPS, 2 * CHUNK_STEPS + 3])
def test_aa_phase_does_not_sample_a_built_family(steps):
    # a built family's energies come from its terms: aa_phase makes no
    # sampler call, while a plain sampler over the same function makes
    # one for the check of its whole edge stack and one per chunk, and
    # the phases agree to rounding
    b = _slow_pair()
    fam = b.hamiltonian
    sampler, calls = fam._sampler, []

    def counted(ts):
        calls.append(ts.size)
        return sampler(ts)

    traj = evolve(fam, b.state("+"), steps=steps)
    fam._sampler = counted
    got = aa_phase(traj)
    assert calls == []
    plain = dataclasses.replace(traj, family=_sampled(fam))
    calls.clear()  # the construction's check of H(0) against H(T)
    want = aa_phase(plain)
    assert len(calls) == len(evolution._chunks(steps)) + 1
    assert abs(got.dynamic - want.dynamic) <= 1e-12 and got.total == want.total


def test_energy_route_refuses_overflowed_phase():
    # the grid edge 1e10 of this trajectory puts omega t past the
    # largest float: refused with the sampler's ValueError, not read as
    # NaN weights
    fam = trig_family(SIGMA_Z, SIGMA_X, SIGMA_Y, 1e300)
    state = np.array([1.0, 0.0], dtype=complex)
    traj = dataclasses.replace(evolve(fam, state, steps=1), times=np.array([0.0, 1e10]),
                               states=np.stack([state, state]))
    for f in (fam.sample, lambda ts: _energy_and_norms(traj), lambda ts: aa_phase(traj)):
        with pytest.raises(ValueError, match="omega t is not finite"):
            f(traj.times)


@pytest.mark.parametrize("steps", CHUNK_EDGES)
@pytest.mark.parametrize("make", [SpinHalf, lambda: StaticRingBlock(n=1)], ids=["spin", "ring"])
def test_declared_constant_route_matches_sampled_route(make, steps):
    # constant_family's matrix stands for its samples: an undeclared
    # family over the same sampler takes the sampled route, and the
    # states of a state and of a column block, every field of aa_phase
    # and transport_error agree bit for bit; the declared family is not
    # sampled once it is built
    model = make()
    declared = model.hamiltonian
    sampler = declared._sampler
    calls = []

    def counted(ts):
        calls.append(ts.size)
        return sampler(ts)

    declared._sampler = counted
    sampled = OperatorFamily(declared.dim, declared.period, sampler, label=declared.label)
    assert declared.rotation is not None and sampled.rotation is None
    for x0 in (model.state("+"), model.frame_batch(0.0)):
        got, want = evolve(declared, x0, steps=steps), evolve(sampled, x0, steps=steps)
        assert np.array_equal(got.states, want.states)
        if x0.ndim == 1:
            assert dataclasses.astuple(aa_phase(got)) == dataclasses.astuple(aa_phase(want))
    assert (transport_error(declared, model.invariant, steps=steps)
            == transport_error(sampled, model.invariant, steps=steps))
    assert calls == []


def _spoiled_pair(spoil, lo, hi, bump=None):
    # the slow pair's H with spoil(hs, where) applied at lo < t < hi,
    # and 1e3 sigma_z added on bump = (lo, hi) if given; H(0) and H(T)
    # stay clean, so the family keeps its period
    base = _slow_pair().hamiltonian

    def many(ts):
        hs = base.sample(ts)
        spoil(hs, (ts > lo) & (ts < hi))
        if bump is not None:
            hs[(ts > bump[0]) & (ts < bump[1])] += 1e3 * SIGMA_Z
        return hs

    return OperatorFamily(2, base.period, many, label="spoiled pair")


def _plant_nan(hs, where):
    hs[where, 1, 0] = math.nan


def _skew_lower_corner(defect):
    def spoil(hs, where):
        hs[where, 1, 0] += defect
    return spoil


@pytest.mark.parametrize("spoil", [_plant_nan, _skew_lower_corner(1e-8)],
                         ids=["nan", "defect-1e-8"])
def test_spoiled_last_chunk_refused_with_whole_stack_message(spoil):
    # only the last chunk's samples are spoiled; the refusal reads as the
    # check of the whole midpoint stack does
    steps = 2 * CHUNK_STEPS + 3
    period = _slow_pair().period
    fam = _spoiled_pair(spoil, (2 * CHUNK_STEPS + 1) * period / steps, period)
    t = np.linspace(0.0, period, steps + 1)
    with pytest.raises(HermiticityError) as whole:
        _hermitian_samples(fam, 0.5 * (t[:-1] + t[1:]))
    with pytest.raises(HermiticityError) as chunked:
        evolve(fam, np.eye(2), steps=steps)
    assert str(chunked.value) == str(whole.value)
    assert "sample stack is not Hermitian" in str(chunked.value)


@pytest.mark.parametrize("spoil", [_plant_nan, _skew_lower_corner(1e-3)],
                         ids=["nan", "defect-1e-3"])
def test_aa_phase_refuses_a_spoiled_edge_sample(spoil):
    # t = T/2 is a grid edge of an even step count and no midpoint, so
    # evolve never samples it; aa_phase's energies do, and the edge stack
    # is refused as a whole, where a NaN there once gave a NaN split and
    # the skew shifted the split by 4e-5
    m = SpinHalf()
    steps = 64
    half = np.linspace(0.0, m.period, steps + 1)[steps // 2]
    clean = m.hamiltonian

    def many(ts):
        hs = clean.sample(ts)
        spoil(hs, ts == half)
        return hs

    fam = OperatorFamily(2, clean.period, many, label="spoiled spin")
    traj = evolve(fam, m.state("+"), steps=steps)
    assert half in traj.times
    with pytest.raises(HermiticityError, match="sample stack is not Hermitian"):
        aa_phase(traj)


def test_aa_phase_refuses_an_overflowed_dynamic_phase():
    # energies of 1e308 at every edge: the trapezoid's sums of neighbours
    # overflow, once returned as dynamic = -inf and geometric = nan
    fam = constant_family(1e308 * SIGMA_Z, 1.0)
    state = np.array([1.0, 0.0], dtype=complex)
    traj = Trajectory(fam, np.linspace(0.0, 1.0, 33), np.tile(state, (33, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GeomPhaseError, match="dynamic phase .* is not finite"):
            aa_phase(traj)


def test_evolve_near_the_largest_float_never_warns():
    # the eigensolve of the closed form formed d0 - d1 = 2e308 and warned
    # before the overflowed phase was refused; it now gives finite states
    # (or refuses the run with ValueError), never a RuntimeWarning
    fam = constant_family(1e308 * SIGMA_Z, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            states = evolve(fam, np.array([1.0, 0.0], dtype=complex), steps=8).states
        except ValueError:
            return
    assert np.all(np.isfinite(states))
    assert np.max(np.abs(np.abs(states[:, 0]) - 1.0)) <= 1e-15 and np.all(states[:, 1] == 0)


def test_hermiticity_tolerance_scales_with_whole_run():
    # a defect of 1e-9 in the last chunk exceeds 1e-10 of that chunk's own
    # scale (about 1) but not of the run's, set by a 1e3 entry in chunk 0;
    # without that entry the same defect is refused
    steps = 2 * CHUNK_STEPS + 3
    period = _slow_pair().period
    last = ((2 * CHUNK_STEPS + 1) * period / steps, period)
    bump = (0.1 * period / steps, 100.1 * period / steps)
    spoil = _skew_lower_corner(1e-9)
    traj = evolve(_spoiled_pair(spoil, *last, bump=bump), np.eye(2), steps=steps)
    assert np.all(np.isfinite(traj.states))
    with pytest.raises(HermiticityError, match="1.000e-09 > 1.0e-10"):
        evolve(_spoiled_pair(spoil, *last), np.eye(2), steps=steps)


def test_aa_phase_peak_memory():
    # evolve holds the states plus one chunk's temporaries, and aa_phase
    # reads its energies over the same chunks: the peak stays a few state
    # stacks at a run of sixteen chunks (7.25 when the whole grid was
    # sampled, exponentiated and product-treed at once)
    m = 2**16
    b = StaticRingBlock(n=0)
    psi0 = b.state("+")
    stack = (m + 1) * psi0.size * np.dtype(np.complex128).itemsize
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        rep = aa_phase(evolve(b.hamiltonian, psi0, steps=m))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert rep.norm_drift < 1e-10
    assert peak <= 3.5 * stack
