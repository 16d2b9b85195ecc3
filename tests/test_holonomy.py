"""Loop transport: discrete connections, loop phases and the loop
unitary, their gauge behavior, and every refusal path."""

import math

import numpy as np
import pytest
import scipy.linalg

from geomphase import (
    DegeneracySplitError,
    EigenframeSource,
    FramePath,
    GridTooCoarseError,
    HermiticityError,
    NonCyclicError,
    OperatorFamily,
    RotatingRingBlock,
    SpinHalf,
    StaticRingBlock,
    aa_phase,
    berry_phase,
    circular_distance,
    connection_samples,
    constant_family,
    evolve,
    gauge_transform,
    holonomy_report,
    mod_2pi,
    phase_matrix,
    random_phase_gauge,
    random_unitary_gauge,
    sample_frames,
    trig_family,
    unitary_eigenphases,
    unitary_exp,
    wilson_loop,
)
from geomphase.models import SIGMA_X, SIGMA_Y, SIGMA_Z

TWO_PI = 2 * math.pi


def spin_path(theta, steps=2048, column=0):
    m = SpinHalf(theta=theta)
    frames = m.frame_batch(np.linspace(0.0, m.period, steps + 1))
    return sample_frames(frames[:, :, column:column + 1], steps=steps,
                         period=m.period), m


def rotating_path(eps=0.5, chi=math.pi / 3, n=0, steps=2048):
    m = RotatingRingBlock(n=n, eps=eps, chi=chi, omega_o=1.0)
    frames = m.frame_batch(np.linspace(0.0, m.period, steps + 1))
    return sample_frames(frames, steps=steps, period=m.period), m


def test_frame_path_rejects_open_loop(rng):
    q = np.linalg.qr(rng.normal(size=(2, 1)) + 1j * rng.normal(size=(2, 1)))[0]
    frames = np.broadcast_to(q, (9, 2, 1)).copy()
    frames[-1] = np.linalg.qr(rng.normal(size=(2, 1))
                              + 1j * rng.normal(size=(2, 1)))[0]
    with pytest.raises(NonCyclicError):
        FramePath(np.linspace(0, 1, 9), frames, 0.0)


def test_frame_path_rejects_bad_grid(rng):
    q = np.linalg.qr(rng.normal(size=(2, 1)) + 1j * rng.normal(size=(2, 1)))[0]
    frames = np.broadcast_to(q, (5, 2, 1)).copy()
    grid = np.array([0.0, 0.5, 0.5, 0.75, 1.0])
    with pytest.raises(ValueError):
        FramePath(grid, frames, 0.0)


def test_connection_samples_analytic_spin():
    # per interval the abelian connection sample is
    # -omega_s sin^2(theta) dt up to O(dt^3)
    theta, steps = math.pi / 6, 1024
    path, m = spin_path(theta, steps=steps)
    a = connection_samples(path)
    dt = m.period / steps
    want = -math.sin(theta) ** 2 * dt * 1.0
    assert a.shape == (steps, 1, 1)
    assert np.max(np.abs(a.real - want)) < 5e-8
    assert np.max(np.abs(a.imag)) < 1e-15


def test_connection_samples_match_scipy_per_interval(rng):
    # the batched samples against scipy's polar factor and matrix log,
    # one interval at a time, on a gauge-scrambled degenerate pair
    path, _m = rotating_path(steps=256)
    path = gauge_transform(path, random_unitary_gauge(rng, 257, 2, amplitude=0.8))
    a = connection_samples(path)
    o = path.overlaps
    for k in range(path.steps):
        u, _p = scipy.linalg.polar(o[k])
        assert np.max(np.abs(a[k] - 1j * scipy.linalg.logm(u))) < 1e-12


@pytest.mark.parametrize("theta", [0.0, math.pi / 6, math.pi / 4, math.pi / 3])
@pytest.mark.parametrize("column,sign", [(0, 1.0), (1, -1.0)])
def test_spin_berry_values(theta, column, sign):
    path, m = spin_path(theta, steps=4096, column=column)
    got = berry_phase(path)
    want = math.pi * (1 + sign * math.cos(2 * theta))
    assert circular_distance(got, want) < 1e-6


def test_berry_matches_aa_route():
    theta = math.pi / 3
    m = SpinHalf(theta=theta)
    path, _ = spin_path(theta, steps=4096)
    traj = evolve(m.hamiltonian, m.state("+"), steps=4096)
    rep = aa_phase(traj)
    assert circular_distance(berry_phase(path), rep.geometric) < 1e-6


def test_wilson_matches_berry_for_line_bundles():
    # the ordered overlap product carries exp(-i gamma)
    path, _ = spin_path(math.pi / 6, steps=2048)
    w = wilson_loop(path)
    assert w.shape == (1, 1)
    assert abs(abs(w[0, 0]) - 1.0) < 1e-12
    assert circular_distance(-float(np.angle(w[0, 0])), berry_phase(path)) < 1e-9


@pytest.mark.parametrize("group", [0, 1])
@pytest.mark.parametrize("model", [
    SpinHalf(theta=math.pi / 6), StaticRingBlock(n=0), StaticRingBlock(n=1),
], ids=["spin", "static-n0", "static-n1"])
def test_wilson_loop_is_the_inverse_transport_holonomy(model, group):
    # F0^H U(T) F0 = e^{i dynamic} W^H: the loop unitary undoes the
    # transport holonomy. Measured 4.3e-8 to 5.9e-8 at 8192 steps; W
    # itself in place of W^H misses by 1.65 to 2.0.
    steps = 8192
    path = sample_frames(EigenframeSource(model.invariant, group=group), steps=steps)
    f0 = path.frames[0]
    total = f0.conj().T @ evolve(model.hamiltonian, f0, steps=steps).states[-1]
    dynamic = aa_phase(evolve(model.hamiltonian, f0[:, 0], steps=steps)).dynamic
    w = wilson_loop(path)
    assert np.max(np.abs(total - np.exp(1j * dynamic) * w.conj().T)) <= 1e-6
    assert np.max(np.abs(total - np.exp(1j * dynamic) * w)) > 1.0


def test_phase_matrix_consistent_with_wilson():
    # for the fully degenerate pair exp(i Gamma) must reproduce the loop
    # unitary whenever the connection commutes along the path
    path, m = rotating_path(steps=2048)
    gamma = phase_matrix(path)
    w = wilson_loop(path)
    assert np.max(np.abs(gamma - gamma.conj().T)) < 1e-12
    assert np.max(np.abs(unitary_exp(-1j * gamma) - w)) < 1e-6
    assert np.max(np.abs(gamma - m.gamma_ref)) < 1e-6
    assert np.max(np.abs(w - np.eye(2))) < 1e-10


def k_plane_path(rng, nvec, steps=256):
    # a K-plane of C^(K+2) carried once around by exp(-i t G), G with an
    # integer spectrum so the loop closes, in a random closed U(K) gauge
    n = nvec + 2
    v = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    f0 = np.linalg.qr(rng.normal(size=(n, nvec)) + 1j * rng.normal(size=(n, nvec)))[0]
    t = np.linspace(0.0, TWO_PI, steps + 1)
    rot = (v * np.exp(-1j * t[:, None, None] * np.arange(float(n)))) @ v.conj().T
    path = sample_frames(rot @ f0, steps=steps, period=TWO_PI)
    return gauge_transform(path, random_unitary_gauge(rng, steps + 1, nvec, amplitude=0.8))


@pytest.mark.parametrize("nvec", [2, 3], ids=["closed-form-log", "eigensolve-log"])
def test_phase_matrix_is_the_exactly_hermitian_sum(nvec, rng):
    # every connection sample is Hermitian bit for bit, so their sum is
    # too: the phase matrix is that sum with no symmetrizing pass
    path = k_plane_path(rng, nvec)
    samples = connection_samples(path)
    assert np.array_equal(samples, samples.conj().transpose(0, 2, 1))
    g = phase_matrix(path)
    assert np.array_equal(g, np.sum(samples, axis=0))
    assert np.array_equal(g, g.conj().T)


def test_rotating_gamma_eigenvalues():
    for eps, chi in [(0.5, math.pi / 3), (0.3, math.pi / 6)]:
        path, _ = rotating_path(eps=eps, chi=chi, steps=2048)
        rep = holonomy_report(path, estimate_convergence=False)
        assert np.max(np.abs(rep["gamma_eigenvalues"]
                             - np.array([0.0, TWO_PI]))) < 1e-6


def test_eigenframe_source_spin():
    # group 1 of the cone invariant is its +1 level, i.e. the + branch
    m = SpinHalf(theta=math.pi / 6)
    for group, sign in ((1, 1.0), (0, -1.0)):
        path = sample_frames(EigenframeSource(m.invariant, group=group),
                             steps=4096)
        want = math.pi * (1 + sign * math.cos(math.pi / 3))
        assert circular_distance(berry_phase(path), want) < 1e-6


def test_eigenframe_source_static_ring():
    b = StaticRingBlock(n=1, cone=math.pi / 3)
    path = sample_frames(EigenframeSource(b.invariant, group=1), steps=4096)
    assert circular_distance(berry_phase(path),
                             b.references["berry_plus"]) < 1e-6


def test_random_unitary_gauge_matches_pointwise_loop():
    # the per-point construction: same draws in the same order, one
    # exponential per grid point
    size, nvec, modes, amplitude = 129, 3, 3, 0.7
    rng = np.random.default_rng(7)
    s = np.linspace(0.0, 1.0, size)
    field = np.zeros((size, nvec, nvec), dtype=np.complex128)
    for m in range(1, modes + 1):
        for wave in (np.cos(2 * np.pi * m * s), np.sin(2 * np.pi * m * s)):
            h = rng.uniform(-1, 1, (nvec, nvec)) + 1j * rng.uniform(-1, 1, (nvec, nvec))
            h = 0.5 * (h + h.conj().T) * (amplitude / modes)
            field += wave[:, None, None] * h
    want = np.array([unitary_exp(1j * f) for f in field])
    want[-1] = want[0]
    got = random_unitary_gauge(np.random.default_rng(7), size, nvec,
                               modes=modes, amplitude=amplitude)
    assert np.max(np.abs(got - want)) <= 1e-14


@pytest.mark.parametrize("size, modes, amplitude", [(2049, 3, 0.6), (130, 2, 1.3)])
def test_random_unitary_gauge_is_bitwise_the_per_wave_construction(size, modes, amplitude):
    # at nvec = 2: the field summed wave by wave and exponentiated by one
    # unitary_exp over the stack, to the last bit, and the generator left
    # where that construction leaves it. Exponentiating point by point
    # agrees to rounding only (numpy's loops differ for one matrix), which
    # test_random_unitary_gauge_matches_pointwise_loop bounds
    rng = np.random.default_rng(11)
    s = np.linspace(0.0, 1.0, size)
    field = np.zeros((size, 2, 2), dtype=np.complex128)
    for m in range(1, modes + 1):
        for wave in (np.cos(2 * np.pi * m * s), np.sin(2 * np.pi * m * s)):
            h = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
            h = 0.5 * (h + h.conj().T) * (amplitude / modes)
            field += wave[:, None, None] * h
    want = unitary_exp(1j * field)
    want[-1] = want[0]
    got_rng = np.random.default_rng(11)
    got = random_unitary_gauge(got_rng, size, 2, modes=modes, amplitude=amplitude)
    assert np.array_equal(got, want)
    assert got_rng.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("winding", [-1, 0, 2])
def test_random_phase_gauge_is_bitwise_the_per_mode_sum(winding):
    # the per-mode construction: a and b drawn per mode, the cos then the
    # sin term added to the winding ramp
    size, modes, amplitude = 513, 3, 0.4
    rng = np.random.default_rng(5)
    s = np.linspace(0.0, 1.0, size)
    alpha = 2.0 * np.pi * winding * s
    for m in range(1, modes + 1):
        a, b = rng.uniform(-amplitude, amplitude, size=2)
        alpha = alpha + a * np.cos(2 * np.pi * m * s) + b * np.sin(2 * np.pi * m * s)
    want = np.exp(1j * alpha)
    want[-1] = want[0]
    got_rng = np.random.default_rng(5)
    got = random_phase_gauge(got_rng, size, winding=winding, modes=modes,
                             amplitude=amplitude)
    assert got.shape == (size, 1, 1)
    assert got[:, 0, 0].tobytes() == want.tobytes()
    assert got_rng.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("winding", [0.5, -1.25, math.nan, math.inf])
def test_random_phase_gauge_refuses_open_winding(winding):
    # a winding of 0.5 would jump by about 2 between the last two samples,
    # hidden by the endpoint's identification with the start
    with pytest.raises(ValueError, match="winding must be a finite integer"):
        random_phase_gauge(np.random.default_rng(5), 65, winding=winding)
    assert random_phase_gauge(np.random.default_rng(5), 65, winding=2.0).shape == (65, 1, 1)


def test_gauge_covariance_of_loop_unitary(rng):
    path, _ = rotating_path(steps=1024)
    g = random_unitary_gauge(rng, path.steps + 1, 2, amplitude=0.7)
    new = gauge_transform(path, g)
    w, w2 = wilson_loop(path), wilson_loop(new)
    want = g[0].conj().T @ w @ g[0]
    assert np.max(np.abs(w2 - want)) < 1e-10


def test_gauge_invariants_of_loop(rng):
    # the loop unitary spectrum is the gauge invariant; the phase matrix
    # itself moves, keeping only its trace (mod 2 pi, for winding-free
    # gauges)
    path, _ = rotating_path(steps=1024)
    base_phases = np.sort(unitary_eigenphases(wilson_loop(path)))
    base_trace = float(np.trace(phase_matrix(path)).real)
    for _ in range(3):
        g = random_unitary_gauge(rng, path.steps + 1, 2, amplitude=0.6)
        new = gauge_transform(path, g)
        got = np.sort(unitary_eigenphases(wilson_loop(new)))
        assert np.max(np.abs(got - base_phases)) < 1e-8
        tr = float(np.trace(phase_matrix(new)).real)
        assert circular_distance(tr, base_trace) < 1e-8
        # non-vacuous: the raw samples did move
        shift = np.max(np.abs(connection_samples(new)
                              - connection_samples(path)))
        assert shift > 1e-3


def test_berry_invariant_under_winding_gauges(rng):
    # windings shift the raw angle sum by 2 pi k and must drop out
    path, _ = spin_path(math.pi / 6, steps=512)
    base = berry_phase(path)
    for winding in (-2, -1, 0, 1, 2):
        for _ in range(3):
            g = random_phase_gauge(rng, path.steps + 1, winding=winding,
                                   amplitude=0.4)
            new = gauge_transform(path, g)
            assert circular_distance(berry_phase(new), base) < 1e-9


def test_gauge_transform_rejects_open_gauge(rng):
    path, _ = spin_path(math.pi / 6, steps=64)
    g = np.exp(1j * np.linspace(0.0, 0.3, 65))
    with pytest.raises(ValueError):
        gauge_transform(path, g[:, None, None])


def test_open_gauge_raises_the_typed_closure_error():
    # refused as an open frame array is: NonCyclicError carrying the
    # defect it measured
    path, _ = spin_path(math.pi / 6, steps=64)
    g = np.exp(1j * np.linspace(0.0, 0.3, 65))
    with pytest.raises(NonCyclicError, match="gauge path must close") as exc:
        gauge_transform(path, g[:, None, None])
    assert exc.value.defect == pytest.approx(abs(np.exp(0.3j) - 1.0), rel=1e-12)


@pytest.mark.parametrize("modes", [0, -1, 1.5, 2.0])
def test_random_unitary_gauge_refuses_modes_that_are_not_positive_integers(modes):
    # modes = 0 divided the amplitude by zero; its twin random_phase_gauge
    # takes 0 as no Fourier rows
    with pytest.raises(ValueError, match="modes must be a positive integer"):
        random_unitary_gauge(np.random.default_rng(5), 65, 2, modes=modes)


def test_coarse_grid_refused():
    # two samples per turn leaves orthogonal successive frames, caught
    # before any phase is extracted
    with pytest.raises(GridTooCoarseError):
        spin_path(math.pi / 4, steps=2)


def test_coarse_frame_path_refused_at_construction():
    # a FramePath built directly skips sample_frames, and still cannot
    # exist on a grid too coarse for its overlaps
    m = SpinHalf(theta=math.pi / 4)
    times = np.linspace(0.0, m.period, 3)
    col = m.frame_batch(times)[:, :, :1]
    col[-1] = col[0]
    two = np.kron(np.eye(2), col)
    assert two.shape == (3, 4, 2)
    guard = r"at interval [01]: smallest singular value 0\.000 <= 0\.5"
    for frames in (col, two):
        with pytest.raises(GridTooCoarseError, match=guard):
            FramePath(times, frames, 0.0)


def test_decimation_refuses_a_coarse_half_grid():
    # at theta = pi/4 the overlap magnitude is |cos(pi / M)|: 0.71 at four
    # steps, 0 at two
    path, _m = spin_path(math.pi / 4, steps=4)
    assert np.min(np.abs(path.overlaps)) > 0.7
    with pytest.raises(GridTooCoarseError, match="refine the grid"):
        path.decimated()


def test_overlaps_match_einsum_and_are_read_only():
    # against one product per interval; summation orders differ by a
    # rounding of the unit-sized entries
    path, _m = rotating_path(steps=64)
    f = path.frames
    want = np.stack([f[k].conj().T @ f[k + 1] for k in range(path.steps)])
    assert np.max(np.abs(path.overlaps - want)) <= 1e-15
    assert not path.overlaps.flags.writeable
    with pytest.raises(ValueError):
        path.overlaps[0, 0, 0] = 1.0


def test_array_source_is_copied_and_frames_are_read_only():
    # the raw endpoint misses the start by a rounding, so identifying it
    # in place would write into the caller's array
    m = SpinHalf(theta=math.pi / 3)
    f = np.ascontiguousarray(m.frame_batch(np.linspace(0.0, m.period, 65))[:, :, :1])
    assert not np.array_equal(f[-1], f[0])
    before = f.copy()
    path = sample_frames(f, period=m.period)
    assert np.array_equal(f, before)
    assert path.frames is not f and not np.shares_memory(path.frames, f)
    assert not path.frames.flags.writeable
    with pytest.raises(ValueError):
        path.frames[0, 0, 0] = 1.0


def test_array_source_steps_must_match():
    m = SpinHalf(theta=math.pi / 3)
    f = m.frame_batch(np.linspace(0.0, m.period, 65))[:, :, :1]
    with pytest.raises(ValueError, match=r"steps=256 does not match a frame array of 65"):
        sample_frames(f, steps=256, period=m.period)
    assert sample_frames(f, steps=64, period=m.period).steps == 64
    assert sample_frames(EigenframeSource(m.invariant)).steps == 4096


def test_aligned_coarse_grid_refused():
    # the aligned route judges the overlaps its alignment factored
    source = EigenframeSource(SpinHalf(theta=math.pi / 4).invariant)
    with pytest.raises(GridTooCoarseError, match="interval 0"):
        sample_frames(source, steps=2)


def test_eigenframe_split_grid_refused():
    # levels +-|cos t| merge mid-path: no consistent group to follow
    inv = trig_family(np.zeros((2, 2), dtype=complex), SIGMA_Z.copy(),
                      np.zeros((2, 2), dtype=complex), 1.0)
    # at t = pi/2, on the grid, the levels coincide; the structure check
    # runs before the overlap check and names that sample
    with pytest.raises(DegeneracySplitError, match=r"changed at t=1\.5708:"):
        sample_frames(EigenframeSource(inv, group=0), steps=128)


def _spoiled_equator_family(jx, jy, spoil):
    # H(t) = cos(2 pi t) Jx + sin(2 pi t) Jy, Hermitian at t = 0 and t = 1,
    # with spoil applied to the samples at 0.4 < t < 0.6
    def sampler(ts):
        h = (np.cos(TWO_PI * ts)[:, None, None] * jx
             + np.sin(TWO_PI * ts)[:, None, None] * jy)
        spoil(h, (ts > 0.4) & (ts < 0.6))
        return h

    return OperatorFamily(jx.shape[0], 1.0, sampler, label="spoiled")


def _spoil_lower_corner(h, mid):
    h[mid, 1, 0] += 0.3


def _spoil_upper_triangle(h, mid):
    for i, j in ((0, 1), (0, 2), (1, 2)):
        h[mid, i, j] += 0.3


def _plant_nan(h, mid):
    h[mid] = np.nan


_S1 = 1 / math.sqrt(2)
_SPIN1_X = _S1 * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
_SPIN1_Y = _S1 * np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]])


@pytest.mark.parametrize(
    "jx,jy,spoil",
    [(SIGMA_X, SIGMA_Y, _spoil_lower_corner),
     (_SPIN1_X, _SPIN1_Y, _spoil_upper_triangle),
     (SIGMA_X, SIGMA_Y, _plant_nan)],
    ids=["2x2-lower-corner", "3x3-upper-triangle", "2x2-nan"],
)
def test_eigenframes_refuse_non_hermitian_samples(jx, jy, spoil):
    # the 2 x 2 closed form reads the upper corner and LAPACK the lower
    # triangle, so either would diagonalize a spoiled sample silently;
    # a NaN would surface only as a degeneracy split
    source = EigenframeSource(_spoiled_equator_family(jx, jy, spoil))
    with pytest.raises(HermiticityError, match="sample stack is not Hermitian"):
        sample_frames(source, steps=512)


def test_open_path_refused():
    # a quarter turn over the nominal period: the endpoint frame misses
    # the start by a finite amount
    t = np.linspace(0.0, TWO_PI, 65)
    open_frames = np.stack([np.cos(t / 4), np.sin(t / 4)], axis=1)[:, :, None]
    with pytest.raises(NonCyclicError) as exc:
        sample_frames(open_frames, period=TWO_PI)
    assert exc.value.defect > 0.1


def test_fully_degenerate_family_gives_whole_space():
    fam = constant_family(np.eye(2, dtype=complex), TWO_PI)
    path = sample_frames(EigenframeSource(fam, group=0), steps=64)
    assert path.nvec == 2
    assert np.max(np.abs(phase_matrix(path))) < 1e-12


def test_decimation_and_report():
    path, m = rotating_path(steps=2048)
    rep = holonomy_report(path)
    assert rep["steps"] == 2048
    assert rep["berry"] is None
    assert rep["convergence"]["gamma"] < 1e-6
    half = path.decimated()
    assert half.steps == 1024
    assert np.max(np.abs(half.frames[0] - path.frames[0])) == 0.0


def two_plane_path(rng, steps):
    # a 2-plane of C^4 carried once around by exp(-i phi(t) G), G with the
    # integer spectrum 0..3 so the loop closes, at the uneven speed
    # phi'(t) = 1 + cos(t - 1) / 2: the weakest overlap is unique, near
    # t = 1
    v = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    f0 = np.linalg.qr(rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))[0]
    t = np.linspace(0.0, TWO_PI, steps + 1)
    phi = t + 0.5 * np.sin(t - 1)
    rot = (v * np.exp(-1j * phi[:, None, None] * np.arange(4.0))) @ v.conj().T
    return sample_frames(rot @ f0, steps=steps, period=TWO_PI)


def test_min_overlap_is_the_weakest_overlap_and_gauge_invariant(rng):
    path = two_plane_path(rng, 256)
    smins = np.linalg.svd(path.overlaps, compute_uv=False)[:, -1]
    k = path.min_overlap_at
    assert isinstance(k, int) and k == int(np.argmin(smins))
    assert abs(path.min_overlap - smins[k]) <= 1e-14
    assert path.min_overlap < 0.9999
    with pytest.raises(AttributeError):
        path.min_overlap = 1.0
    # unitary gauges keep every overlap's singular values
    new = gauge_transform(path, random_unitary_gauge(rng, path.steps + 1, 2,
                                                     amplitude=0.7))
    assert new.min_overlap_at == k
    assert abs(new.min_overlap - path.min_overlap) <= 1e-14
    # the half grid's overlaps are its own, and weaker
    half = path.decimated()
    half_smins = np.linalg.svd(half.overlaps, compute_uv=False)[:, -1]
    assert half.min_overlap_at == int(np.argmin(half_smins))
    assert abs(half.min_overlap - np.min(half_smins)) <= 1e-14
    assert half.min_overlap < path.min_overlap
    rep = holonomy_report(path, estimate_convergence=False)
    assert (rep["min_overlap"], rep["min_overlap_at"]) == (path.min_overlap, k)


def test_berry_dual_route_guard():
    # both internal routes agree to far better than the guard threshold
    path, _ = spin_path(math.pi / 3, steps=1024)
    got = berry_phase(path)
    assert 0.0 <= got < TWO_PI
    w = wilson_loop(path)
    assert circular_distance(got, mod_2pi(-float(np.angle(w[0, 0])))) < 1e-9


def test_sum_of_branch_phases_is_quantized():
    # the two spin line bundles fill the whole space: their loop phases
    # must add to 0 mod 2 pi
    for theta in (0.3, 0.9):
        p_plus, _ = spin_path(theta, steps=2048, column=0)
        p_minus, _ = spin_path(theta, steps=2048, column=1)
        total = berry_phase(p_plus) + berry_phase(p_minus)
        assert circular_distance(total, 0.0) < 1e-6
