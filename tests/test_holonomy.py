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
    NonCyclicError,
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
from geomphase.models import SIGMA_Z

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
    o = path.overlaps()
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


def test_coarse_grid_refused():
    # two samples per turn leaves orthogonal successive frames, caught
    # before any phase is extracted
    with pytest.raises(GridTooCoarseError):
        spin_path(math.pi / 4, steps=2)


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


def test_open_path_refused():
    # a quarter turn over the nominal period: the endpoint frame misses
    # the start by a finite amount
    def open_source(t):
        return np.array([math.cos(t / 4), math.sin(t / 4)], dtype=complex)

    with pytest.raises(NonCyclicError) as exc:
        sample_frames(open_source, steps=64, period=TWO_PI)
    assert exc.value.defect > 0.1


def test_fully_degenerate_family_gives_whole_space():
    fam = constant_family(np.eye(2, dtype=complex), TWO_PI)
    path = sample_frames(EigenframeSource(fam, group=0), steps=64)
    assert path.nvec == 2
    assert np.max(np.abs(phase_matrix(path))) < 1e-12


def test_callable_source_matches_array_source():
    m = SpinHalf(theta=0.7)
    steps = 256

    def source(t):
        return m.frame(t)[:, :1]

    p1 = sample_frames(source, steps=steps, period=m.period)
    frames = m.frame_batch(np.linspace(0, m.period, steps + 1))[:, :, :1]
    p2 = sample_frames(frames, steps=steps, period=m.period)
    assert np.max(np.abs(p1.frames - p2.frames)) < 1e-13
    assert circular_distance(berry_phase(p1), berry_phase(p2)) == 0.0


def test_decimation_and_report():
    path, m = rotating_path(steps=2048)
    rep = holonomy_report(path)
    assert rep["steps"] == 2048
    assert rep["berry"] is None
    assert rep["convergence"]["gamma"] < 1e-6
    half = path.decimated()
    assert half.steps == 1024
    assert np.max(np.abs(half.frames[0] - path.frames[0])) == 0.0


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
