"""Discrete holonomy of closed frame paths: per-interval connection
samples, their summed phase matrix, the loop unitary, Abelian Berry
phases, and gauge transport of whole paths.

A path stores M+1 frames on a closed parameter grid with the endpoint
identified with the start, so the loop holonomy sits entirely in the
last overlap and every quantity below is strictly a function of the
sampled loop. Each path forms its consecutive overlaps once, when it is
built, and refuses a grid too coarse for them there; every quantity
below reads that one stack.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import BranchCutError, GeomPhaseError, GridTooCoarseError, NonCyclicError
from .invariants import _eigenspaces, _refuse_split
from .linalg import (
    circular_distance,
    matrix_log_unitary,
    mod_2pi,
    polar_unitary,
    require_unitary,
    unitary_eigenphases,
)

# a gauge path whose ends differ by more than this does not close
GAUGE_END_TOL = 1e-12


@dataclass(frozen=True)
class FramePath:
    """Closed path of (dim, nvec) frames over a parameter grid.

    frames[-1] is byte-identical to frames[0]; closure_defect records how
    far the raw sampled endpoint was from the start before identification.
    The path owns its frames and makes them read-only, so they cannot
    drift from the overlaps formed from them. overlaps is the read-only
    stack (M, K, K) of consecutive overlaps <F_k | F_{k+1}>, formed at
    construction. A path whose weakest overlap, by smallest singular value
    (the magnitude for one column), is at most 0.5 cannot be built: its
    samples are too far apart to follow the eigenspace. min_overlap is
    that weakest smallest singular value and min_overlap_at its interval,
    the path's health: a unitary gauge leaves both unchanged.
    """

    times: np.ndarray
    frames: np.ndarray
    closure_defect: float
    overlaps: np.ndarray = field(init=False, repr=False, compare=False)
    min_overlap: float = field(init=False, compare=False)
    min_overlap_at: int = field(init=False, compare=False)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        f = np.asarray(self.frames)
        if t.ndim != 1 or t.size < 3 or f.ndim != 3 or f.shape[0] != t.size:
            raise ValueError("need times (M+1,) and frames (M+1, dim, nvec), M >= 2")
        if not np.all(np.diff(t) > 0):
            raise ValueError("grid must be strictly increasing")
        if not np.array_equal(f[-1], f[0]):
            raise NonCyclicError("endpoint frame is not identified with the start", None)
        o, smins = _kernels.overlap_smins(f)
        k = int(np.argmin(smins))
        if not smins[k] > 0.5:
            raise GridTooCoarseError(
                f"consecutive frames nearly lose overlap at interval {k}: smallest "
                f"singular value {smins[k]:.3f} <= 0.5, refine the grid"
            )
        f.flags.writeable = False
        o.flags.writeable = False
        object.__setattr__(self, "frames", f)
        object.__setattr__(self, "overlaps", o)
        object.__setattr__(self, "min_overlap", float(smins[k]))
        object.__setattr__(self, "min_overlap_at", k)

    @property
    def steps(self):
        return self.times.size - 1

    @property
    def dim(self):
        return self.frames.shape[1]

    @property
    def nvec(self):
        return self.frames.shape[2]

    def decimated(self):
        """The same loop sampled at every second grid point."""
        if self.steps % 2:
            raise ValueError("decimation needs an even step count")
        return FramePath(self.times[::2], self.frames[::2].copy(), self.closure_defect)


@dataclass(frozen=True)
class EigenframeSource:
    """Frames from diagonalizing a periodic operator family.

    group selects one degenerate group (ascending eigenvalues) at t=0;
    the per-sample gauges are arbitrary until alignment.
    """

    family: object
    group: int = 0


def sample_frames(source, steps=None, period=None):
    """Build a closed FramePath from an EigenframeSource or from a
    precomputed (M+1, dim, nvec) frame array over a uniform grid.

    Eigensolver frames are parallel-aligned, since their raw gauge is
    noise, over `steps` intervals (4096 by default). An array is copied
    and keeps its own gauge; its length sets the step count, which a
    given `steps` must match, and it must close to 1e-8 on its own.
    """
    if isinstance(source, EigenframeSource):
        if period is None:
            period = source.family.period
        if steps is None:
            steps = 4096
        grid = np.linspace(0.0, float(period), steps + 1)
        frames, defect = _eigenframes(source, grid)
        # alignment keeps both ends, which _eigenframes identified
        return FramePath(grid, _kernels.align_frames(frames), defect)
    frames = np.array(source, dtype=np.complex128, order="C")
    if frames.ndim != 3:
        raise ValueError(f"frame array must be (M+1, dim, nvec), got {frames.shape}")
    if steps is not None and steps != frames.shape[0] - 1:
        raise ValueError(
            f"steps={steps} does not match a frame array of {frames.shape[0]} samples"
        )
    if period is None:
        raise ValueError("array sources need an explicit period")
    require_unitary(frames, name="frame array")
    return _array_path(frames, period)


def _array_path(frames, period):
    """Closed FramePath from an orthonormal frame array (M+1, dim, nvec)
    the path may own: checked closed, then its endpoint identified with
    the start in place."""
    grid = np.linspace(0.0, float(period), frames.shape[0])
    defect = float(np.max(np.abs(frames[-1] - frames[0])))
    if not defect <= 1e-8:
        raise NonCyclicError(
            f"frame path does not close: endpoint deviates by {defect:.3e} "
            "from the start (tolerance 1e-8)",
            defect,
        )
    frames[-1] = frames[0]
    return FramePath(grid, frames, defect)


def _eigenframes(source, grid):
    ws, vs, groups0, k = _eigenspaces(source.family, grid)
    if not 0 <= source.group < len(groups0):
        raise ValueError(
            f"group index {source.group} out of range, found {len(groups0)} "
            f"degenerate groups at t=0"
        )
    if k is not None:
        _refuse_split(grid, ws, k, groups0)
    frames = np.ascontiguousarray(vs[:, :, groups0[source.group]])
    p0 = frames[0] @ frames[0].conj().T
    pM = frames[-1] @ frames[-1].conj().T
    defect = float(np.max(np.abs(pM - p0)))
    if not defect <= 1e-8:
        raise NonCyclicError(
            f"eigenspace does not return to itself over the period: projector "
            f"defect {defect:.3e}",
            defect,
        )
    frames[-1] = frames[0]
    return frames, defect


def connection_samples(path):
    """Per-interval connection integrals, shape (M, K, K), Hermitian.

    Sample k approximates the connection one-form integrated over interval
    k, so the samples sum to the phase matrix of the loop.
    """
    o = path.overlaps
    if path.nvec == 1:
        return (-np.angle(o[:, 0, 0]))[:, None, None].astype(np.complex128)
    u = _kernels.polar_unitary(o)[0]
    try:
        # the log is exactly skew-Hermitian, so i * log is exactly Hermitian
        return 1j * matrix_log_unitary(u)
    except BranchCutError as e:
        raise GridTooCoarseError(
            f"a connection sample hits the log branch cut ({e}), refine the grid"
        ) from e


def phase_matrix(path):
    """Summed connection samples of the loop, a (K, K) matrix that is
    Hermitian bit for bit: each sample is, and the sum adds entries
    (i, j) and (j, i) in the same order."""
    return np.sum(connection_samples(path), axis=0)


def wilson_loop(path):
    """Unitary part of the ordered overlap product around the loop.

    This is the inverse of the transport holonomy: for a closed
    eigenframe path with first frame F0 and a single column,
    F0^H U(T) F0 = e^{i dynamic} W^H, U(T) the propagator over the loop.
    """
    return polar_unitary(_kernels.chain_product(path.overlaps))


def berry_phase(path):
    """Abelian loop phase in [0, 2*pi), from a single-vector path.

    Computed two ways, as the summed overlap angles and as the angle of
    the overlap product; disagreement beyond roundoff is refused rather
    than averaged away.
    """
    if path.nvec != 1:
        raise ValueError(f"berry_phase needs a single-vector path, got nvec={path.nvec}")
    o = path.overlaps[:, 0, 0]
    mags = np.abs(o)
    by_sum = mod_2pi(-np.sum(np.angle(o)))
    by_product = mod_2pi(-np.angle(np.prod(o / mags)))
    gap = circular_distance(by_sum, by_product)
    if not gap <= 1e-9:
        raise GeomPhaseError(
            f"loop phase routes disagree by {gap:.3e}: summed angles "
            f"{by_sum:.12f} vs product angle {by_product:.12f}"
        )
    return float(by_sum)


def gauge_transform(path, gauges):
    """Apply a closed pointwise gauge g(t) to a path: F_k -> F_k g_k."""
    g = np.asarray(gauges, dtype=np.complex128)
    if g.shape != (path.times.size, path.nvec, path.nvec):
        raise ValueError(
            f"gauge path must have shape {(path.times.size, path.nvec, path.nvec)}, "
            f"got {g.shape}"
        )
    require_unitary(g, name="gauge path")
    enddef = float(np.max(np.abs(g[-1] - g[0])))
    if not enddef <= GAUGE_END_TOL:
        raise NonCyclicError(
            f"gauge path must close, |g(T) - g(0)| = {enddef:.3e} > {GAUGE_END_TOL:.1e}",
            enddef,
        )
    new = _kernels._matmul(path.frames, g)
    new[-1] = new[0]
    return FramePath(path.times, new, path.closure_defect)


def _fourier_rows(size, modes):
    """The grid s of size points over [0, 1] and the (2 modes, size) rows
    cos(2 pi m s), sin(2 pi m s) for m = 1..modes, in that order."""
    s = np.linspace(0.0, 1.0, size)
    rows = np.empty((2 * modes, size))
    for m in range(1, modes + 1):
        x = 2 * np.pi * m * s
        np.cos(x, out=rows[2 * m - 2])
        np.sin(x, out=rows[2 * m - 1])
    return s, rows


def random_phase_gauge(rng, size, winding=0, modes=3, amplitude=0.5):
    """Smooth random closed U(1) gauge path of integer winding, shape (size, 1, 1)."""
    if not float(winding).is_integer():
        raise ValueError(f"winding must be a finite integer, got {winding}")
    s, rows = _fourier_rows(size, modes)
    alpha = 2.0 * np.pi * winding * s
    for c, row in zip(rng.uniform(-amplitude, amplitude, 2 * modes), rows):
        alpha = alpha + c * row
    g = np.exp(1j * alpha)
    g[-1] = g[0]
    return g[:, None, None]


def random_unitary_gauge(rng, size, nvec, modes=3, amplitude=0.5):
    """Smooth random closed U(K) gauge path, shape (size, K, K).

    g = exp(i A) for the Hermitian field A(s) = sum over the Fourier rows
    of a random Hermitian K x K coefficient times the row, each
    coefficient (h + h^H) / 2 scaled by amplitude / modes, h's real and
    imaginary parts drawn uniform in [-1, 1]. The field is written entry
    by entry over i <= j from the (size,) rows, its lower triangle as the
    conjugate of the upper, so it is exactly Hermitian and goes straight
    to the step exponential. modes must be a positive integer.
    """
    if not (isinstance(modes, numbers.Integral) and modes >= 1):
        raise ValueError(f"modes must be a positive integer, got {modes!r}")
    _, rows = _fourier_rows(size, modes)
    # per row, the real then the imaginary parts of h
    draws = rng.uniform(-1, 1, (2 * modes, 2, nvec, nvec))
    h = draws[:, 0] + 1j * draws[:, 1]
    h = 0.5 * (h + _kernels._adjoint(h)) * (amplitude / modes)
    hr, hi = h.real, h.imag

    def combine(c):
        # sum over q of rows[q] * c[q], added in the order of the rows
        acc = rows[0] * c[0]
        for q in range(1, rows.shape[0]):
            acc += rows[q] * c[q]
        return acc

    field = np.empty((size, nvec, nvec), np.complex128)
    for i in range(nvec):
        field[:, i, i] = combine(hr[:, i, i])
        for j in range(i + 1, nvec):
            re, im = combine(hr[:, i, j]), combine(hi[:, i, j])
            upper, lower = field[:, i, j], field[:, j, i]
            upper.real = lower.real = re
            upper.imag = im
            np.negative(im, out=lower.imag)
    g = _kernels._expm_herm(field, -1.0)
    g[-1] = g[0]
    return g


def holonomy_report(path, estimate_convergence=True):
    """All loop quantities of one path in one dict, plus a step-halving
    shift estimate when the grid allows it."""
    gamma = phase_matrix(path)
    w = wilson_loop(path)
    rep = {
        "steps": path.steps,
        "nvec": path.nvec,
        "closure_defect": path.closure_defect,
        "min_overlap": path.min_overlap,
        "min_overlap_at": path.min_overlap_at,
        "gamma": gamma,
        "gamma_eigenvalues": np.linalg.eigvalsh(gamma),
        "wilson": w,
        "wilson_eigenphases": unitary_eigenphases(w),
        "berry": berry_phase(path) if path.nvec == 1 else None,
    }
    if estimate_convergence and path.steps % 2 == 0 and path.steps >= 4:
        half = path.decimated()
        conv = {"gamma": float(np.max(np.abs(phase_matrix(half) - gamma)))}
        if path.nvec == 1:
            conv["berry"] = float(circular_distance(berry_phase(half), rep["berry"]))
        rep["convergence"] = conv
    else:
        rep["convergence"] = None
    return rep
