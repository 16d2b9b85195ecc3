"""Discrete holonomy of closed frame paths: per-interval connection
samples, their summed phase matrix, the loop unitary, Abelian Berry
phases, and gauge transport of whole paths.

A path stores M+1 frames on a closed parameter grid with the endpoint
identified with the start, so the loop holonomy sits entirely in the
last overlap and every quantity below is strictly a function of the
sampled loop.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import (
    BranchCutError,
    DegeneracySplitError,
    GeomPhaseError,
    GridTooCoarseError,
    NonCyclicError,
    UnitarityError,
)
from .linalg import (
    _first_structure_break,
    circular_distance,
    group_degenerate,
    matrix_log_unitary,
    mod_2pi,
    polar_unitary,
    unitary_eigenphases,
    unitary_exp,
)


@dataclass(frozen=True)
class FramePath:
    """Closed path of (dim, nvec) frames over a parameter grid.

    frames[-1] is byte-identical to frames[0]; closure_defect records how
    far the raw sampled endpoint was from the start before identification.
    """

    times: np.ndarray
    frames: np.ndarray
    closure_defect: float

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        f = np.asarray(self.frames)
        if t.ndim != 1 or t.size < 3 or f.ndim != 3 or f.shape[0] != t.size:
            raise ValueError("need times (M+1,) and frames (M+1, dim, nvec), M >= 2")
        if np.any(np.diff(t) <= 0):
            raise ValueError("grid must be strictly increasing")
        if not np.array_equal(f[-1], f[0]):
            raise NonCyclicError("endpoint frame is not identified with the start", None)

    @property
    def steps(self):
        return self.times.size - 1

    @property
    def dim(self):
        return self.frames.shape[1]

    @property
    def nvec(self):
        return self.frames.shape[2]

    def overlaps(self):
        """Consecutive overlap matrices <F_k | F_{k+1}>, shape (M, K, K)."""
        f = self.frames
        return np.einsum("mia,mib->mab", f[:-1].conj(), f[1:])

    def decimated(self):
        """The same loop sampled at every second grid point."""
        if self.steps % 2:
            raise ValueError("decimation needs an even step count")
        return FramePath(self.times[::2], self.frames[::2].copy(), self.closure_defect)


@dataclass(frozen=True)
class EigenframeSource:
    """Frames from diagonalizing a periodic operator family.

    group selects one degenerate cluster (ascending eigenvalues) at t=0;
    the per-sample gauges are arbitrary until alignment.
    """

    family: object
    group: int = 0
    rel_tol: float = 1e-8


def _check_overlap_strength(smins):
    k = int(np.argmin(smins))
    if smins[k] <= 0.5:
        raise GridTooCoarseError(
            f"consecutive frames nearly lose overlap at interval {k}: smallest "
            f"singular value {smins[k]:.3f} <= 0.5, refine the grid"
        )


def sample_frames(source, steps=4096, period=None, align=None, closure_tol=1e-8):
    """Build a closed FramePath from one of three sources.

    source may be an EigenframeSource, a callable t -> (dim, nvec) or
    (dim,) array, or a precomputed (M+1, dim, nvec) array over a uniform
    grid. Callables and arrays keep their own gauge unless align=True;
    eigensolver frames are always aligned (their raw gauge is noise).
    """
    if isinstance(source, EigenframeSource):
        if period is None:
            period = source.family.period
        grid = np.linspace(0.0, float(period), steps + 1)
        frames, defect = _eigenframes(source, grid)
        align = True if align is None else align
    else:
        if isinstance(source, np.ndarray):
            frames = np.ascontiguousarray(source, dtype=np.complex128)
            if frames.ndim != 3:
                raise ValueError(f"frame array must be (M+1, dim, nvec), got {frames.shape}")
            steps = frames.shape[0] - 1
            if period is None:
                raise ValueError("array sources need an explicit period")
            grid = np.linspace(0.0, float(period), steps + 1)
        else:
            if period is None:
                raise ValueError("callable sources need an explicit period")
            grid = np.linspace(0.0, float(period), steps + 1)
            first = np.asarray(source(grid[0]), dtype=np.complex128)
            if first.ndim == 1:
                first = first[:, None]
            frames = np.empty((steps + 1,) + first.shape, dtype=np.complex128)
            frames[0] = first
            for k in range(1, steps + 1):
                fk = np.asarray(source(grid[k]), dtype=np.complex128)
                frames[k] = fk[:, None] if fk.ndim == 1 else fk
        gram = np.einsum("mia,mib->mab", frames.conj(), frames)
        gdef = float(np.max(np.abs(gram - np.eye(frames.shape[2]))))
        if gdef > 1e-10:
            raise UnitarityError(
                f"sampled frames are not orthonormal: max |F^H F - I| = {gdef:.3e}"
            )
        defect = float(np.max(np.abs(frames[-1] - frames[0])))
        if defect > closure_tol:
            raise NonCyclicError(
                f"frame path does not close: endpoint deviates by {defect:.3e} "
                f"from the start (tolerance {closure_tol:.1e})",
                defect,
            )
        frames[-1] = frames[0]
        align = False if align is None else align

    if align:
        # the singular values of F_{k+1}^H F_k, which alignment factors,
        # are those of F_k^H F_{k+1}
        frames, smins = _kernels.align_frames(frames)
        frames[-1] = frames[0]
    else:
        smins = _kernels.overlap_smins(frames)
    _check_overlap_strength(smins)
    return FramePath(grid, frames, defect)


def _eigenframes(source, grid):
    family = source.family
    ws, vs = _kernels.eigh_batch(family.sample(grid))
    groups0 = group_degenerate(ws[0], rel_tol=source.rel_tol)
    if not 0 <= source.group < len(groups0):
        raise ValueError(
            f"group index {source.group} out of range, found {len(groups0)} "
            f"degenerate clusters at t=0"
        )
    sizes0 = [g.stop - g.start for g in groups0]
    k = _first_structure_break(ws, rel_tol=source.rel_tol)
    if k is not None:
        gk = group_degenerate(ws[k], rel_tol=source.rel_tol)
        raise DegeneracySplitError(
            f"degenerate cluster structure changed at t={grid[k]:.6g}: "
            f"{[g.stop - g.start for g in gk]} vs {sizes0} at t=0"
        )
    frames = np.ascontiguousarray(vs[:, :, groups0[source.group]])
    p0 = frames[0] @ frames[0].conj().T
    pM = frames[-1] @ frames[-1].conj().T
    defect = float(np.max(np.abs(pM - p0)))
    if defect > 1e-8:
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
    o = path.overlaps()
    if path.nvec == 1:
        mags = np.abs(o[:, 0, 0])
        k = int(np.argmin(mags))
        if mags[k] <= 0.5:
            raise GridTooCoarseError(
                f"overlap magnitude {mags[k]:.3f} <= 0.5 at interval {k}, "
                "refine the grid"
            )
        return (-np.angle(o[:, 0, 0]))[:, None, None].astype(np.complex128)
    u, smins = _kernels.polar_unitary(o)
    k = int(np.argmin(smins))
    if smins[k] <= 0.5:
        raise GridTooCoarseError(
            f"overlap at interval {k} is nearly singular (smin {smins[k]:.3f}), "
            "refine the grid"
        )
    try:
        # the log is exactly skew-Hermitian, so i * log is exactly Hermitian
        return 1j * matrix_log_unitary(u)
    except BranchCutError as e:
        raise GridTooCoarseError(
            f"a connection sample hits the log branch cut ({e}), refine the grid"
        ) from e


def phase_matrix(path):
    """Summed connection samples of the loop, a Hermitian (K, K) matrix."""
    g = np.sum(connection_samples(path), axis=0)
    return 0.5 * (g + g.conj().T)


def wilson_loop(path):
    """Unitary part of the ordered overlap product around the loop."""
    o = np.ascontiguousarray(path.overlaps())
    return polar_unitary(_kernels.chain_product(o))


def berry_phase(path):
    """Abelian loop phase in [0, 2*pi), from a single-vector path.

    Computed two ways, as the summed overlap angles and as the angle of
    the overlap product; disagreement beyond roundoff is refused rather
    than averaged away.
    """
    if path.nvec != 1:
        raise ValueError(f"berry_phase needs a single-vector path, got nvec={path.nvec}")
    o = path.overlaps()[:, 0, 0]
    mags = np.abs(o)
    k = int(np.argmin(mags))
    if mags[k] <= 0.5:
        raise GridTooCoarseError(
            f"overlap magnitude {mags[k]:.3f} <= 0.5 at interval {k}, refine the grid"
        )
    by_sum = mod_2pi(-np.sum(np.angle(o)))
    by_product = mod_2pi(-np.angle(np.prod(o / mags)))
    gap = circular_distance(by_sum, by_product)
    if gap > 1e-9:
        raise GeomPhaseError(
            f"loop phase routes disagree by {gap:.3e}: summed angles "
            f"{by_sum:.12f} vs product angle {by_product:.12f}"
        )
    return float(by_sum)


def gauge_transform(path, gauges, end_tol=1e-12):
    """Apply a closed pointwise gauge g(t) to a path: F_k -> F_k g_k."""
    g = np.asarray(gauges, dtype=np.complex128)
    if g.shape != (path.times.size, path.nvec, path.nvec):
        raise ValueError(
            f"gauge path must have shape {(path.times.size, path.nvec, path.nvec)}, "
            f"got {g.shape}"
        )
    gram = np.einsum("mab,mac->mbc", g.conj(), g)
    gdef = float(np.max(np.abs(gram - np.eye(path.nvec))))
    if gdef > 1e-10:
        raise UnitarityError(f"gauge factors are not unitary: defect {gdef:.3e}")
    enddef = float(np.max(np.abs(g[-1] - g[0])))
    if enddef > end_tol:
        raise ValueError(
            f"gauge path must close, |g(T) - g(0)| = {enddef:.3e} > {end_tol:.1e}"
        )
    new = path.frames @ g
    new[-1] = new[0]
    return FramePath(path.times, new, path.closure_defect)


def random_phase_gauge(rng, size, winding=0, modes=3, amplitude=0.5):
    """Smooth random closed U(1) gauge path, shape (size, 1, 1)."""
    s = np.linspace(0.0, 1.0, size)
    alpha = 2.0 * np.pi * winding * s
    for m in range(1, modes + 1):
        a, b = rng.uniform(-amplitude, amplitude, size=2)
        alpha = alpha + a * np.cos(2 * np.pi * m * s) + b * np.sin(2 * np.pi * m * s)
    g = np.exp(1j * alpha)
    g[-1] = g[0]
    return g[:, None, None]


def random_unitary_gauge(rng, size, nvec, modes=3, amplitude=0.5):
    """Smooth random closed U(K) gauge path, shape (size, K, K)."""
    s = np.linspace(0.0, 1.0, size)
    field = np.zeros((size, nvec, nvec), dtype=np.complex128)
    for m in range(1, modes + 1):
        for wave in (np.cos(2 * np.pi * m * s), np.sin(2 * np.pi * m * s)):
            h = rng.uniform(-1, 1, (nvec, nvec)) + 1j * rng.uniform(-1, 1, (nvec, nvec))
            h = 0.5 * (h + h.conj().T) * (amplitude / modes)
            field += wave[:, None, None] * h
    g = unitary_exp(1j * field)
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
