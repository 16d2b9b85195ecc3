"""Checks that a candidate operator family really is an exact conserved
partner of a Hamiltonian family: the defining commutator identity, the
constancy of its spectrum, and the transport of its eigenspaces by the
actual propagator.
"""

import numpy as np

from . import _kernels
from .errors import DegeneracySplitError, TrackingAmbiguityError
from .evolution import _hermitian_samples, _time_grid, evolve
from .linalg import _first_structure_break, group_degenerate


def _default_times(family, n_times):
    return np.linspace(0.0, family.period, n_times)


def _eigenspaces(family, times):
    """The eigenspaces of a family along a grid, for every caller: the
    eigenvalues (M, n) and eigenvectors (M, n, n) of its samples, checked
    by _hermitian_samples since eigh_batch reads one triangle only; the
    degenerate groups of row 0; and the first row whose groups differ, or
    None, returned so that a caller can report an earlier failure first."""
    ws, vs = _kernels.eigh_batch(_hermitian_samples(family, times))
    return ws, vs, group_degenerate(ws[0]), _first_structure_break(ws)


def _refuse_split(times, ws, k, groups):
    """Raise DegeneracySplitError for row k of ws, whose degenerate groups
    differ from groups, those of row 0."""
    sizes = [g.stop - g.start for g in group_degenerate(ws[k])]
    raise DegeneracySplitError(
        f"degenerate group structure changed at t={times[k]:.6g}: "
        f"{sizes} vs {[g.stop - g.start for g in groups]} at t=0"
    )


def invariance_residual(hamiltonian, invariant, times=None, n_times=100):
    """max over times of || dI/dt - i[I, H] ||_F (central differences with
    a step of 1e-6 of the invariant's period).

    An exact conserved partner drives this to the finite-difference floor;
    anything O(1) means the pair does not belong together. A non-finite
    time raises ValueError, and a plain sampler's sample that is not
    Hermitian, NaN included, HermiticityError.
    """
    if hamiltonian.dim != invariant.dim:
        raise ValueError("families act on different dimensions")
    if times is None:
        times = _default_times(invariant, n_times)
    times = np.asarray(times, dtype=float)
    step = invariant.period * 1e-6
    ip = _hermitian_samples(invariant, times + step)
    im = _hermitian_samples(invariant, times - step)
    i0 = _hermitian_samples(invariant, times)
    h0 = _hermitian_samples(hamiltonian, times)
    deriv = (ip - im) / (2.0 * step)
    comm = 1j * (i0 @ h0 - h0 @ i0)
    resid = deriv - comm
    return float(np.sqrt(np.max(np.sum(np.abs(resid) ** 2, axis=(1, 2)))))


def eigenvalue_drift(invariant, times=None, n_times=100):
    """max over times and levels of |lambda_j(t) - lambda_j(0)|.

    A non-finite time raises ValueError, and a plain sampler's sample
    that is not Hermitian, NaN included, HermiticityError.
    """
    if times is None:
        times = _default_times(invariant, n_times)
    ws, _vs = _kernels.eigh_batch(_hermitian_samples(invariant, times))
    return float(np.max(np.abs(ws - ws[0])))


def transport_error(hamiltonian, invariant, steps=4096):
    """How far the propagator carries I(0)-eigenspaces off I(t)-eigenspaces.

    For every degenerate group g and time t of a grid over the
    Hamiltonian's period: project U(t) F_g(0) onto the complement of the
    group's eigenspace of I(t) and take the largest Frobenius norm.
    Exactly conserved partners give integrator-level noise. The eigenbasis
    of I(0) is evolved as one column block, after the invariant's levels
    are checked along the grid. A sample of a plain-sampler invariant
    that is not Hermitian, NaN included, raises HermiticityError; a split
    group or a lost level, whichever comes first, TrackingAmbiguityError.
    """
    times = _time_grid(hamiltonian, steps)
    ws, vs, groups, broken = _eigenspaces(invariant, times)
    gaps = np.diff([0.5 * (ws[0][g.start] + ws[0][g.stop - 1]) for g in groups])
    min_gap = float(np.min(gaps)) if gaps.size else np.inf

    # the first offending time wins; at that time a structure change is
    # reported before lost tracking
    starts = [g.start for g in groups]
    moved = np.abs(ws[:, starts] - ws[0, starts])
    far = moved > 0.25 * min_gap
    lost = np.flatnonzero(np.any(far, axis=1))
    if broken is not None and (lost.size == 0 or broken <= lost[0]):
        _refuse_split(times, ws, broken, groups)
    if lost.size:
        k = lost[0]
        j = np.argmax(far[k])
        raise TrackingAmbiguityError(
            f"eigenvalue tracking lost at t={times[k]:.6g}: level "
            f"moved by {moved[k, j]:.3e}"
        )

    carried = evolve(hamiltonian, vs[0], steps=steps).states
    worst = 0.0
    for g in groups:
        cg = carried[:, :, g]
        fg = vs[:, :, g]
        resid = cg - _kernels._matmul(fg, _kernels._gram(fg, cg))
        sq = np.einsum("mij,mij->m", resid.conj(), resid).real
        worst = max(worst, float(np.sqrt(np.max(sq))))
    return worst


def decompose_state(invariant, t, psi):
    """Weights of a state on the eigen-groups of I(t).

    Returns a list of (mean eigenvalue, weight) pairs, weights summing to
    the squared norm of the state. A non-finite t raises ValueError, and
    a plain sampler's sample that is not Hermitian, HermiticityError.
    """
    psi = np.asarray(psi, dtype=np.complex128)
    (w,), (v,), groups, _ = _eigenspaces(invariant, [t])
    out = []
    for g in groups:
        amp = v[:, g].conj().T @ psi
        out.append((float(np.mean(w[g])), float(np.real(np.vdot(amp, amp)))))
    return out
