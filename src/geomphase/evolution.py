"""Schroedinger evolution on a uniform grid and the phase bookkeeping on
top of it: total phase of a (nearly) cyclic run, dynamic phase from the
energy expectation, and their difference, the geometric remainder.

The propagator uses one midpoint exponential per interval, so each step
is exactly unitary and constant Hamiltonians are integrated exactly.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import NonCyclicError
from .linalg import mod_2pi, require_hermitian

# a cyclic defect above this leaves the phase split undefined
CYCLIC_TOL = 1e-2


@dataclass(frozen=True)
class Trajectory:
    """Propagated states on the time grid of one run: (M+1, n) for a
    state, (M+1, n, K) for a column block. Evolving the identity block
    gives the cumulative propagators."""

    family: object
    times: np.ndarray
    states: np.ndarray

    @property
    def steps(self):
        return self.times.size - 1

    @property
    def duration(self):
        return float(self.times[-1] - self.times[0])


def _time_grid(family, steps, duration=None):
    """The steps + 1 grid edges of a run over [0, duration]; duration
    defaults to the family period."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if duration is None:
        duration = family.period
    return np.linspace(0.0, float(duration), steps + 1)


def _hermitian_samples(family, times):
    """family.sample(times), refused with HermiticityError unless every
    sample is Hermitian to 1e-10 of the stack's scale; a NaN or infinite
    sample fails the check too."""
    hs = family.sample(times)
    scale = max(1.0, float(np.max(np.abs(hs))))
    return require_hermitian(hs, tol=1e-10 * scale,
                             name=f"family {family.label!r} sample stack")


@dataclass(frozen=True)
class PhaseReport:
    """The phase split of one cyclic run. norm_drift is the largest
    |<psi|psi> - 1| over the grid, the propagation's own health."""

    total: float
    dynamic: float
    geometric: float
    cyclic_defect: float
    steps: int
    norm_drift: float


def evolve(family, x0, steps=4096, duration=None):
    """Integrate i dX/dt = H(t) X over [0, duration] for a normalized
    state x0 (n,) or a column block x0 (n, K) with orthonormal columns.

    duration defaults to the family period; overriding it is how partial
    cycles and common time axes for mismatched blocks are run.
    """
    times = _time_grid(family, steps, duration)
    x0 = np.ascontiguousarray(x0, dtype=np.complex128)
    if x0.ndim not in (1, 2) or x0.shape[0] != family.dim or x0.size == 0:
        raise ValueError(f"state shape {x0.shape} does not match dim {family.dim}")
    if x0.ndim == 1:
        nrm = np.linalg.norm(x0)
        if not abs(nrm - 1.0) <= 1e-10:
            raise ValueError(f"initial state must be normalized, |psi| = {nrm:.12f}")
    else:
        defect = float(np.max(np.abs(x0.conj().T @ x0 - np.eye(x0.shape[1]))))
        if not defect <= 1e-10:
            raise ValueError(
                f"initial columns must be orthonormal, max |X^H X - I| = {defect:.3e}"
            )
    hs = _hermitian_samples(family, 0.5 * (times[:-1] + times[1:]))
    states = _kernels.propagate(hs, times[-1] / steps, x0)
    return Trajectory(family, times, states)


def _state_path(traj):
    """The (M+1, n) states of a state trajectory; the phase split of a
    column block is a K x K matrix, not these scalars."""
    if traj.states.ndim != 2:
        raise ValueError(
            f"the phase split is defined for a state's trajectory (M+1, n), "
            f"not for a column block's (M+1, n, K) = {traj.states.shape}"
        )
    return traj.states


def _energy_and_norms(traj):
    """Re <psi(t)|H(t)|psi(t)> and <psi(t)|psi(t)> on the grid edges."""
    psi = _state_path(traj)[..., None]
    hpsi = _kernels._matmul(traj.family.sample(traj.times), psi)
    e = _kernels._gram(psi, hpsi)[:, 0, 0].real
    return e, _kernels._gram(psi, psi)[:, 0, 0].real


def energy_expectation(traj):
    """Re <psi(t)|H(t)|psi(t)> / <psi(t)|psi(t)> on the grid edges, so a
    norm drift of the propagator does not leak into the dynamic phase."""
    e, norms = _energy_and_norms(traj)
    return e / norms


def dynamic_phase(traj):
    """Minus the time integral of the energy expectation (trapezoid)."""
    return float(-np.trapezoid(energy_expectation(traj), traj.times))


def cyclic_defect(traj):
    """Distance of the final state from the initial ray."""
    psi = _state_path(traj)
    o = np.vdot(psi[0], psi[-1])
    if abs(o) == 0.0:
        return float(np.sqrt(2.0))
    return float(np.linalg.norm(psi[-1] - (o / abs(o)) * psi[0]))


def aa_phase(traj):
    """Split the phase of a cyclic run into dynamic and geometric parts.

    The geometric part is returned in [0, 2*pi). A cyclic defect above
    CYCLIC_TOL raises: the split is meaningless when the state does not
    come back. The energies and the norm drift come from one pass over
    the states.
    """
    defect = cyclic_defect(traj)
    if not defect <= CYCLIC_TOL:
        raise NonCyclicError(
            f"cannot decompose phases: cyclic defect {defect:.3e} exceeds "
            f"{CYCLIC_TOL:.1e}",
            defect,
        )
    total = float(np.angle(np.vdot(traj.states[0], traj.states[-1])))
    e, norms = _energy_and_norms(traj)
    dyn = float(-np.trapezoid(e / norms, traj.times))
    geo = float(mod_2pi(total - dyn))
    drift = float(np.max(np.abs(norms - 1.0)))
    return PhaseReport(total, dyn, geo, defect, traj.steps, drift)
