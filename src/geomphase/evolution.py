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
    total: float
    dynamic: float
    geometric: float
    cyclic_defect: float
    steps: int


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


def energy_expectation(traj):
    """Re <psi(t)|H(t)|psi(t)> / <psi(t)|psi(t)> on the grid edges, so a
    norm drift of the propagator does not leak into the dynamic phase."""
    psi = traj.states
    hs = traj.family.sample(traj.times)
    e = np.einsum("mi,mij,mj->m", psi.conj(), hs, psi).real
    return e / np.einsum("mi,mi->m", psi.conj(), psi).real


def dynamic_phase(traj):
    """Minus the time integral of the energy expectation (trapezoid)."""
    return float(-np.trapezoid(energy_expectation(traj), traj.times))


def cyclic_defect(traj):
    """Distance of the final state from the initial ray."""
    o = np.vdot(traj.states[0], traj.states[-1])
    if abs(o) == 0.0:
        return float(np.sqrt(2.0))
    return float(np.linalg.norm(traj.states[-1] - (o / abs(o)) * traj.states[0]))


def aa_phase(traj):
    """Split the phase of a cyclic run into dynamic and geometric parts.

    The geometric part is returned in [0, 2*pi). A cyclic defect above
    CYCLIC_TOL raises: the split is meaningless when the state does not
    come back.
    """
    defect = cyclic_defect(traj)
    if not defect <= CYCLIC_TOL:
        raise NonCyclicError(
            f"cannot decompose phases: cyclic defect {defect:.3e} exceeds "
            f"{CYCLIC_TOL:.1e}",
            defect,
        )
    total = float(np.angle(np.vdot(traj.states[0], traj.states[-1])))
    dyn = dynamic_phase(traj)
    geo = float(mod_2pi(total - dyn))
    return PhaseReport(total, dyn, geo, defect, traj.steps)
