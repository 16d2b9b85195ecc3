"""Schroedinger evolution on a uniform grid and the phase bookkeeping on
top of it: total phase of a (nearly) cyclic run, dynamic phase from the
energy expectation, and their difference, the geometric remainder.

The propagator uses one midpoint exponential per interval, so each step
is exactly unitary and constant Hamiltonians are integrated exactly.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import HermiticityError, NonCyclicError
from .linalg import mod_2pi

# a cyclic defect above this leaves the phase split undefined
CYCLIC_TOL = 1e-2


@dataclass(frozen=True)
class Trajectory:
    """States and cumulative propagators on the time grid of one run."""

    family: object
    times: np.ndarray
    states: np.ndarray
    propagators: np.ndarray

    @property
    def steps(self):
        return self.times.size - 1

    @property
    def duration(self):
        return float(self.times[-1] - self.times[0])


@dataclass(frozen=True)
class PhaseReport:
    total: float
    dynamic: float
    geometric: float
    cyclic_defect: float
    steps: int


def evolve(family, psi0, steps=4096, duration=None):
    """Integrate i dpsi/dt = H(t) psi over [0, duration].

    duration defaults to the family period; overriding it is how partial
    cycles and common time axes for mismatched blocks are run.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    psi0 = np.ascontiguousarray(psi0, dtype=np.complex128)
    if psi0.shape != (family.dim,):
        raise ValueError(f"state shape {psi0.shape} does not match dim {family.dim}")
    nrm = np.linalg.norm(psi0)
    if not abs(nrm - 1.0) <= 1e-10:
        raise ValueError(f"initial state must be normalized, |psi| = {nrm:.12f}")
    if duration is None:
        duration = family.period
    times = np.linspace(0.0, float(duration), steps + 1)
    mids = 0.5 * (times[:-1] + times[1:])
    hs = family.sample(mids)
    defect = float(np.max(np.abs(hs - hs.conj().transpose(0, 2, 1))))
    scale = max(1.0, float(np.max(np.abs(hs))))
    if not defect <= 1e-10 * scale:
        raise HermiticityError(
            f"family {family.label!r} produced non-Hermitian samples: "
            f"max defect {defect:.3e}"
        )
    states, props = _kernels.propagate(hs, float(duration) / steps, psi0)
    return Trajectory(family, times, states, props)


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
