"""Schroedinger evolution on a uniform grid and the phase bookkeeping on
top of it: total phase of a (nearly) cyclic run, dynamic phase from the
energy expectation, and their difference, the geometric remainder.

A family with a rotation (H0, G) turns rigidly, H(t) = R(t) H0 R(t)^H
with R(t) = e^{-i G t}, and is propagated exactly: its states are
R(t) e^{-i (H0 - G) t} x0, sums of fixed vectors times e^{-i Omega t},
from one pair of eigendecompositions per run, each row at its absolute
time (see _kernels._closed_form). rotating_family declares one, and
constant_family the case G = 0; a plain sampler whose checked midpoint
stack is one matrix takes the same closed form. Every other family
(trig_family, assemble_blocks, a plain sampler) is integrated with one
midpoint exponential per interval, so each step is exactly unitary; a
chunk of such a run whose midpoint samples all equal the first takes
the closed form from the chunk's first state.

A family built by trig_family, rotating_family, constant_family or
assemble_blocks is Hermitian by construction (OperatorFamily.hermitian):
its coefficients were checked once, and its samples at the finite times
of a run are used unchecked. A plain sampler's midpoint stack is refused
as a whole, against 1e-10 of its scale, before the first step, and
aa_phase refuses its grid-edge stack the same way before the first
energy.

A midpoint run goes through its grid in chunks of CHUNK_STEPS steps.
Each chunk propagates the last state of the previous chunk, writing its
states straight into the run's one (M+1, n) or (M+1, n, K) buffer.
aa_phase reads the energy expectation over the same chunks as one sum of
weighted quadratic forms of the states: a built family's terms with no
sample, else identity forms weighted by grid-edge samples. So a run
samples a trig_family at most once, at its midpoints, and a rotating or
constant family never, and holds its states plus one chunk's
temporaries (and, for a plain sampler, its midpoint or edge stack while
it is checked).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import GeomPhaseError, NonCyclicError
from .linalg import mod_2pi, require_hermitian, require_unitary
from .models import _weights

# a cyclic defect above this leaves the phase split undefined
CYCLIC_TOL = 1e-2
# steps per chunk of a run: sampled, checked and propagated together
CHUNK_STEPS = 4096


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


def _time_grid(family, steps, duration=None):
    """The steps + 1 grid edges of a run over [0, duration]; duration
    defaults to the family period and must be finite."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    duration = family.period if duration is None else float(duration)
    if not math.isfinite(duration):
        raise ValueError(f"duration must be finite, got {duration}")
    return np.linspace(0.0, duration, steps + 1)


def _chunks(steps):
    """The (start, stop) step ranges of a run of steps, CHUNK_STEPS each
    but the last."""
    return [(a, min(a + CHUNK_STEPS, steps)) for a in range(0, steps, CHUNK_STEPS)]


def _hermitian_samples(family, times):
    """family.sample(times) at finite times; a non-finite time raises
    ValueError. A family that is hermitian by construction is sampled
    unchecked. A plain sampler's stack is refused with HermiticityError
    unless every sample is Hermitian to 1e-10 of the stack's scale
    max(1, max |H|); a NaN or infinite sample fails that check too."""
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times)):
        raise ValueError(f"family {family.label!r} sampled at a non-finite time")
    hs = family.sample(times)
    if not family.hermitian:
        require_hermitian(hs, 1e-10 * max(1.0, float(np.max(np.abs(hs)))),
                          f"family {family.label!r} sample stack")
    return hs


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
    cycles and common time axes for mismatched blocks are run. A family
    with a rotation takes the exact closed form, any other the midpoint
    steps (see the module docstring); X[0] is x0 exactly.
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
        require_unitary(x0, name="initial column block")
    chunks = _chunks(steps)
    dt = times[-1] / steps
    rotation = family.rotation
    mids = 0.5 * (times[:-1] + times[1:])
    if rotation is None and not family.hermitian:
        # refused as one stack before the first step; a stack of one
        # matrix is a constant family's, else it is resampled chunk by
        # chunk
        hs = _hermitian_samples(family, mids)
        if _kernels._is_constant(hs):
            rotation = (hs[0].copy(), None)
        del hs
    if rotation is not None:
        states = np.empty((steps + 1,) + x0.shape, np.complex128)
        states[0] = x0
        _kernels._propagate_closed(_kernels._closed_form(*rotation, x0), dt, steps, states)
        return Trajectory(family, times, states)
    # one chunk lets propagate allocate the states once the step
    # exponential's temporaries are freed; a buffer allocated ahead of
    # them raised the benchmark's peak RSS
    states = None
    if len(chunks) > 1:
        states = np.empty((steps + 1,) + x0.shape, np.complex128)
        states[0] = x0
    for a, b in chunks:
        x, out = (x0, None) if states is None else (states[a], states[a:b + 1])
        x = _kernels.propagate(family.sample(mids[a:b]), dt, x, out)
        if states is None:
            states = x
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


def _form(h, i, j):
    """Re <psi|h|psi> of a Hermitian h (..., n, n) as the list of its real
    coefficients on the features of psi: h's real diagonal for the
    |psi_i|^2, then Re h_ij and -Im h_ij for each pair (i, j) of the upper
    triangle."""
    re, im = h.real, h.imag
    return ([re[..., k, k] for k in range(h.shape[-1])]
            + [w for k, m in zip(i, j) for w in (re[..., k, m], -im[..., k, m])])


def _energy_and_norms(traj):
    """Re <psi(t)|H(t)|psi(t)> and <psi(t)|psi(t)> on the grid edges, over
    evolve's chunks, the last taking the final edge, as real combinations
    of the features |psi_i|^2 and Re, Im of 2 conj(psi_i) psi_j per pair
    i < j (doubled there, not the coefficients, which may be the largest
    float), in one loop over weighted forms: a built family's terms'
    forms with the sampler's weights 1, cos, sin, else one identity form
    per feature weighted by H's coefficient on it at each edge. A plain
    sampler's edge stack is refused as a whole with HermiticityError
    before the first chunk, then resampled chunk by chunk."""
    psi, family, steps = _state_path(traj), traj.family, traj.steps
    terms, n = family.terms, family.dim
    i, j = np.triu_indices(n, 1)
    if terms is None:
        if not family.hermitian:
            _hermitian_samples(family, traj.times)
        forms = np.eye(n * n)
    else:
        forms = [np.array(_form(c, i, j)) for c in terms[0]]
    e, norms = np.zeros(steps + 1), np.empty(steps + 1)
    for a, b in _chunks(steps):
        b += b == steps  # the last chunk takes the final edge
        ts = traj.times[a:b]
        if terms is None:
            ws = _form(family.sample(ts), i, j)
        else:
            ws = (1.0,) + _weights(terms, ts, family.label)
        p = psi[a:b]
        re, im = p.real, p.imag
        feats = list((re * re + im * im).T)
        for k, m in zip(i, j):
            x = re[:, k] * re[:, m] + im[:, k] * im[:, m]
            y = re[:, k] * im[:, m] - im[:, k] * re[:, m]
            feats += [x + x, y + y]
        for w, form in zip(ws, forms):
            for f in np.flatnonzero(form):
                e[a:b] += feats[f] * (form[f] * w)
        norms[a:b] = sum(feats[1:n], feats[0])
    return e, norms


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
    come back. The dynamic part is minus the trapezoid integral of
    Re <psi|H|psi> / <psi|psi> over the grid edges, so a norm drift of the
    propagator does not leak into it; the energies and the norm drift
    come from one pass over the states. A dynamic phase that overflows
    the largest float raises GeomPhaseError.
    """
    defect = cyclic_defect(traj)
    if not defect <= CYCLIC_TOL:
        raise NonCyclicError(
            f"cannot decompose phases: cyclic defect {defect:.3e} exceeds "
            f"{CYCLIC_TOL:.1e}",
            defect,
        )
    total = float(np.angle(np.vdot(traj.states[0], traj.states[-1])))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        e, norms = _energy_and_norms(traj)
        dyn = float(-np.trapezoid(e / norms, traj.times))
    if not math.isfinite(dyn):
        raise GeomPhaseError(
            f"dynamic phase of family {traj.family.label!r} is not finite: "
            f"the energies or their integral overflow"
        )
    geo = float(mod_2pi(total - dyn))
    drift = float(np.max(np.abs(norms - 1.0)))
    return PhaseReport(total, dyn, geo, defect, traj.steps, drift)
