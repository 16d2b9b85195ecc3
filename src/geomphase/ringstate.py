"""States spread over several ring blocks and their evolution, block by
block and through the assembled direct sum.

Block Hamiltonians never couple different n, so the weight carried by
each block is a constant of motion; the assembled route recomputes those
weights from the full propagated state instead of assuming it.
"""

from dataclasses import dataclass

import numpy as np

from .evolution import evolve
from .models import assemble_blocks


class RingState:
    """Sparse two-component amplitudes per occupied block."""

    def __init__(self, amplitudes):
        blocks = {}
        total = 0.0
        for n, amp in sorted(amplitudes.items()):
            amp = np.asarray(amp, dtype=np.complex128)
            if amp.shape != (2,):
                raise ValueError(f"block {n} amplitude must have shape (2,), got {amp.shape}")
            weight = float(np.vdot(amp, amp).real)
            # an empty block has no state to evolve and no phase; a NaN
            # weight is refused by the total below
            if weight == 0.0:
                raise ValueError(f"block {n} must carry weight > 0, got {weight}")
            blocks[int(n)] = amp
            total += weight
        if not blocks:
            raise ValueError("state must occupy at least one block")
        if not abs(total - 1.0) <= 1e-10:
            raise ValueError(f"total weight must be 1, got {total:.12f}")
        self.blocks = blocks

    @property
    def occupied(self):
        return tuple(self.blocks)

    def weight(self, n):
        return float(np.vdot(self.blocks[n], self.blocks[n]).real)

    def weights(self):
        return {n: self.weight(n) for n in self.blocks}

    def as_vector(self, order=None):
        order = list(order) if order is not None else sorted(self.blocks)
        return np.concatenate([self.blocks[n] for n in order])


@dataclass(frozen=True)
class BlockEvolution:
    """Per-block trajectories of one run over a common time axis."""

    duration: float
    weights: dict
    trajectories: dict

    def phases(self):
        """arg <psi_n(0)|psi_n(T)> per occupied block."""
        out = {}
        for n, tr in self.trajectories.items():
            out[n] = float(np.angle(np.vdot(tr.states[0], tr.states[-1])))
        return out


def _window(models, state):
    """The occupied blocks in ascending order and the run's duration, the
    period of the lowest; a block with no model is refused."""
    order = sorted(state.occupied)
    missing = [n for n in order if n not in models]
    if missing:
        raise ValueError(f"no model supplied for blocks {missing}")
    return order, float(models[order[0]].hamiltonian.period)


def blockwise_evolve(models, state, steps=4096):
    """Evolve each occupied block under its own Hamiltonian over the
    period of the lowest occupied block; blocks with other periods are
    simply run over the same window.
    """
    order, duration = _window(models, state)
    trajs = {}
    for n in order:
        amp = state.blocks[n]
        unit = amp / np.linalg.norm(amp)
        trajs[n] = evolve(models[n].hamiltonian, unit, steps=steps, duration=duration)
    return BlockEvolution(duration, state.weights(), trajs)


def assembled_evolve(models, state, steps=4096):
    """Evolve the direct sum of the occupied blocks as one system over the
    period of the lowest occupied block.

    Returns (trajectory, weight_drift, phases): the full Trajectory, the
    largest excursion of any block weight from its initial value over the
    whole run, and the per-block endpoint phases.
    """
    order, duration = _window(models, state)
    family = assemble_blocks([models[n].hamiltonian for n in order], period=duration)
    traj = evolve(family, state.as_vector(order), steps=steps, duration=duration)
    offs = np.arange(0, 2 * len(order) + 1, 2)
    drift = 0.0
    phases = {}
    for i, n in enumerate(order):
        seg = traj.states[:, offs[i]:offs[i + 1]]
        w = np.einsum("mi,mi->m", seg.conj(), seg).real
        drift = max(drift, float(np.max(np.abs(w - w[0]))))
        phases[n] = float(np.angle(np.vdot(seg[0], seg[-1])))
    return traj, drift, phases
