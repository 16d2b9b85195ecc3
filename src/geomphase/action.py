"""Transport of ring-block wavefunctions along the winding direction of
the torus: overlap chains under the mean-over-grid inner product, the
accumulated phase per loop, and per-interval connection samples.

A torus path is just a stack of sampled wavefunctions; flattening turns
it into a single-vector frame path, so all loop machinery is shared with
the holonomy module instead of being reimplemented.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import UnitarityError
from .holonomy import _array_path, berry_phase, connection_samples
from .linalg import TWO_PI


@dataclass(frozen=True)
class TorusPath:
    """Wavefunction samples along one closed winding-direction loop."""

    thetas: np.ndarray
    values: np.ndarray

    @property
    def steps(self):
        return self.thetas.size - 1


def torus_path(block, branch, steps=4096):
    """Sample one band eigenfunction of an ActionRingBlock around the
    winding direction, theta from 0 to 2*pi inclusive."""
    thetas = np.linspace(0.0, TWO_PI, steps + 1)
    return TorusPath(thetas, block.torus_state(branch, thetas))


def as_frame_path(tp, norm_tol=1e-6):
    """Flatten a torus path into a single-vector FramePath.

    Sampled wavefunctions whose norms drift more than norm_tol from one
    are refused; below that the flattened vectors are renormalized
    exactly, which shifts no phases. A single normalized column is
    orthonormal, so the path needs no second Gram.
    """
    vals = tp.values
    m1, n_phi = vals.shape[0], vals.shape[1]
    flat = vals.reshape(m1, -1, 1)
    norms = np.sqrt(_kernels._gram(flat, flat)[:, 0, 0].real / n_phi)
    drift = float(np.max(np.abs(norms - 1.0)))
    if not drift <= norm_tol:
        raise UnitarityError(
            f"torus path is not normalized: max norm deviation {drift:.3e} "
            f"> {norm_tol:.1e}"
        )
    # the scaled copy is the path's own, so it needs no second copy
    frames = flat * (1 / (norms * np.sqrt(n_phi)))[:, None, None]
    return _array_path(frames, float(tp.thetas[-1] - tp.thetas[0]))


def torus_phase(tp):
    """Loop phase of a torus path in [0, 2*pi)."""
    return berry_phase(as_frame_path(tp))


def torus_connection(tp):
    """Per-interval connection integrals along the winding direction."""
    return connection_samples(as_frame_path(tp))[:, 0, 0].real
