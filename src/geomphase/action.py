"""Transport of ring-block wavefunctions along the winding direction of
the torus: overlap chains under the mean-over-grid inner product and the
accumulated phase per loop.

A torus loop is a closed single-vector FramePath: each sampled
wavefunction, flattened and scaled to unit norm, is one column, so all
loop machinery, the per-interval connection samples included, is shared
with the holonomy module instead of being reimplemented. The samples
are written once and normalized in place, so the path owns the one
buffer they live in.
"""

import numpy as np

from . import _kernels
from .errors import UnitarityError
from .holonomy import _array_path, berry_phase
from .linalg import TWO_PI

# sampled wavefunctions whose norms drift further than this from one are
# refused; below it they are renormalized exactly, which shifts no phases
TORUS_NORM_TOL = 1e-6


def torus_path(block, branch, steps=4096):
    """Closed single-vector FramePath of one band eigenfunction of an
    ActionRingBlock around the winding direction, theta from 0 to 2*pi
    inclusive.

    block.torus_state returns a fresh array, which becomes the path's
    frames: reshaped to (M+1, 2*n_phi, 1) and scaled to unit norm in
    place. A single normalized column is orthonormal, so the path needs
    no Gram check.
    """
    thetas = np.linspace(0.0, TWO_PI, steps + 1)
    vals = block.torus_state(branch, thetas)
    n_phi = vals.shape[1]
    frames = vals.reshape(thetas.size, -1, 1)
    norms = np.sqrt(_kernels._gram(frames, frames)[:, 0, 0].real / n_phi)
    drift = float(np.max(np.abs(norms - 1.0)))
    if not drift <= TORUS_NORM_TOL:
        raise UnitarityError(
            f"torus path is not normalized: max norm deviation {drift:.3e} "
            f"> {TORUS_NORM_TOL:.1e}"
        )
    frames *= (1 / (norms * np.sqrt(n_phi)))[:, None, None]
    return _array_path(frames, TWO_PI)


def torus_phase(path):
    """Loop phase of a torus path in [0, 2*pi)."""
    return berry_phase(path)
