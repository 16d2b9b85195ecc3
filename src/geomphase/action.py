"""Transport of ring-block wavefunctions along the winding direction of
the torus: overlap chains of the sampled wavefunctions and the
accumulated phase per loop.

A torus loop is a closed single-vector FramePath: each sampled
wavefunction, flattened, is one unit column, so all loop machinery, the
per-interval connection samples included, is shared with the holonomy
module instead of being reimplemented. The samples are written once,
already unit, and checked like any frame array, so the path owns the
one buffer they live in.
"""

import numpy as np

from .holonomy import _array_path, berry_phase
from .linalg import TWO_PI, require_unitary


def torus_path(block, branch, steps=4096):
    """Closed single-vector FramePath of one band eigenfunction of an
    ActionRingBlock around the winding direction, theta from 0 to 2*pi
    inclusive.

    block.torus_state returns a fresh array of unit samples, which
    becomes the path's frames, reshaped to (M+1, 2*n_phi, 1) without a
    copy and refused like any frame array if a column is not unit to
    1e-10.
    """
    thetas = np.linspace(0.0, TWO_PI, steps + 1)
    frames = block.torus_state(branch, thetas).reshape(thetas.size, -1, 1)
    require_unitary(frames, name="torus path")
    return _array_path(frames, TWO_PI)


def torus_phase(path):
    """Loop phase of a torus path in [0, 2*pi)."""
    return berry_phase(path)
