"""Kernel size sweep: the five hot kernels timed alone at several grid sizes.

Inputs are shaped like the experiments' (the rotating-ring Hamiltonian
at interval midpoints, its two-column band frames, one spin cone column)
and go straight to the kernel bindings of the build that is loaded.
"""

import math
import statistics
import time

import numpy as np

import geomphase as gp

SIZES = (1024, 4096, 16384)
KERNELS = ("eigh_batch", "align_frames", "overlap_smins", "chain_product", "propagate")
REPEATS = 3


def _inputs(steps):
    spin = gp.SpinHalf(theta=math.pi / 6)
    ring = gp.RotatingRingBlock(n=0, eps=0.5, chi=math.pi / 3)
    grid = np.linspace(0.0, ring.period, steps + 1)
    mids = 0.5 * (grid[:-1] + grid[1:])
    frames = np.ascontiguousarray(ring.frame_batch(grid))
    return {
        "eigh_batch": (np.ascontiguousarray(ring.hamiltonian.sample(mids)),),
        "align_frames": (frames,),
        "overlap_smins": (np.ascontiguousarray(spin.frame_batch(grid)[:, :, :1]),),
        "chain_product": (np.ascontiguousarray(
            np.einsum("mia,mib->mab", frames[:-1].conj(), frames[1:])),),
        "propagate": (np.ascontiguousarray(ring.hamiltonian.sample(mids)),
                      ring.period / steps, np.ascontiguousarray(ring.state("+"))),
    }


def run():
    """Median of REPEATS timings per kernel and size, in milliseconds,
    keyed ``kernels.<fn>.ms_M<size>``."""
    out = {}
    for steps in SIZES:
        args = _inputs(steps)
        for name in KERNELS:
            fn = getattr(gp._kernels, name)
            times = []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                fn(*args[name])
                times.append(time.perf_counter() - t0)
            out[f"kernels.{name}.ms_M{steps}"] = 1e3 * statistics.median(times)
    return out
