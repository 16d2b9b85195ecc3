"""Machine-speed reference: a fixed routine timed beside the tasks.

On a shared host the speed of a core swings by a quarter or more within
seconds, and every task's time swings with it. The reference routine
does the two kinds of work the tasks spend their time on, interpreter
loops and many numpy calls on 2x2 matrices, but never touches
geomphase, so no change to the package moves it. Reading it right
before and after a task gives the machine's speed at that moment: the
task's time times REFERENCE_S over that reading is the time it would
take where the routine takes REFERENCE_S.
"""

import time

import numpy as np

# Median warm reading of reference() on a 2-vCPU x86_64 VM (Intel Xeon,
# shared host) with Python 3.11, numpy 2.4 and OpenBLAS; the scaled
# times are in its units.
REFERENCE_S = 0.004

_INTS = list(range(2000))
_rng = np.random.default_rng(20050200)
_M = _rng.standard_normal((64, 2, 2)) + 1j * _rng.standard_normal((64, 2, 2))


def reference():
    """Seconds one run of the reference routine takes now."""
    t0 = time.perf_counter()
    for _ in range(3):
        total = 0
        for x in _INTS:
            total += x * x
        table = {}
        for x in _INTS:
            table[x] = (x, total)
    for k in range(400):
        a = _M[k % 64]
        b = a @ a
        float(np.trace(b).real)
        np.abs(b).max()
    return time.perf_counter() - t0
