"""Host-speed reference for the timed metrics.

A shared host runs this benchmark at speeds up to 2x apart, switching every
few seconds to minutes as neighbours come and go; CPU time drifts with wall
time, so it is no escape.  Pass, call, start-up and set-up times are therefore
taken next to a fixed reference kernel and reported in *adjusted* seconds:

    adjusted = measured * NOMINAL_S / reference time measured next to it

The kernel is the benchmark's own fraction-free (Bareiss) elimination of a
fixed 22x22 integer matrix in pure Python: big-int arithmetic, list
indexing and allocation, the same kind of interpreter work as the program.
On this kind of host its time tracks the program's call times with a
correlation of 0.85-0.96 (per pass, slope about 1), which cuts the spread of
pass times two- to threefold.  The kernel is fixed code outside the
package, so a change to the program moves the adjusted figures by the same
share as the raw ones, as long as it leaves the kernel's own speed alone
(the kernel runs with the garbage collector off, so a bigger live heap does
not slow it); run records keep the raw times next to them.
"""

from __future__ import annotations

import gc
import random
import statistics
from time import perf_counter

#: The kernel's time on a quiet host of the kind the benchmark was tuned on
#: (2-vCPU x86-64 VM, Python 3.11); only sets the scale of adjusted figures.
NOMINAL_S = 1.0e-3

_rng = random.Random("speed-reference")
_MATRIX = [[_rng.randint(-3, 3) + (9 if i == j else 0) for j in range(22)] for i in range(22)]


def _kernel() -> int:
    a = [row[:] for row in _MATRIX]
    n = len(a)
    prev = 1
    for k in range(n - 1):
        akk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i, row_k = a[i], a[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * akk - aik * row_k[j]) // prev
        prev = akk
    return a[n - 1][n - 1]


#: det of _MATRIX, so a broken kernel cannot pass for a slow host.
_DET = _kernel()


def reference(repeats: int = 1) -> float:
    """Median seconds of ``repeats`` runs of the kernel, with the cyclic
    garbage collector off so the program's live heap does not leak in."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(repeats):
            t0 = perf_counter()
            det = _kernel()
            times.append(perf_counter() - t0)
            if det != _DET:
                raise AssertionError("speed reference kernel gave a different determinant")
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def adjust(seconds: float, ref_seconds: float) -> float:
    return seconds * NOMINAL_S / ref_seconds
