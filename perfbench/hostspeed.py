"""Host-speed calibration for call times measured on a shared machine.

On a 2-core shared cloud host, the same code ran up to 1.8x slower for
seconds at a time (a fixed Python loop measured over 0.5 s windows, with
nothing else running in its container).  The raw median
call time of whole 30 s runs moved by +-25% from run to run, far beyond
any bound a regression check could use.

A fixed kernel, independent of the library, runs after every timed call.
Each call's wall time is scaled by ``KERNEL_REF_S`` over the median kernel
time around that call, so a call is reported in milliseconds at the host
speed at which the kernel takes ``KERNEL_REF_S``.  The kernel does what
the engine's inner loop does: it builds small Python objects and makes
small LAPACK calls from a Python loop.  Of five candidate kernels timed
against fleet_light calls over 90 s, this mix tracked the host best: it
cut the spread of one-second medians from 12% to 8%.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

KERNEL_REF_S = 0.002
_WINDOW = 2             # kernels on each side of a call that set its factor
_SMALL = np.eye(4) + 0.1


class _Point:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def kernel_seconds() -> float:
    """Wall time of one run of the fixed calibration kernel.

    The garbage collector is paused meanwhile: a collection triggered here
    would scan the workload's live objects (the oracle keeps 350k particle
    labels alive) and time the workload's heap instead of the host.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        points = [_Point(i, (i, i + 1)) for i in range(1500)]
        {p.key: p for p in points}
        for _ in range(20):
            q, _ = np.linalg.qr(np.linalg.cholesky(_SMALL @ _SMALL.T))
            [float(x) for x in q[0]]
        return time.perf_counter() - t0
    finally:
        gc.enable()


def normalize(times, kernels):
    """Scale each call time to the reference host speed.

    ``kernels[i]`` ran just before call ``i`` and ``kernels[i + 1]`` just
    after it, so ``len(kernels) == len(times) + 1``.
    """
    out = []
    for i, t in enumerate(times):
        around = kernels[max(0, i + 1 - _WINDOW): i + 1 + _WINDOW]
        out.append(t * KERNEL_REF_S / statistics.median(around))
    return out
