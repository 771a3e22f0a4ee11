"""Host-speed calibration for the benchmark's time metrics.

The benchmark runs on shared hosts whose speed swings by 1.5x between
states that last tens of seconds, so two runs of identical code can differ
by more than any change the benchmark must resolve. Every timed unit is
therefore bracketed by runs of a fixed kernel that lives here, not in the
program, and its wall time is rescaled to a host on which the kernel takes
``REFERENCE_S``:

    normalized = measured * (REFERENCE_S / mean(kernel before, kernel after)) ** EXPONENT

A change to the program moves ``measured`` and leaves the kernel alone; a
slower host moves both. The kernel mixes what the simulator spends its time
on: dict lookups over a table of small objects, a bounded heap, and small
NumPy reductions.
"""

from __future__ import annotations

import heapq
import random
import time

import numpy as np

#: Kernel seconds on the reference host (about this kernel's median on a
#: 2-vCPU x86-64 VM with Python 3.11 and NumPy 1.26).
REFERENCE_S = 0.2

#: How strongly a trial's time follows the kernel's. The kernel slows more
#: than the simulator when the host slows: regressing log unit time on log
#: kernel time over 30-50 alternating runs gave slopes of 0.54-0.81 (PCAPS),
#: 0.72 (CAP-FIFO) and 0.80 (stream), and rescaling by the full ratio
#: over-corrects, leaving runs in a slow host state reading fast.
EXPONENT = 0.75

_TABLE_SIZE = 20_000
_STEPS = 100_000


class _Entry:
    __slots__ = ("key", "weight")

    def __init__(self, key: int, weight: float) -> None:
        self.key = key
        self.weight = weight


def _kernel() -> float:
    rng = random.Random(1234)
    table = {i: _Entry(i, float(i % 97)) for i in range(_TABLE_SIZE)}
    row = np.arange(64, dtype=float)
    heap: list[tuple[float, int]] = []
    acc = 0.0
    for step in range(_STEPS):
        entry = table[rng.randrange(_TABLE_SIZE)]
        heapq.heappush(heap, (entry.weight * rng.random(), step))
        if len(heap) > 64:
            acc += heapq.heappop(heap)[0]
        if step % 64 == 0:
            acc += float(np.exp(row * 1e-3).sum())
    return acc


def kernel_seconds() -> float:
    """Wall seconds of one kernel run."""
    began = time.perf_counter()
    _kernel()
    return time.perf_counter() - began


class Calibrated:
    """Times callables between kernel runs and rescales them.

    Consecutive measurements share the kernel run between them, so the
    kernel costs one run per measurement.
    """

    def __init__(self) -> None:
        self.kernels = [kernel_seconds()]

    def measure(self, fn, *args, **kwargs):
        """``(result, measured_s, scale)`` of one call; ``scale`` turns
        host seconds measured during the call into reference seconds."""
        began = time.perf_counter()
        result = fn(*args, **kwargs)
        measured = time.perf_counter() - began
        self.kernels.append(kernel_seconds())
        host = (self.kernels[-2] + self.kernels[-1]) / 2.0
        return result, measured, (REFERENCE_S / host) ** EXPONENT
