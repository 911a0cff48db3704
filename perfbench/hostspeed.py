"""Host-speed reference for the benchmark's end-to-end timings.

The benchmark runs on a few cores of a shared host, whose speed drifts
with the load of its neighbours: the same batch ran up to twice as slow
within a few minutes, in phases longer than a run, so no statistic taken
within a run stays put across runs.  A fixed kernel that uses none of the
program's code (dictionary updates and numpy row operations on 64-bit
words, the two kinds of work diagnosis does) slows down with it, so each
run samples the kernel between its operations and scales its timings by

    factor = REFERENCE_S / median(kernel samples of the run)

The scaled timings read as seconds on a host that runs the kernel in
``REFERENCE_S``.  Over ten seeded 36-s runs of ``dedc-errors`` in a busy
period, the interquartile range of ``wall_s`` was 52% of its median
unscaled and 8% scaled.  Each run prints the factor, the kernel samples
and its unscaled figures too.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Median kernel time on the measuring host (2 shared CPUs at 2 GHz)
#: when it was quiet; it took 20-30 ms when the host was busy.  Only the
#: unit of the scaled timings hangs on it.
REFERENCE_S = 0.015

_RNG = np.random.default_rng(0)
_WORDS = _RNG.integers(0, 2**63, size=(2048, 16), dtype=np.uint64)
_PAIRS = _RNG.integers(0, 2048, size=(4096, 2))


def kernel() -> float:
    """Seconds one run of the fixed kernel takes."""
    t0 = time.perf_counter()
    table: dict = {}
    for i in range(40_000):
        table[i & 1023] = table.get(i & 1023, 0) + i
    words = _WORDS
    for k in range(0, len(_PAIRS), 8):
        rows = _PAIRS[k:k + 8]
        words = words.copy()
        words[rows[:, 0]] = words[rows[:, 0]] ^ words[rows[:, 1]]
        np.bitwise_and(words, _WORDS, out=words)
    return time.perf_counter() - t0


class Meter:
    """Kernel samples of one run."""

    def __init__(self):
        self.samples: list = []

    def sample(self) -> None:
        self.samples.append(kernel())

    def factor(self) -> float:
        return REFERENCE_S / statistics.median(self.samples)
