"""A fixed reference computation that measures how fast the host runs now.

On a shared virtual machine the speed of a CPU swings by a quarter to a
half, for seconds to minutes at a time, because of other tenants' load.
The swing slows every operation of a pass, so one run's pass time can
sit a third above the next run's with no change to the program.

The benchmark therefore times this yardstick between operations, at
most five times per second of measurement, and divides pass times by the
yardstick's median, so that a pass reads about the same number of
yardsticks whether the host runs fast or slow. The yardstick mixes, in four parts of about
2 ms each, the kinds of work the library does: interpreted integer loops,
small numpy linear algebra, bytes-keyed dict traffic and numpy reads of
an 8 MB array, larger than a core's own caches. Slow phases of the host
slow these parts unequally, and the workloads mix them unequally, so no
single part tracks every workload; the mix tracks each only roughly. The yardstick never calls the library,
so no change to the library can move it. Its inputs are fixed; they do
not depend on --seed.
"""

from __future__ import annotations

import time

import numpy as np

EVERY_S = 0.2  # measured time between two yardstick samples

_MATRIX = np.random.default_rng(0).random((32, 32))
_STREAM = np.zeros(1 << 20, dtype=np.int64)


def yardstick() -> float:
    """Seconds one fixed mixed computation takes now (about 8 ms)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i
    for _ in range(8):
        np.linalg.svd(_MATRIX)
    seen = {}
    for i in range(3_000):
        seen[bytes((i % 251, i % 13))] = i
    for _ in range(4):
        _STREAM.sum()
    return time.perf_counter() - t0


class Sampler:
    """Collects yardstick timings, at most one per EVERY_S of measured time."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def maybe(self) -> None:
        now = time.perf_counter()
        if now - self._last >= EVERY_S:
            self.samples.append(yardstick())
            self._last = time.perf_counter()
