"""CPU-speed calibration for timed intervals.

On a shared machine a core's speed drifts, by up to a factor of two over
tens of seconds, as other tenants load it. Wall time and CPU time drift
together, so neither removes it. The benchmark therefore brackets every
timed interval with a fixed calibration kernel that does not touch the
code under test, and rescales the interval to the speed at which that
kernel takes REFERENCE_S. Raw seconds are reported alongside.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.01
_RNG = np.random.default_rng(0)
_DATA = _RNG.random(100_000)
_MATRIX = _RNG.random((1000, 1000))            # 8 MB: larger than the L2 cache
_INDEX = _RNG.integers(0, 1000, 300)


def _kernel() -> float:
    """The kinds of work the pipelines do: small-array numpy calls from a
    Python loop, a large sort, and masked gathers from a dense matrix."""
    a = np.arange(256.0)
    s = 0.0
    for i in range(800):
        s += float((a[i % 256:] * 0.5 + 1.0).sum())
    s += float(np.sort(_DATA)[0])
    for i in range(5):
        sub = _MATRIX[np.ix_(_INDEX, _INDEX[i:])]
        s += float(np.argmin(np.where(sub < 0.3, sub, 2.0), axis=1).sum())
    return s


def probe(reps: int = 3) -> float:
    """Median seconds of one kernel run, now."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor that converts raw seconds measured between two probes into
    seconds at the reference speed."""
    return REFERENCE_S * 2.0 / (before + after)
