"""Host-speed calibration for the benchmark's timings.

The CPU speed of a shared host drifts by tens of percent from minute to
minute, far more than the changes the benchmark must resolve.  A fixed
reference computation (a pure-Python loop and small NumPy array operations,
the two kinds of work the stack does) is timed in wall-clock time, like the
jobs, between the jobs of a serial round.  In a pool the sample is taken
inside each worker after each of its jobs (by the benchmark's job runner,
see ``workloads.py``) and timed in thread CPU time instead, because the
parent and the other workers preempt a wall-clock sample at random.
Reported timings are scaled by ``REFERENCE_S / mean sample``: the wall time
the run would have taken on a host where one sample takes ``REFERENCE_S``.
The calibration code is not part of the program under test, so a change to
the program moves the normalised timings by the same factor as the raw ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Duration of one sample on the reference host (the median measured on the
#: 2-core container the bounds in BENCHMARK.json were set on).
REFERENCE_S = 0.002

_LOOP = 20_000
_ARRAY = 4096
_ARRAY_PASSES = 40


def sample(clock=time.perf_counter) -> float:
    """Seconds of one run of the reference computation, on ``clock``."""
    started = clock()
    total = 0
    for i in range(_LOOP):
        total += i * i
    values = np.arange(float(_ARRAY))
    for _ in range(_ARRAY_PASSES):
        values = np.sqrt(values + 1.0)
    return clock() - started


def slowdown(samples) -> float:
    """How much slower than the reference host the samples ran (1 = same)."""
    return statistics.fmean(samples) / REFERENCE_S


def settle(n: int = 5) -> float:
    """Median of ``n`` back-to-back samples, for one-off timings."""
    return statistics.median(sample() for _ in range(n))
