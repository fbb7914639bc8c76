"""The machine's speed during a run, from a fixed reference kernel.

The speed of the 2-core VM the benchmark was tuned on drifts: this
kernel's mean time over 16-s windows has an interquartile range of 12%
of its median, and over ten minutes it swung by a factor of 1.7.
Times of interpreter-bound work are divided by the run's speed factor
(median kernel time over ``REFERENCE_S``), so that they read as on that
machine at its usual speed and the drift does not show as a change of
the program.  The raw times are printed beside them.
"""

from __future__ import annotations

import statistics
import time
from typing import List

#: Seconds the kernel takes on the tuning machine at its usual speed.
REFERENCE_S = 0.014


def reference_seconds() -> float:
    """Time one run of the fixed pure-Python kernel."""
    t0 = time.perf_counter()
    s = 0
    for i in range(150_000):
        s += i * i
    return time.perf_counter() - t0


def speed_factor(samples: List[float]) -> float:
    """How much slower than usual the machine ran (1.0 without samples)."""
    return statistics.median(samples) / REFERENCE_S if samples else 1.0
