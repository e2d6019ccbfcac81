"""Machine-speed reference for the benchmark's timings.

On a shared two-core VM the same work drifts by 20-40 % over minutes
as other tenants come and go. A fixed pure-Python reference task, timed
in bursts right before and after each measured unit, follows that
drift, and each time is reported scaled to the speed at which one
reference call takes ``NOMINAL_S``::

    scaled = raw * NOMINAL_S / mean(burst before, burst after)

A change to the program moves the scaled time by the same factor as
the raw time; the reference never changes. Raw times and bursts stay
in the run's record.
"""

from __future__ import annotations

import math
import time
from statistics import median
from typing import List, Sequence

#: Seconds one reference call takes at the nominal speed (its median on
#: the 2-core VM the benchmark was tuned on, when quiet).
NOMINAL_S = 0.013
#: Reference calls per burst.
BURST = 5


def reference_call() -> float:
    """Seconds one pass of a fixed dict, sort and float task takes now."""
    start = time.perf_counter()
    table = {}
    for i in range(40_000):
        table[i] = (i * 7919) % 1_000_003
    order = sorted(table, key=table.__getitem__)
    acc = 0.0
    for key in order[:20_000]:
        acc += math.hypot(key, table[key])
    elapsed = time.perf_counter() - start
    if acc < 0:  # pragma: no cover - keeps the work observable
        raise AssertionError
    return elapsed


def burst(calls: int = BURST) -> float:
    """Median duration of ``calls`` reference calls."""
    return median(reference_call() for _ in range(calls))


def scale(raw_s: float, references: Sequence[float]) -> float:
    """``raw_s`` at the nominal speed, given the bursts taken around it."""
    return raw_s * NOMINAL_S / (sum(references) / len(references))


class Bracket:
    """Bursts between consecutive measured units: unit ``i`` is scaled by
    the bursts taken just before and just after it."""

    def __init__(self) -> None:
        self.bursts: List[float] = [burst()]

    def close_unit(self, raw_s: float) -> float:
        """Take the burst after a unit; return the unit's scaled time."""
        self.bursts.append(burst())
        return scale(raw_s, self.bursts[-2:])

    def factor(self) -> float:
        """Scale factor of the last closed unit."""
        return scale(1.0, self.bursts[-2:])
