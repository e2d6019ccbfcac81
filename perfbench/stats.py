"""Order statistics and interval arithmetic for the benchmark.

Pure functions over plain floats, so the benchmark's own tests can pin
them without running a workload.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

Interval = Tuple[float, float]


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``p`` percent of the samples at or below it.

    Raises:
        ValueError: on no samples or ``p`` outside ``(0, 100]``.
    """
    if not samples:
        raise ValueError("cannot take a percentile of no samples")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, p: float) -> int:
    """How many of ``count`` samples lie strictly above the nearest-rank
    ``p`` percentile (the tail a percentile rests on)."""
    if count <= 0:
        return 0
    return count - max(1, math.ceil(p / 100.0 * count))


def union_length(intervals: Iterable[Interval]) -> float:
    """Total length covered by the union of closed intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def clip(intervals: Iterable[Interval], window: Interval) -> List[Interval]:
    """The parts of ``intervals`` inside ``window``."""
    lo, hi = window
    out = []
    for start, end in intervals:
        start, end = max(start, lo), min(end, hi)
        if end > start:
            out.append((start, end))
    return out


def self_time(span: Interval, children: Iterable[Interval]) -> float:
    """A span's duration minus the part of it its children cover."""
    start, end = span
    return (end - start) - union_length(clip(children, span))
