"""What every workload returns, and helpers they share."""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional

import numpy as np


@dataclass
class Outcome:
    """One workload's measured run.

    Attributes:
        metrics: the end-to-end metrics the workload measures, by name
            (the runner adds set-up time and peak memory).
        attempted: operations tried (solves, planned rounds, requests).
        failed: operations that failed, were refused or timed out, or
            whose output failed the correctness gate.
        problems: correctness-gate findings (empty when correct).
        digest: SHA-256 over the canonical schedule bytes.
        layers: per-layer metrics, filled by a traced run.
        notes: sample counts and other facts for the full record.
    """

    metrics: Dict[str, float]
    attempted: int
    failed: int
    problems: List[str]
    digest: str
    layers: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, Any] = field(default_factory=dict)


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """An independent generator per ``(seed, stream...)`` key."""
    return np.random.default_rng([seed, *stream])


def repeat_for(
    seconds: float,
    minimum: int,
    unit: Callable[[int], float],
    clock: Callable[[], float] = time.perf_counter,
) -> List[float]:
    """Call ``unit(i)`` for ``i = 0, 1, ...``: at least ``minimum``
    times, then while another call of the median length still ends
    within ``seconds`` of the start. ``unit`` returns its own measured
    seconds; the list of them comes back."""
    start = clock()
    times: List[float] = []
    while True:
        if len(times) >= minimum:
            expected = sorted(times)[len(times) // 2]
            if clock() - start + expected > seconds:
                return times
        times.append(unit(len(times)))


def _vm_hwm_kb(pid: int) -> Optional[int]:
    """Peak resident set of a process in KiB, from ``/proc``."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def peak_rss_mb(child_pids: Iterable[int] = ()) -> float:
    """Peak resident memory of this process plus the peaks of the given
    live child processes, in MiB."""
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    total_kb = own_kb + sum(_vm_hwm_kb(pid) or 0 for pid in child_pids)
    return total_kb / 1024.0
