"""Worker health supervision for the planning daemon.

:class:`CircuitBreaker` is the classic closed / open / half-open state
machine over worker-pool breakages. The daemon's
:class:`~repro.serve.pool.SupervisedPool` — the one executor core,
re-exported here — rebuilds itself on every worker death and reports
each breakage to the breaker through its ``on_broken`` hook. Repeated
breakages trip the breaker; while open, the daemon stops feeding the
pool (routing admitted jobs to a degraded in-process path instead)
for a cooldown that backs off exponentially — ``cooldown_s ·
2^(trips-1)``, capped — then lets exactly one probe through
half-open. A success closes the breaker and resets the backoff; a
failure re-opens it with the next longer cooldown.

The breaker takes an injectable monotonic ``clock`` so its timing
behaviour is testable without sleeping.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict

from repro.serve.pool import SupervisedPool

#: Breaker states.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"


class CircuitBreaker:
    """Trip after repeated failures; recover via a half-open probe.

    Args:
        failure_threshold: consecutive failures that trip the breaker.
        cooldown_s: base cooldown after the first trip, seconds.
        cooldown_cap_s: upper bound on the backed-off cooldown.
        clock: monotonic time source (injectable for tests).

    Thread-safe: all transitions happen under an internal lock.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown_s: float = 1.0,
        cooldown_cap_s: float = 60.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold <= 0:
            raise ValueError(
                f"failure_threshold must be positive, got "
                f"{failure_threshold}"
            )
        if cooldown_s <= 0 or cooldown_cap_s < cooldown_s:
            raise ValueError(
                f"need 0 < cooldown_s <= cooldown_cap_s, got "
                f"{cooldown_s} / {cooldown_cap_s}"
            )
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.cooldown_cap_s = cooldown_cap_s
        self._clock = clock
        self._lock = threading.Lock()
        self._state = BREAKER_CLOSED
        self._consecutive_failures = 0
        self._trips = 0
        self._opened_at = 0.0

    # ------------------------------------------------------------------

    def _current_cooldown_s(self) -> float:
        if self._trips == 0:
            return 0.0
        return min(
            self.cooldown_s * (2.0 ** (self._trips - 1)),
            self.cooldown_cap_s,
        )

    def allow(self) -> bool:
        """May the protected resource be used right now?

        While open, returns ``False`` until the cooldown elapses, then
        transitions to half-open and admits one probe; in half-open,
        further calls are refused until the probe reports back.
        """
        with self._lock:
            if self._state == BREAKER_CLOSED:
                return True
            if self._state == BREAKER_OPEN:
                elapsed = self._clock() - self._opened_at
                if elapsed >= self._current_cooldown_s():
                    self._state = BREAKER_HALF_OPEN
                    return True
                return False
            return False  # half-open: probe already in flight

    def record_success(self) -> None:
        """The protected call worked: close and reset the backoff."""
        with self._lock:
            self._state = BREAKER_CLOSED
            self._consecutive_failures = 0
            self._trips = 0

    def record_failure(self) -> None:
        """The protected call failed; trip when the threshold is hit.

        A failure while half-open re-opens immediately with the next
        longer cooldown.
        """
        with self._lock:
            self._consecutive_failures += 1
            if self._state == BREAKER_HALF_OPEN:
                self._trip()
            elif (
                self._state == BREAKER_CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._trip()

    def _trip(self) -> None:
        self._state = BREAKER_OPEN
        self._trips += 1
        self._opened_at = self._clock()

    # ------------------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def status(self) -> Dict[str, Any]:
        """Snapshot for the daemon's status endpoint."""
        with self._lock:
            cooldown = self._current_cooldown_s()
            remaining = 0.0
            if self._state == BREAKER_OPEN:
                remaining = max(
                    0.0, cooldown - (self._clock() - self._opened_at)
                )
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "trips": self._trips,
                "cooldown_s": cooldown,
                "cooldown_remaining_s": remaining,
            }


__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "CircuitBreaker",
    "SupervisedPool",
]
