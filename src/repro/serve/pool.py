"""The one executor core under every planning front end.

:class:`SupervisedPool` runs a picklable top-level function over
payloads — in the calling thread when ``workers == 1`` (zero
surprise, zero pickling), across a persistent
``concurrent.futures.ProcessPoolExecutor`` otherwise — and reports
every attempt as a structured :class:`TaskOutcome`. Its executor
outlives each call, so worker-side state such as the warm
:data:`repro.serve.workers._GROUP_CACHE` context groups survives
between requests; the planning daemon keeps one pool for its whole
lifetime. Failure semantics are the same in process and in workers:

* an exception raised by the function becomes an ``"error"`` outcome
  (siblings keep running — one poisoned payload never aborts a batch);
* a task exceeding ``timeout_s`` becomes a ``"timeout"`` outcome. The
  bound is enforced *inside* the executing process by running the call
  on a watchdog thread, so serial and pooled execution time out
  identically and a stuck task cannot wedge the pool's result loop;
* a worker process dying (``BrokenProcessPool``) fails only the tasks
  in flight, as ``"pool-broken"`` outcomes. The executor is rebuilt
  once per breakage, coordinated by a generation counter so concurrent
  callers hitting the same corpse rebuild once, not once each.

:func:`run_tasks` is the batch front end (the planning service, eval,
bench sweeps, the fault campaign). It opens a pool per call, maps the
function over a payload list and returns one outcome per payload **in
payload order** regardless of completion order:

* failed tasks — including those caught in a broken pool — are retried
  up to ``max_retries`` times in later waves, with exponential backoff
  between waves (``backoff_s · 2^(wave-1)``); the final outcome
  records the total attempt count and elapsed time;
* a payload that *deterministically* kills its worker would break the
  pool once per retry wave, so once the pool has been rebuilt more
  than ``max_pool_rebuilds`` times the still-pending tasks get a
  terminal ``"pool-broken"`` outcome instead of another doomed wave.

Determinism: outcomes are positionally stable and the function is
expected to be a pure function of its payload, so any two runs — and
any two worker counts — produce the same outcome values.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from concurrent.futures import Future, as_completed
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

#: Outcome status values, in "worst wins" order for aggregation.
STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_TIMEOUT = "timeout"
STATUS_POOL_BROKEN = "pool-broken"


@dataclass(frozen=True)
class PoolConfig:
    """Execution knobs shared by every pool consumer.

    Attributes:
        workers: process count; ``1`` (the default) runs every task
            in-process with no executor at all.
        timeout_s: per-task execution bound, seconds; ``None`` = none.
        max_retries: extra attempts granted to a failed task.
        backoff_s: base of the exponential inter-wave backoff.
        mp_context: multiprocessing start method (``"fork"``,
            ``"spawn"``, ...); ``None`` uses the platform default.
        max_pool_rebuilds: executor rebuilds tolerated per
            :func:`run_tasks` call before the still-pending tasks are
            abandoned with a terminal ``"pool-broken"`` outcome.
    """

    workers: int = 1
    timeout_s: Optional[float] = None
    max_retries: int = 0
    backoff_s: float = 0.0
    mp_context: Optional[str] = None
    max_pool_rebuilds: int = 2

    def __post_init__(self) -> None:
        if self.workers <= 0:
            raise ValueError(f"workers must be positive, got {self.workers}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(
                f"timeout must be positive, got {self.timeout_s}"
            )
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_s < 0:
            raise ValueError(
                f"backoff_s must be >= 0, got {self.backoff_s}"
            )
        if self.max_pool_rebuilds < 0:
            raise ValueError(
                f"max_pool_rebuilds must be >= 0, got "
                f"{self.max_pool_rebuilds}"
            )


@dataclass
class TaskOutcome:
    """What happened to one payload, across all its attempts."""

    index: int
    status: str
    value: Any = None
    error: Optional[str] = None
    attempts: int = 0
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


class TaskTimeout(Exception):
    """Raised inside the executing process when a task runs too long."""


def backoff_delay_s(wave: int, backoff_s: float) -> float:
    """Exponential backoff before retry wave ``wave`` (1-based)."""
    if wave <= 0 or backoff_s <= 0:
        return 0.0
    return backoff_s * (2.0 ** (wave - 1))


def call_with_timeout(
    fn: Callable[[Any], Any], payload: Any, timeout_s: Optional[float]
) -> Any:
    """Run ``fn(payload)``, bounding its execution time.

    The call runs on a daemon watchdog thread; on expiry the result is
    abandoned (the thread finishes in the background) and
    :class:`TaskTimeout` is raised immediately, so the caller — serial
    loop or pool worker — reports the timeout promptly instead of
    blocking on the slow task.
    """
    if timeout_s is None:
        return fn(payload)
    box: Dict[str, Any] = {}

    def _target() -> None:
        try:
            box["value"] = fn(payload)
        except BaseException as exc:  # noqa: BLE001 - reraised below
            box["error"] = exc

    thread = threading.Thread(target=_target, daemon=True)
    thread.start()
    thread.join(timeout_s)
    if thread.is_alive():
        raise TaskTimeout(
            f"task exceeded its {timeout_s:g}s execution bound"
        )
    if "error" in box:
        raise box["error"]
    return box["value"]


def _pool_entry(
    fn: Callable[[Any], Any], payload: Any, timeout_s: Optional[float]
) -> Tuple[str, Any]:
    """Worker-side wrapper: normal errors come back as values.

    Only infrastructure failures (a dead worker, an unpicklable
    return) surface through the future's exception channel.
    """
    try:
        return (STATUS_OK, call_with_timeout(fn, payload, timeout_s))
    except TaskTimeout as exc:
        return (STATUS_TIMEOUT, str(exc))
    except Exception as exc:  # noqa: BLE001 - reported, not raised
        return (STATUS_ERROR, f"{type(exc).__name__}: {exc}")


class SupervisedPool:
    """A persistent, self-healing worker pool for one task function.

    Args:
        fn: a picklable **module-level** callable of one payload
            argument (pool mode pickles both the function and each
            payload; enforced by lint rule R10).
        workers: worker process count. ``1`` executes in the calling
            thread with no executor at all — worker-side caches then
            live in the calling process itself.
        mp_context: multiprocessing start method; ``None`` = platform
            default.
        timeout_s: per-task execution bound enforced inside the worker.
        on_broken: callback fired once per pool breakage (after the
            rebuild), e.g. ``breaker.record_failure``.

    Call :meth:`run_many` or :meth:`run_one` from any number of
    threads; every payload gets exactly one single-attempt outcome.
    """

    def __init__(
        self,
        fn: Callable[[Any], Any],
        workers: int = 1,
        mp_context: Optional[str] = None,
        timeout_s: Optional[float] = None,
        on_broken: Optional[Callable[[], None]] = None,
    ):
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        self.fn = fn
        self.workers = workers
        self.timeout_s = timeout_s
        self.mp_context = mp_context
        self.on_broken = on_broken
        self._lock = threading.Lock()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._generation = 0
        self._closed = False
        self._rebuilds = 0

    # ------------------------------------------------------------------

    def _ensure_executor(self) -> Tuple[Optional[ProcessPoolExecutor], int]:
        """The live executor (``None`` in process) and its generation,
        creating it on demand; raises once the pool is closed."""
        with self._lock:
            if self._closed:
                raise RuntimeError("SupervisedPool is closed")
            if self._executor is None and self.workers > 1:
                context = (
                    multiprocessing.get_context(self.mp_context)
                    if self.mp_context is not None
                    else None
                )
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=context
                )
            return self._executor, self._generation

    def _handle_broken(self, generation: int) -> None:
        """Rebuild after a breakage — once per generation, not per
        thread that observed it."""
        with self._lock:
            if self._closed or generation != self._generation:
                return  # another thread already rebuilt this corpse
            executor, self._executor = self._executor, None
            self._generation += 1
            self._rebuilds += 1
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)
        if self.on_broken is not None:
            self.on_broken()

    def _submit(self, payload: Any) -> Tuple[Future, int]:
        """Start one attempt; a refused submission (closed or broken
        pool, unpicklable payload) comes back inside the future."""
        future: Future = Future()
        generation = -1
        try:
            executor, generation = self._ensure_executor()
            if executor is None:
                future.set_result(
                    _pool_entry(self.fn, payload, self.timeout_s)
                )
            else:
                future = executor.submit(
                    _pool_entry, self.fn, payload, self.timeout_s
                )
        except Exception as exc:  # noqa: BLE001 - reported per task
            future.set_exception(exc)
        return future, generation

    def _collect(
        self, future: Future, generation: int, index: int, start: float
    ) -> TaskOutcome:
        try:
            status, value = future.result()
        except BrokenProcessPool:
            self._handle_broken(generation)
            status, value = (
                STATUS_POOL_BROKEN,
                "worker process died (BrokenProcessPool); pool rebuilt",
            )
        except Exception as exc:  # closed pool, unpicklable result etc.
            status, value = STATUS_ERROR, f"{type(exc).__name__}: {exc}"
        ok = status == STATUS_OK
        return TaskOutcome(
            index=index,
            status=status,
            value=value if ok else None,
            error=None if ok else str(value),
            attempts=1,
            elapsed_s=time.perf_counter() - start,
        )

    # ------------------------------------------------------------------

    def run_many(
        self, payloads: Sequence[Any], indices: Sequence[int]
    ) -> Iterator[TaskOutcome]:
        """One single-attempt outcome per payload, in completion order.

        Outcome ``i`` carries ``indices[i]``. In process, each payload
        runs when the iterator reaches it; with workers, all are
        submitted at once. A worker death comes back as a
        ``"pool-broken"`` outcome for every task in flight (the caller
        decides whether to retry, degrade or give up); the pool has
        already been rebuilt for the next submission by then.
        """
        in_flight: Dict[Future, Tuple[int, int, float]] = {}
        for payload, index in zip(payloads, indices):
            start = time.perf_counter()
            future, generation = self._submit(payload)
            if future.done():
                yield self._collect(future, generation, index, start)
            else:
                in_flight[future] = (generation, index, start)
        for future in as_completed(in_flight):
            yield self._collect(future, *in_flight[future])

    def run_one(self, payload: Any, index: int = 0) -> TaskOutcome:
        """Execute one payload; always returns a terminal outcome."""
        (outcome,) = self.run_many([payload], [index])
        return outcome

    # ------------------------------------------------------------------

    @property
    def rebuilds(self) -> int:
        with self._lock:
            return self._rebuilds

    def close(self) -> None:
        """Shut the executor down; further calls get error outcomes."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)


def run_tasks(
    fn: Callable[[Any], Any],
    payloads: Sequence[Any],
    config: Optional[PoolConfig] = None,
    progress: Optional[Callable[[TaskOutcome], None]] = None,
) -> List[TaskOutcome]:
    """Map ``fn`` over ``payloads``; one outcome per payload, in order.

    Args:
        fn: a picklable module-level callable of one payload argument
            (pool mode pickles both the function and each payload).
        payloads: the work items.
        config: execution knobs; defaults to serial in-process.
        progress: optional callback invoked once per task with its
            *final* outcome, in completion order.

    Returns:
        Outcomes positionally aligned with ``payloads``.
    """
    config = config if config is not None else PoolConfig()
    outcomes = [
        TaskOutcome(index=i, status=STATUS_ERROR)
        for i in range(len(payloads))
    ]
    pool = SupervisedPool(
        fn,
        workers=config.workers,
        mp_context=config.mp_context,
        timeout_s=config.timeout_s,
    )
    try:
        pending = list(range(len(payloads)))
        for wave in range(config.max_retries + 1):
            if not pending:
                break
            if wave:
                time.sleep(backoff_delay_s(wave, config.backoff_s))
            last_wave = wave == config.max_retries
            for attempt in pool.run_many(
                [payloads[i] for i in pending], pending
            ):
                outcome = outcomes[attempt.index]
                outcome.attempts += 1
                outcome.elapsed_s += attempt.elapsed_s
                outcome.value, outcome.error = attempt.value, attempt.error
                # The pool already rebuilt itself; a task caught in the
                # breakage is retried like any other failure.
                outcome.status = (
                    STATUS_ERROR
                    if attempt.status == STATUS_POOL_BROKEN
                    else attempt.status
                )
                if (outcome.ok or last_wave) and progress is not None:
                    progress(outcome)
            pending = [i for i in pending if not outcomes[i].ok]
            if pool.rebuilds > config.max_pool_rebuilds:
                # Rebuild budget exhausted: the payload set breaks
                # every pool it meets. Abandon the survivors with a
                # terminal outcome instead of another doomed wave.
                if not last_wave:
                    for i in pending:
                        outcome = outcomes[i]
                        outcome.status = STATUS_POOL_BROKEN
                        outcome.error = (
                            f"worker pool broke {pool.rebuilds} "
                            f"time(s); giving up (max_pool_rebuilds"
                            f"={config.max_pool_rebuilds})"
                        )
                        if progress is not None:
                            progress(outcome)
                break
    finally:
        pool.close()
    return outcomes


__all__ = [
    "PoolConfig",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_POOL_BROKEN",
    "STATUS_TIMEOUT",
    "SupervisedPool",
    "TaskOutcome",
    "TaskTimeout",
    "backoff_delay_s",
    "call_with_timeout",
    "run_tasks",
]
