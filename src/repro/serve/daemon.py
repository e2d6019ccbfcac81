"""The always-on planning daemon: admission, backpressure, degradation.

Where :class:`~repro.serve.service.PlanningService` answers "run this
batch", :class:`PlanningDaemon` answers "keep answering planning
requests until told to stop" — the shape a charging dispatcher
actually has in deployment, where request sets arrive as sensors drain
rather than in neat pre-assembled batches. The daemon composes the
pieces this package already trusts:

* **Persistent warm contexts** — one stable daemon ``token`` plus
  *geometry-digest* group keys (:func:`geometry_digest`) key the
  worker-side :data:`~repro.serve.workers._GROUP_CACHE`, so two
  requests about the same network — arriving minutes apart, inlined
  or referenced, from different connections, even after residual
  energies drifted — land on the same warm
  :class:`~repro.pipeline.PlanningContext` group; the worker syncs
  drifted residuals onto the pinned network and calls
  :meth:`~repro.pipeline.PlanningContext.invalidate` per changed
  sensor instead of rebuilding. The
  :class:`~repro.serve.pool.SupervisedPool` keeps worker processes
  (and therefore those caches) alive across requests; with
  ``workers=1`` the cache lives in the daemon process itself.
* **Admission control** (:mod:`repro.serve.admission`) — a bounded
  queue with explicit, structured backpressure: ``queue-full``,
  ``deadline-unmeetable`` (optimistic-bound policy), and
  ``payload-too-large`` rejections are immediate terminal results.
* **Coalescing** — concurrent submissions sharing an identity key
  ``(network digest, request set, K, planner)`` execute once; every
  submission still receives its own result record.
* **Health supervision** — per-job watchdog timeouts, automatic pool
  rebuild on worker death, and a :class:`~repro.serve.health.CircuitBreaker`
  that trips after repeated rebuilds. While the breaker is open,
  admitted jobs run *degraded*: in-process, on the configured cheap
  planner, so the daemon keeps answering (with honest results naming
  the planner that actually ran) instead of feeding a dying pool.
* **Lifecycle** — :meth:`PlanningDaemon.shutdown` drains: in-flight
  jobs finish, queued-but-unstarted ones get terminal
  ``shutting-down`` rejections, and every ticket ever issued resolves
  exactly once. :meth:`reconfigure` applies a new
  :class:`DaemonConfig` to the hot-reloadable knobs (SIGHUP path).

Determinism: the daemon assigns result indices in submission order and
delegates execution to the same ``execute_plan_job`` worker as the
batch service, so an accepted job's
:meth:`~repro.serve.jobs.JobResult.parity_key` is byte-identical to
what a serial :func:`~repro.pipeline.run_planner` call would produce —
the property pinned by the daemon cell of the determinism matrix and
the CI socket smoke test.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.io import PathLike, dump_jsonl_line, wrsn_to_dict
from repro.network.topology import WRSN
from repro.serve.admission import (
    AdmissionPolicy,
    REJECT_SHUTDOWN,
    Rejection,
    ServiceTimeEstimator,
)
from repro.serve.health import CircuitBreaker
from repro.serve.jobs import JobResult, PlanJob
from repro.serve.pool import SupervisedPool, TaskOutcome
from repro.serve.service import (
    plan_job_payload,
    result_from_outcome,
    unknown_planner_result,
)
from repro.serve.workers import execute_plan_job

#: Status document format tag.
DAEMON_STATUS_FORMAT = "repro-daemon-status/1"

#: Distinguishes daemons sharing one process (tests): the worker cache
#: keys on ``(token, group_key)``.
_DAEMON_COUNTER = itertools.count()


def network_digest(network: WRSN) -> str:
    """Content-addressed group key for a network.

    Two structurally identical networks — same canonical
    ``repro-wrsn`` document — digest identically even when they are
    different objects from different connections, which is exactly
    what lets a long-lived daemon keep one warm context group per
    *network identity* instead of per client object.
    """
    canonical = dump_jsonl_line(wrsn_to_dict(network))
    return "net-" + hashlib.sha256(canonical.encode()).hexdigest()[:16]


def geometry_digest(network: WRSN) -> str:
    """Group key for a network's *geometry* — residuals excluded.

    Residual energies drift between requests as sensors drain, but
    everything a :class:`~repro.pipeline.PlanningContext` memoizes
    about geometry (distance cache, charging graph, MIS candidates,
    coverage disks, codecs) depends only on positions and capacities.
    Keying warm-context groups on this digest lets a drifted request
    land on its warm group and pay only a per-sensor
    :meth:`~repro.pipeline.PlanningContext.invalidate` (done worker-
    side by ``execute_plan_job``) instead of a cold rebuild.

    :func:`network_digest` still keys coalescing and the known-network
    table: two jobs differing only in residuals are different *work*,
    just the same *geometry*.
    """
    doc = wrsn_to_dict(network)
    for sensor in doc.get("sensors", []):
        sensor.pop("level_j", None)
    canonical = dump_jsonl_line(doc)
    return "geo-" + hashlib.sha256(canonical.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class DaemonConfig:
    """Everything the daemon needs to know, JSON-loadable for SIGHUP.

    Attributes:
        workers: pool worker count; ``1`` plans in-process.
        timeout_s: per-job watchdog bound, seconds; ``None`` = none.
        max_queue: bounded admission queue capacity.
        max_requests: largest admissible request set; ``None`` = no cap.
        degraded_planner: planner used while the breaker is open; the
            cheapest registered planner by default.
        breaker_failures: pool breakages that trip the breaker.
        breaker_cooldown_s: base breaker cooldown (doubles per trip).
        breaker_cooldown_cap_s: cooldown ceiling.
        mp_context: multiprocessing start method for the pool.
    """

    workers: int = 1
    timeout_s: Optional[float] = None
    max_queue: int = 64
    max_requests: Optional[int] = None
    degraded_planner: str = "K-EDF"
    breaker_failures: int = 3
    breaker_cooldown_s: float = 1.0
    breaker_cooldown_cap_s: float = 60.0
    mp_context: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workers <= 0:
            raise ValueError(
                f"workers must be positive, got {self.workers}"
            )
        if self.max_queue <= 0:
            raise ValueError(
                f"max_queue must be positive, got {self.max_queue}"
            )

    @classmethod
    def from_file(cls, path: PathLike) -> "DaemonConfig":
        """Load a config from a JSON object file; unknown keys error."""
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(
                f"daemon config must be a JSON object, got "
                f"{type(raw).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ValueError(
                f"unknown daemon config keys: {', '.join(unknown)}"
            )
        return cls(**raw)

    def to_dict(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class JobTicket:
    """One submission's handle: resolves to exactly one terminal record.

    The daemon guarantees every ticket is resolved exactly once — with
    a planned :class:`JobResult`, an immediate error, or a structured
    rejection — no matter how the session ends.
    """

    def __init__(self, job: PlanJob, job_id: str, index: int):
        self.job = job
        self.job_id = job_id
        self.index = index
        self._event = threading.Event()
        self._record: Optional[Dict] = None
        self.job_result: Optional[JobResult] = None
        #: Monotonic stamps for end-to-end latency measurement
        #: (submission to terminal record), used by the load generator.
        self.submitted_at_s = time.monotonic()
        self.resolved_at_s: Optional[float] = None

    def _resolve(self, record: Dict, result: Optional[JobResult]) -> None:
        if self._event.is_set():  # pragma: no cover - defensive
            raise RuntimeError(f"ticket {self.job_id} resolved twice")
        self._record = record
        self.job_result = result
        self.resolved_at_s = time.monotonic()
        self._event.set()

    @property
    def done(self) -> bool:
        return self._event.is_set()

    @property
    def latency_s(self) -> Optional[float]:
        """Submission-to-resolution seconds; ``None`` while pending."""
        if self.resolved_at_s is None:
            return None
        return self.resolved_at_s - self.submitted_at_s

    def wait(self, timeout_s: Optional[float] = None) -> Dict:
        """Block for the terminal ``repro-result/1`` record."""
        if not self._event.wait(timeout_s):
            raise TimeoutError(
                f"ticket {self.job_id} unresolved after {timeout_s}s"
            )
        assert self._record is not None
        return self._record


class _Entry:
    """One unit of queued work: a leader ticket plus coalesced followers."""

    def __init__(self, key: Tuple, ticket: JobTicket, group_key: str):
        self.key = key
        self.group_key = group_key
        self.tickets: List[JobTicket] = [ticket]


class PlanningDaemon:
    """Long-lived planning server; see the module docstring.

    Args:
        config: the knob set; hot-reloadable via :meth:`reconfigure`.
        clock: monotonic time source for the breaker (test hook).

    Call :meth:`start` before submitting, :meth:`shutdown` to drain.
    The daemon is also a context manager doing exactly that.
    """

    def __init__(
        self,
        config: Optional[DaemonConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.config = config if config is not None else DaemonConfig()
        self._token = f"daemon-{os.getpid()}-{next(_DAEMON_COUNTER)}"
        self._clock = clock
        self._started_at = time.time()

        self.estimator = ServiceTimeEstimator()
        self.admission = AdmissionPolicy(
            max_queue=self.config.max_queue,
            max_requests=self.config.max_requests,
            workers=self.config.workers,
            estimator=self.estimator,
        )
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_failures,
            cooldown_s=self.config.breaker_cooldown_s,
            cooldown_cap_s=self.config.breaker_cooldown_cap_s,
            clock=clock,
        )
        self.pool = SupervisedPool(
            execute_plan_job,
            workers=self.config.workers,
            mp_context=self.config.mp_context,
            timeout_s=self.config.timeout_s,
            on_broken=self.breaker.record_failure,
        )
        # Degraded path: in-process, same watchdog semantics.
        self._degraded_pool = SupervisedPool(
            execute_plan_job,
            workers=1,
            timeout_s=self.config.timeout_s,
        )

        self._cond = threading.Condition()
        self._queue: Deque[_Entry] = deque()
        self._coalesce: Dict[Tuple, _Entry] = {}
        self._in_flight = 0
        self._accepting = False
        self._stopping = False
        self._runners: List[threading.Thread] = []
        self._next_index = 0
        #: Digest LRU so ``status()`` can report how often submissions
        #: hit an already-known network identity.
        self._known_networks: "OrderedDict[str, int]" = OrderedDict()
        self._counters: Dict[str, Any] = {
            "submitted": 0,
            "accepted": 0,
            "coalesced": 0,
            "rejected": {},
            "completed": {},
            "degraded": 0,
            "context_hits": 0,
            "context_misses": 0,
        }

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "PlanningDaemon":
        """Spawn the runner threads and open the front door."""
        with self._cond:
            if self._runners:
                return self
            if self._stopping:
                raise RuntimeError("daemon cannot restart after shutdown")
            self._accepting = True
            for i in range(self.config.workers):
                thread = threading.Thread(
                    target=self._runner_loop,
                    name=f"repro-daemon-runner-{i}",
                    daemon=True,
                )
                self._runners.append(thread)
        for thread in self._runners:
            thread.start()
        return self

    def __enter__(self) -> "PlanningDaemon":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        """Drain and stop: exactly one terminal outcome per ticket.

        In-flight jobs finish normally; queued-but-unstarted entries
        resolve to terminal ``shutting-down`` rejections; runner
        threads exit; both pools close. Idempotent.
        """
        with self._cond:
            self._accepting = False
            self._stopping = True
            drained = list(self._queue)
            self._queue.clear()
            for entry in drained:
                self._coalesce.pop(entry.key, None)
            self._cond.notify_all()
        rejection = Rejection(
            REJECT_SHUTDOWN, "daemon drained before this job started"
        )
        for entry in drained:
            for ticket in entry.tickets:
                self._count_rejection(REJECT_SHUTDOWN)
                ticket._resolve(
                    rejection.to_result_dict(
                        ticket.job_id, ticket.index, ticket.job
                    ),
                    None,
                )
        for thread in self._runners:
            thread.join()
        self.pool.close()
        self._degraded_pool.close()

    def reconfigure(self, config: DaemonConfig) -> List[str]:
        """Apply the hot-reloadable knobs of ``config`` (SIGHUP path).

        Queue/payload caps, the per-job timeout, the degraded planner
        and the breaker thresholds change atomically; ``workers`` and
        ``mp_context`` need a restart and are reported as skipped.

        Returns:
            Human-readable notes describing what changed or was
            skipped.
        """
        notes: List[str] = []
        old = self.config
        if config.workers != old.workers:
            notes.append(
                f"workers {old.workers}->{config.workers} needs a "
                f"restart; keeping {old.workers}"
            )
            config = replace(config, workers=old.workers)
        if config.mp_context != old.mp_context:
            notes.append(
                f"mp_context {old.mp_context!r}->{config.mp_context!r} "
                f"needs a restart; keeping {old.mp_context!r}"
            )
            config = replace(config, mp_context=old.mp_context)
        with self._cond:
            self.config = config
            self.admission.max_queue = config.max_queue
            self.admission.max_requests = config.max_requests
            self.pool.timeout_s = config.timeout_s
            self._degraded_pool.timeout_s = config.timeout_s
            self.breaker.failure_threshold = config.breaker_failures
            self.breaker.cooldown_s = config.breaker_cooldown_s
            self.breaker.cooldown_cap_s = config.breaker_cooldown_cap_s
        for name in (
            "max_queue",
            "max_requests",
            "timeout_s",
            "degraded_planner",
            "breaker_failures",
            "breaker_cooldown_s",
            "breaker_cooldown_cap_s",
        ):
            if getattr(config, name) != getattr(old, name):
                notes.append(
                    f"{name}: {getattr(old, name)!r} -> "
                    f"{getattr(config, name)!r}"
                )
        return notes

    # -- submission ----------------------------------------------------

    def submit(
        self, job: PlanJob, deadline_s: Optional[float] = None
    ) -> JobTicket:
        """Admit (or structurally reject) one job; never blocks.

        Returns a :class:`JobTicket`; rejected and invalid jobs come
        back with the ticket already resolved.
        """
        digest = network_digest(job.network)
        with self._cond:
            index = self._next_index
            self._next_index += 1
            self._counters["submitted"] += 1
            job_id = job.job_id or f"job-{index}"
            ticket = JobTicket(job, job_id, index)

            rejection = self.admission.admit(
                job,
                queue_depth=len(self._queue),
                deadline_s=deadline_s,
                accepting=self._accepting,
            )
            if rejection is not None:
                self._count_rejection(rejection.reason)
                ticket._resolve(
                    rejection.to_result_dict(job_id, index, job), None
                )
                return ticket
            result = unknown_planner_result(job, index, digest)
            if result is not None:
                self._count_completion(result.status)
                ticket._resolve(result.to_dict(), result)
                return ticket

            self._note_network(digest)
            self._counters["accepted"] += 1
            key = (digest, job.request_ids, job.num_chargers, job.planner)
            entry = self._coalesce.get(key)
            if entry is not None:
                entry.tickets.append(ticket)
                self._counters["coalesced"] += 1
                return ticket
            entry = _Entry(
                key, ticket, group_key=geometry_digest(job.network)
            )
            self._coalesce[key] = entry
            self._queue.append(entry)
            self._cond.notify()
            return ticket

    def run_batch(
        self,
        jobs: List[PlanJob],
        deadline_s: Optional[float] = None,
    ) -> List[Dict]:
        """Submit a batch and wait; records in submission order."""
        tickets = [self.submit(job, deadline_s) for job in jobs]
        return [ticket.wait() for ticket in tickets]

    # -- execution -----------------------------------------------------

    def _runner_loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stopping:
                    self._cond.wait()
                if self._stopping and not self._queue:
                    return
                entry = self._queue.popleft()
                self._in_flight += 1
            try:
                self._execute(entry)
            finally:
                with self._cond:
                    self._in_flight -= 1
                    self._cond.notify_all()

    def _execute(self, entry: _Entry) -> None:
        leader = entry.tickets[0]
        degraded = not self.breaker.allow()
        if degraded:
            planner = self.config.degraded_planner
            pool = self._degraded_pool
        else:
            planner = leader.job.planner
            pool = self.pool
        payload = plan_job_payload(
            leader.job,
            self._token,
            entry.group_key,
            planner=planner,
            share_contexts=True,
        )
        outcome = pool.run_one(payload, index=leader.index)
        if not degraded:
            if outcome.ok:
                self.breaker.record_success()
            # Breakages already count through the pool's on_broken
            # hook; other failures are the job's fault, not the
            # pool's, and leave the breaker alone.
        self._finish(entry, outcome, planner, degraded)

    def _finish(
        self,
        entry: _Entry,
        outcome: TaskOutcome,
        executed_planner: str,
        degraded: bool,
    ) -> None:
        with self._cond:
            self._coalesce.pop(entry.key, None)
            tickets = list(entry.tickets)
            if degraded:
                self._counters["degraded"] += len(tickets)
        for ticket in tickets:
            result = result_from_outcome(
                ticket.job, ticket.index, entry.group_key, outcome
            )
            result.job_id = ticket.job_id
            # Honesty over symmetry: the record names the planner that
            # actually ran, which differs from the request when the
            # breaker forced the degraded path.
            result.planner = executed_planner
            with self._cond:
                self._count_completion(result.status)
                if result.ok:
                    if result.context_reused:
                        self._counters["context_hits"] += 1
                    else:
                        self._counters["context_misses"] += 1
            ticket._resolve(result.to_dict(), result)
        if outcome.ok and isinstance(outcome.value, dict):
            plan_s = outcome.value.get("plan_s")
            if isinstance(plan_s, (int, float)):
                self.estimator.observe(float(plan_s))

    # -- bookkeeping ---------------------------------------------------

    def _count_rejection(self, reason: str) -> None:
        counts = self._counters["rejected"]
        counts[reason] = counts.get(reason, 0) + 1

    def _count_completion(self, status: str) -> None:
        counts = self._counters["completed"]
        counts[status] = counts.get(status, 0) + 1

    def _note_network(self, digest: str) -> None:
        if digest in self._known_networks:
            self._known_networks.move_to_end(digest)
            self._known_networks[digest] += 1
        else:
            self._known_networks[digest] = 1
            while len(self._known_networks) > 64:
                self._known_networks.popitem(last=False)

    def status(self) -> Dict[str, Any]:
        """The ``repro-daemon-status/1`` document."""
        with self._cond:
            queue_depth = len(self._queue)
            in_flight = self._in_flight
            counters = {
                "submitted": self._counters["submitted"],
                "accepted": self._counters["accepted"],
                "coalesced": self._counters["coalesced"],
                "degraded": self._counters["degraded"],
                "rejected": dict(self._counters["rejected"]),
                "completed": dict(self._counters["completed"]),
            }
            hits = self._counters["context_hits"]
            misses = self._counters["context_misses"]
            networks_seen = len(self._known_networks)
            accepting = self._accepting
        total = hits + misses
        return {
            "format": DAEMON_STATUS_FORMAT,
            "pid": os.getpid(),
            "uptime_s": time.time() - self._started_at,
            "accepting": accepting,
            "workers": self.config.workers,
            "queue_depth": queue_depth,
            "queue_capacity": self.config.max_queue,
            "in_flight": in_flight,
            "breaker": self.breaker.status(),
            "pool_rebuilds": self.pool.rebuilds,
            "context_cache": {
                "hits": hits,
                "misses": misses,
                "hit_rate": (hits / total) if total else 0.0,
                "networks_seen": networks_seen,
            },
            "min_service_s": self.estimator.min_service_s,
            "counters": counters,
        }


__all__ = [
    "DAEMON_STATUS_FORMAT",
    "DaemonConfig",
    "JobTicket",
    "PlanningDaemon",
    "geometry_digest",
    "network_digest",
]
