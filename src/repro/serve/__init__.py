"""Batch planning service over a cache-sharing worker pool.

Many planning problems, one call::

    from repro.serve import PlanJob, PlanningService

    jobs = [
        PlanJob(network, requests, num_chargers=k, planner=name)
        for k in (1, 2, 3)
        for name in ("Appro", "K-minMax")
    ]
    service = PlanningService(workers=4, timeout_s=60.0, max_retries=1)
    results = service.run(jobs)          # one JobResult per job, in order
    print(service.stats())

Jobs sharing a network object form a group and reuse one warm
:class:`~repro.pipeline.PlanningContext` (and distance cache) inside
whichever worker runs them; failures come back as structured results
instead of exceptions; and for any worker count the batch's ordered
:meth:`~repro.serve.jobs.JobResult.parity_key` sequence is
byte-identical to the sequential run's. On disk, batches are
``repro-job/1`` JSONL files (:func:`~repro.serve.jobs.load_jobs`) and
results ``repro-result/1`` lines — the ``repro serve`` CLI wires the
two together.
"""

from repro.serve.admission import (
    AdmissionPolicy,
    REJECT_DEADLINE,
    REJECT_PAYLOAD,
    REJECT_QUEUE_FULL,
    REJECT_REASONS,
    REJECT_SHUTDOWN,
    Rejection,
    STATUS_REJECTED,
    ServiceTimeEstimator,
)
from repro.serve.daemon import (
    DAEMON_STATUS_FORMAT,
    DaemonConfig,
    JobTicket,
    PlanningDaemon,
    geometry_digest,
    network_digest,
)
from repro.serve.health import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
)
from repro.serve.jobs import (
    JobLineError,
    JobResult,
    JobStreamReader,
    PlanJob,
    job_to_dict,
    jobs_from_lines,
    jobs_from_records,
    jobs_to_jsonl,
    load_jobs,
    load_jobs_lenient,
    save_jobs,
)
from repro.serve.pool import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_POOL_BROKEN,
    STATUS_TIMEOUT,
    PoolConfig,
    SupervisedPool,
    TaskOutcome,
    TaskTimeout,
    call_with_timeout,
    run_tasks,
)
from repro.serve.sanitize import (
    Divergence,
    SanitizeReport,
    build_corpus,
    run_matrix,
    sanitize_corpus,
)
from repro.serve.service import (
    REQUIRED_VALUE_KEYS,
    PlanningService,
    result_from_outcome,
)
from repro.serve.transport import (
    DaemonSession,
    DaemonSocketServer,
    make_socket_server,
    request,
    request_status,
    serve_stream,
)
from repro.serve.workers import execute_plan_job, reset_worker_cache

__all__ = [
    "AdmissionPolicy",
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "CircuitBreaker",
    "DAEMON_STATUS_FORMAT",
    "DaemonConfig",
    "DaemonSession",
    "DaemonSocketServer",
    "Divergence",
    "JobLineError",
    "JobResult",
    "JobStreamReader",
    "JobTicket",
    "PlanJob",
    "PlanningDaemon",
    "PlanningService",
    "PoolConfig",
    "REJECT_DEADLINE",
    "REJECT_PAYLOAD",
    "REJECT_QUEUE_FULL",
    "REJECT_REASONS",
    "REJECT_SHUTDOWN",
    "REQUIRED_VALUE_KEYS",
    "Rejection",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_POOL_BROKEN",
    "STATUS_REJECTED",
    "STATUS_TIMEOUT",
    "SanitizeReport",
    "ServiceTimeEstimator",
    "SupervisedPool",
    "TaskOutcome",
    "TaskTimeout",
    "build_corpus",
    "call_with_timeout",
    "execute_plan_job",
    "job_to_dict",
    "jobs_from_lines",
    "jobs_from_records",
    "jobs_to_jsonl",
    "load_jobs",
    "load_jobs_lenient",
    "make_socket_server",
    "geometry_digest",
    "network_digest",
    "request",
    "request_status",
    "reset_worker_cache",
    "result_from_outcome",
    "run_matrix",
    "run_tasks",
    "sanitize_corpus",
    "save_jobs",
    "serve_stream",
]
