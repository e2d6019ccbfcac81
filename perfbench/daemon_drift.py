"""Workload ``daemon-drift-1200``: open-loop traffic into the daemon.

One generator thread submits ``Appro`` K = 2 jobs to an in-process
``PlanningDaemon(workers=1)`` on a fixed schedule, first at
``LOW_RATE`` and then at ``HIGH_RATE`` jobs per second, whether or not
earlier jobs have finished (an open loop: independent sensors raising
requests). Each job is a round-sized request set (10 to 120 sensors,
log-uniform, so most are small) on one of three fixed n = 1200
deployments whose residual energies drain a little before every job. A fixed share
of jobs re-plan a recent request set of the same network with the
drained residuals, which lands on a warm worker context and goes
through ``PlanningContext.invalidate``; the rest are fresh request
sets, so the run measures planning rather than memo hits.

Latency runs from the moment a job was due to be sent to the moment
its ticket resolved, so time spent inside ``submit()`` and any stall of
the generator count against the request. The worker has planned one
job before the first due time.

The daemon plans in its own process (one worker, no pool). With a
two-process pool on a shared 2-vCPU machine the pooled workers' speed
drifts apart from the generator's, and the median latency of ten seeded
runs spread by 45 % of its value, wider than any bound a benchmark can
hold; in one process the speed reference follows the planning work.
"""

from __future__ import annotations

import gc
import multiprocessing
import time
from dataclasses import dataclass, field
from statistics import fmean, median
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench import gate, layers, speed
from perfbench.common import Outcome, rng_for
from perfbench.stats import beyond, percentile
from perfbench.spans import Tracer

NUM_SENSORS = 1200
NETWORKS = 3
NUM_CHARGERS = 2
WORKERS = 1
#: Offered load of the two phases, jobs per second. One worker saturates
#: near 12 jobs/s with this job mix on a quiet machine, and at half that
#: when other tenants slow the machine down; above that an open loop's
#: queue grows without bound. The high rate keeps a margin so latency
#: measures the daemon, not a backlog.
LOW_RATE = 2.0
HIGH_RATE = 4.0
#: Share of the generation time spent in the low-rate phase.
LOW_SHARE = 0.5
#: Seconds of the run left for the last jobs to finish.
DRAIN_S = 1.5
MIN_SIZE, MAX_SIZE = 10, 120
REPLAN_SHARE = 0.25
#: A re-plan picks one of this many latest fresh sets of its network.
REPLAN_WINDOW = 8
#: Largest residual drain per sensor between two jobs, as a share of
#: capacity.
DRIFT = 2e-4
THRESHOLD = 0.2
#: Every this-many-th job is planned again in the benchmark process
#: and must pass ``validate()`` with identical schedule bytes.
REPLAY_EVERY = 10
WAIT_TIMEOUT_S = 60.0
#: ``make_instance`` seeds of the three deployments and of the warm-up
#: network, and the seed of the job stream's shape. Seeded deployments
#: and request sets change the median planning cost of a run by up to
#: half; the run seed draws energy levels only.
DEPLOYMENT_SEEDS = (1, 2, 3)
WARM_SEED = 99
STREAM_SEED = 0


@dataclass
class Job:
    phase: str
    network: int
    requests: Tuple[int, ...]
    levels: np.ndarray
    replan: bool


@dataclass
class Sent:
    job: Job
    due: float
    late_s: float
    submit_s: float
    returned: float
    ticket: object = None
    #: Speed scale factor of the pass the job was sent in.
    factor: float = 1.0


@dataclass
class State:
    networks: List[object]
    positions: List[Dict[int, Tuple[float, float]]]
    jobs: List[Job]
    radius_m: float
    daemon: object = None
    children: List[int] = field(default_factory=list)


def phase_counts(seconds: float) -> Tuple[int, int]:
    """Jobs sent in the low and the high phase of a ``seconds`` run."""
    gen = max(seconds - DRAIN_S, 1.0)
    return (
        max(1, round(LOW_RATE * gen * LOW_SHARE)),
        max(1, round(HIGH_RATE * gen * (1.0 - LOW_SHARE))),
    )


def _sizes(rng: np.random.Generator, count: int) -> List[int]:
    """``count`` request-set sizes, one per stratum of a log-uniform
    distribution on ``[MIN_SIZE, MAX_SIZE]``, in random order."""
    strata = (rng.permutation(count) + rng.uniform(size=count)) / count
    ratio = MAX_SIZE / MIN_SIZE
    return [int(round(MIN_SIZE * ratio**u)) for u in strata]


def build_jobs(seed: int, networks: List[object], capacity_j: float,
               counts: Tuple[int, int]) -> List[Job]:
    """The job stream of one run.

    Which network each job targets, its request set and which jobs
    re-plan are fixed (``STREAM_SEED``); the run seed draws how the
    residuals drain and the levels of requesting sensors.
    """
    rng = rng_for(STREAM_SEED, 3)
    energy = rng_for(seed, 3)
    levels = [
        np.array([net.sensor(s).residual_j for s in net.all_sensor_ids()])
        for net in networks
    ]
    history: List[List[Tuple[int, ...]]] = [[] for _ in networks]
    jobs: List[Job] = []
    for phase, count in zip(("low", "high"), counts):
        replans = round(REPLAN_SHARE * count)
        is_replan = np.zeros(count, dtype=bool)
        is_replan[rng.permutation(count)[:replans]] = True
        sizes = iter(_sizes(rng, count - replans))
        for j in range(count):
            k = int(rng.integers(len(networks)))
            lv = levels[k]
            lv -= energy.uniform(0.0, DRIFT, NUM_SENSORS) * capacity_j
            np.maximum(lv, 0.0, out=lv)
            recent = history[k][-REPLAN_WINDOW:]
            if is_replan[j] and recent:
                requests = recent[int(rng.integers(len(recent)))]
            else:
                size = next(sizes, None) or MIN_SIZE
                ids = rng.choice(NUM_SENSORS, size, replace=False)
                lv[ids] = energy.uniform(0.0, THRESHOLD, size) * capacity_j
                requests = tuple(sorted(int(i) for i in ids))
                history[k].append(requests)
            jobs.append(Job(phase, k, requests, lv.copy(),
                            bool(is_replan[j] and recent)))
    return jobs


def setup(seed: int, seconds: float) -> State:
    from repro.bench.workloads import PaperParams, make_instance
    from repro.serve import DaemonConfig, PlanJob, PlanningDaemon

    params = PaperParams(num_sensors=NUM_SENSORS)
    networks = [make_instance(params, k) for k in DEPLOYMENT_SEEDS]
    # Initial levels as make_instance draws them, from the run seed.
    low = params.request_threshold + params.initial_margin
    for k, net in enumerate(networks):
        fractions = rng_for(seed, 4, k).uniform(low, 1.0, NUM_SENSORS)
        net.set_residuals({
            sid: float(f) * params.capacity_j
            for sid, f in zip(net.all_sensor_ids(), fractions)
        })
    positions = [gate.coordinates(net) for net in networks]
    jobs = build_jobs(seed, networks, params.capacity_j, phase_counts(seconds))
    daemon = PlanningDaemon(DaemonConfig(workers=WORKERS)).start()
    # Run one job per worker on a network the stream never uses, so the
    # first measured job finds the daemon ready.
    warm = make_instance(params, WARM_SEED)
    tickets = [
        daemon.submit(PlanJob(warm, tuple(range(w, 40 * WORKERS, WORKERS)),
                              NUM_CHARGERS))
        for w in range(WORKERS)
    ]
    for ticket in tickets:
        ticket.wait(WAIT_TIMEOUT_S)
    return State(networks, positions, jobs, params.charger().charge_radius_m,
                 daemon, [p.pid for p in multiprocessing.active_children()])


def _network_for(state: State, job: Job):
    net = state.networks[job.network].copy()
    net.set_residuals({sid: float(lv) for sid, lv in enumerate(job.levels)})
    return net


def _send(state: State, schedule: List[Tuple[float, Job]]) -> List[Sent]:
    """Submit each job at its due offset; returns once all resolved."""
    from repro.serve import PlanJob

    sent: List[Sent] = []
    gc.collect()
    start = time.monotonic() + 0.05
    for offset, job in schedule:
        plan_job = PlanJob(_network_for(state, job), job.requests, NUM_CHARGERS)
        due = start + offset
        pause = due - time.monotonic()
        if pause > 0:
            time.sleep(pause)
        late = time.monotonic() - due
        t0 = time.perf_counter()
        ticket = state.daemon.submit(plan_job)
        submit_s = time.perf_counter() - t0
        sent.append(Sent(job, due, late, submit_s, time.monotonic(), ticket))
    for s in sent:
        s.ticket.wait(WAIT_TIMEOUT_S)
    return sent


def _timeline(jobs: List[Job], halves: int) -> List[List[Tuple[float, Job]]]:
    """Split the stream into ``halves`` passes, each a low-rate then a
    high-rate phase with due offsets from the pass start."""
    passes: List[List[Tuple[float, Job]]] = []
    for h in range(halves):
        schedule = []
        offset = 0.0
        for phase, rate in (("low", LOW_RATE), ("high", HIGH_RATE)):
            members = [j for j in jobs if j.phase == phase]
            share = len(members) // halves
            part = members[h * share:(h + 1) * share if h + 1 < halves else None]
            for i, job in enumerate(part):
                schedule.append((offset + i / rate, job))
            offset += len(part) / rate
        passes.append(schedule)
    return passes


def _replay(state: State, sent: List[Sent], problems: List[str]) -> int:
    """Plan every ``REPLAY_EVERY``-th job again in this process; return
    how many failed the full validator or differ in bytes."""
    from repro.pipeline import run_planner

    bad = 0
    for i in range(0, len(sent), REPLAY_EVERY):
        s = sent[i]
        result = s.ticket.job_result
        if result is None or not result.ok:
            continue
        plan = run_planner("Appro", _network_for(state, s.job),
                           s.job.requests, NUM_CHARGERS)
        found, replayed = gate.check_plan(
            plan, s.job.requests, state.positions[s.job.network])
        if gate.canonical_bytes(result.schedule) != gate.canonical_bytes(
                replayed):
            found.append("daemon schedule differs from an in-process plan")
        if found:
            bad += 1
            problems.extend(f"job {i} replay: {p}" for p in found)
    return bad


def measure(state: State, seconds: float, tracer: Optional[Tracer]) -> Outcome:
    passes = _timeline(state.jobs, 2 if tracer is not None else 1)
    results: List[List[Sent]] = []
    bracket = speed.Bracket()
    for h, schedule in enumerate(passes):
        traced = tracer is not None and h == len(passes) - 1
        if traced:
            layers.install(tracer)
        try:
            part = _send(state, schedule)
        finally:
            if traced:
                tracer.restore()
        bracket.close_unit(1.0)
        for s in part:
            s.factor = bracket.factor()
        results.append(part)
    sent = [s for part in results for s in part]

    problems: List[str] = []
    failed = 0
    digest = gate.Digest()
    for i, s in enumerate(sent):
        result = s.ticket.job_result
        if result is None or not result.ok:
            failed += 1
            record = s.ticket.wait(0)
            problems.append(f"job {i}: {record.get('status')} "
                            f"{record.get('error') or record.get('reason')}")
            continue
        found = gate.check_schedule_doc(
            result.schedule, s.job.requests,
            state.positions[s.job.network], state.radius_m)
        if found:
            failed += 1
            problems.extend(f"job {i}: {p}" for p in found)
        digest.add(gate.canonical_bytes(result.schedule))
    failed += _replay(state, sent, problems)

    plain = _ok(results[0])
    ok = _ok(sent)
    status = state.daemon.status()
    notes: Dict[str, object] = {
        "n": NUM_SENSORS, "K": NUM_CHARGERS, "workers": WORKERS,
        "rates_per_s": {"low": LOW_RATE, "high": HIGH_RATE},
        "late_s_max": max(s.late_s for s in sent),
        "replan_share": REPLAN_SHARE,
        "context_reused_share": (
            sum(s.ticket.job_result.context_reused for s in ok) / len(ok)),
        "coalesced": status["counters"]["coalesced"],
        "raw_result_s": percentile(
            [s.ticket.resolved_at_s - s.due for s in plain], 50),
        "reference_s": bracket.bursts,
    }
    notes.update(_phase_latencies(plain))
    # Means, not medians: job costs span a factor of forty, and the
    # median of a hundred such jobs jumps between neighbouring jobs of
    # unlike cost from run to run; the mean is the expected wait.
    metrics = {
        "solve_s": fmean([_plan_s(s) for s in plain]),
        "planned_delay_s": fmean(
            [s.ticket.job_result.longest_delay_s for s in ok]),
        "result_s": fmean([_latency(s) for s in plain]),
    }
    out = Outcome(metrics=metrics, attempted=len(sent), failed=failed,
                  problems=problems, digest=digest.hexdigest(), notes=notes)
    if tracer is not None:
        out.layers = _layer_metrics(tracer, plain, _ok(results[-1]),
                                    results[-1], status)
    return out


def _ok(sent: List[Sent]) -> List[Sent]:
    return [s for s in sent
            if s.ticket.job_result is not None and s.ticket.job_result.ok]


def _latency(s: Sent) -> float:
    """Seconds from the job's due time to its resolution, scaled."""
    return (s.ticket.resolved_at_s - s.due) * s.factor


def _plan_s(s: Sent) -> float:
    """Worker-side planning seconds, scaled."""
    return s.ticket.job_result.plan_s * s.factor


def _phase_latencies(done: List[Sent]) -> Dict[str, float]:
    """p50 and p95 latency per rate phase, with the sample count and
    how many samples lie beyond the p95."""
    out: Dict[str, float] = {}
    for phase in ("low", "high"):
        lat = [_latency(s) for s in done if s.job.phase == phase]
        out[f"latency_p50_{phase}_s"] = percentile(lat, 50)
        out[f"latency_p95_{phase}_s"] = percentile(lat, 95)
        out[f"samples_{phase}"] = len(lat)
        out[f"beyond_p95_{phase}"] = beyond(len(lat), 95)
    return out


def _layer_metrics(tracer: Tracer, plain: List[Sent], done: List[Sent],
                   traced: List[Sent], status: Dict) -> Dict[str, float]:
    contexts: Dict[tuple, dict] = {}
    caches: Dict[str, dict] = {}
    for s in sorted(done, key=lambda s: s.ticket.resolved_at_s):
        r = s.ticket.job_result
        contexts[(r.group_key, s.job.requests)] = r.cache
        caches[r.group_key] = r.cache
    counts = layers.context_counts(contexts.values(), caches.values())
    phases = _phase_latencies(done)
    counts.update({
        "serve.submit_s_p50": median([s.submit_s * s.factor for s in traced]),
        "serve.queue_wait_s_p50": median([
            (s.ticket.resolved_at_s - s.returned - s.ticket.job_result.total_s)
            * s.factor for s in done]),
        "serve.plan_s_p50": median([_plan_s(s) for s in done]),
        "serve.context_reused_share": (
            sum(s.ticket.job_result.context_reused for s in done) / len(done)),
        "serve.coalesced": status["counters"]["coalesced"],
        "serve.rejected": sum(status["counters"]["rejected"].values()),
        "serve.pool_rebuilds": status["pool_rebuilds"],
        "driver.late_s_max": max(s.late_s for s in traced),
        "driver.samples_low": phases["samples_low"],
        "driver.samples_high": phases["samples_high"],
        "trace.overhead_s": layers.overhead(
            [_latency(s) for s in plain], [_latency(s) for s in done]),
        "layers.chosen_share": tracer.covered(["serve."]) / sum(
            _latency(s) for s in done),
    })
    for name in ("p50_low", "p95_low", "p50_high", "p95_high"):
        counts[f"driver.latency_{name}_s"] = phases[f"latency_{name}_s"]
    return layers.layer_metrics(tracer, 1, counts)


def close(state: State) -> None:
    if state.daemon is not None:
        state.daemon.shutdown()
        state.daemon = None
