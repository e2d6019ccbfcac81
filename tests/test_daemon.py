"""The planning daemon: admission, coalescing, health, lifecycle.

Covers the pieces separately — circuit breaker timing on a fake
clock, admission policy bounds, the supervised pool's rebuild path —
and then the assembled :class:`PlanningDaemon`: warm-context
persistence across requests, identity coalescing, structured
rejections under backpressure, degraded routing while the breaker is
open, SIGTERM-style drain, and hot reconfiguration.

Planners that block or kill workers are registered in the parent
process; pool tests pin ``mp_context="fork"`` so workers inherit them.
"""

import json
import threading
import time

import pytest

from repro.io import RESULT_FORMAT, schedule_to_dict
from repro.network.topology import random_wrsn
from repro.pipeline import (
    PlannerInfo,
    register_planner,
    run_planner,
    unregister_planner,
)
from repro.serve import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    AdmissionPolicy,
    CircuitBreaker,
    DaemonConfig,
    PlanJob,
    PlanningDaemon,
    REJECT_DEADLINE,
    REJECT_PAYLOAD,
    REJECT_QUEUE_FULL,
    REJECT_SHUTDOWN,
    STATUS_POOL_BROKEN,
    STATUS_REJECTED,
    ServiceTimeEstimator,
    SupervisedPool,
    geometry_digest,
    network_digest,
)
from repro.serve.workers import execute_plan_job


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture
def net():
    return random_wrsn(num_sensors=15, seed=6)


def _job(net, job_id="j", planner="Appro", k=2, n=8):
    return PlanJob(
        net, tuple(net.all_sensor_ids()[:n]), k, planner, job_id
    )


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------

class TestCircuitBreaker:
    def test_trips_after_threshold(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, clock=clock)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED and breaker.allow()
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow()

    def test_half_open_probe_and_reset(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_s=2.0, clock=clock
        )
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(2.0)
        assert breaker.allow()  # the probe
        assert breaker.state == BREAKER_HALF_OPEN
        assert not breaker.allow()  # only one probe at a time
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.status()["trips"] == 0  # backoff reset

    def test_cooldown_backs_off_exponentially_with_cap(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_s=1.0, cooldown_cap_s=4.0,
            clock=clock,
        )
        cooldowns = []
        for _ in range(4):
            breaker.record_failure()
            cooldowns.append(breaker.status()["cooldown_s"])
            clock.advance(1000.0)
            assert breaker.allow()  # half-open probe, then fail again
        assert cooldowns == [1.0, 2.0, 4.0, 4.0]

    def test_failed_probe_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_s=1.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_failure()  # probe failed
        assert breaker.state == BREAKER_OPEN
        assert breaker.status()["cooldown_s"] == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown_s=5.0, cooldown_cap_s=1.0)


# ----------------------------------------------------------------------
# Admission policy
# ----------------------------------------------------------------------

class TestAdmission:
    def test_queue_full(self, net):
        policy = AdmissionPolicy(max_queue=2)
        assert policy.admit(_job(net), queue_depth=1) is None
        rejection = policy.admit(_job(net), queue_depth=2)
        assert rejection.reason == REJECT_QUEUE_FULL

    def test_payload_too_large(self, net):
        policy = AdmissionPolicy(max_requests=4)
        rejection = policy.admit(_job(net, n=8), queue_depth=0)
        assert rejection.reason == REJECT_PAYLOAD
        assert policy.admit(_job(net, n=4), queue_depth=0) is None

    def test_deadline_optimistic_before_observations(self, net):
        # No data yet: the optimistic bound is zero, everything admits.
        policy = AdmissionPolicy(max_queue=100)
        assert (
            policy.admit(_job(net), queue_depth=50, deadline_s=1e-9)
            is None
        )

    def test_deadline_unmeetable_after_observations(self, net):
        policy = AdmissionPolicy(max_queue=100, workers=2)
        policy.estimator.observe(1.0)
        policy.estimator.observe(0.5)  # min wins
        # 10 queued ahead / 2 workers * 0.5s wait + 0.5s own service
        # = 3.0s optimistic completion bound.
        rejection = policy.admit(
            _job(net), queue_depth=10, deadline_s=2.0
        )
        assert rejection.reason == REJECT_DEADLINE
        assert "3.000" in rejection.detail
        assert (
            policy.admit(_job(net), queue_depth=10, deadline_s=3.5)
            is None
        )

    def test_deadline_counts_own_service_time(self, net):
        # Regression: an empty queue used to yield a zero bound, so a
        # job whose deadline was shorter than any possible service
        # time was accepted — and then necessarily missed. The bound
        # now includes the arriving job's own optimistic service time.
        policy = AdmissionPolicy(max_queue=100, workers=2)
        policy.estimator.observe(1.0)
        rejection = policy.admit(
            _job(net), queue_depth=0, deadline_s=0.5
        )
        assert rejection is not None
        assert rejection.reason == REJECT_DEADLINE
        # A deadline the fastest-ever service can meet still admits.
        assert (
            policy.admit(_job(net), queue_depth=0, deadline_s=1.5)
            is None
        )

    def test_shutdown_wins(self, net):
        policy = AdmissionPolicy(max_queue=1)
        rejection = policy.admit(
            _job(net), queue_depth=0, accepting=False
        )
        assert rejection.reason == REJECT_SHUTDOWN

    def test_rejection_record_schema(self, net):
        policy = AdmissionPolicy(max_queue=1)
        rejection = policy.admit(_job(net), queue_depth=1)
        record = rejection.to_result_dict("x", 7, _job(net))
        assert record["format"] == RESULT_FORMAT
        assert record["status"] == STATUS_REJECTED
        assert record["reason"] == REJECT_QUEUE_FULL
        assert record["id"] == "x" and record["index"] == 7
        assert record["schedule"] is None

    def test_estimator_tracks_minimum(self):
        estimator = ServiceTimeEstimator()
        for s in (3.0, 1.0, 2.0, -1.0):
            estimator.observe(s)
        assert estimator.min_service_s == 1.0
        assert estimator.observations == 3
        assert estimator.optimistic_wait_s(4, 2) == 2.0


# ----------------------------------------------------------------------
# Supervised pool
# ----------------------------------------------------------------------

def _echo(payload):
    return payload


def _exit_hard(payload):
    import os

    os._exit(13)


class TestSupervisedPool:
    def test_serial_mode_runs_in_process(self):
        pool = SupervisedPool(_echo, workers=1)
        outcome = pool.run_one("x", index=3)
        assert outcome.ok and outcome.value == "x"
        assert outcome.index == 3 and outcome.attempts == 1
        pool.close()

    def test_broken_pool_reports_and_rebuilds(self):
        breakages = []
        pool = SupervisedPool(
            _exit_hard, workers=2, mp_context="fork",
            on_broken=lambda: breakages.append(1),
        )
        try:
            outcome = pool.run_one(None)
            assert outcome.status == STATUS_POOL_BROKEN
            assert "BrokenProcessPool" in outcome.error
            assert len(breakages) == 1
            assert pool.rebuilds == 1
            # The pool healed: a healthy function cannot run (fn is
            # fixed), but a new submission gets a fresh executor and a
            # terminal outcome rather than an exception.
            outcome = pool.run_one(None)
            assert outcome.status == STATUS_POOL_BROKEN
            assert pool.rebuilds == 2
        finally:
            pool.close()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_closed_pool_errors_structurally(self, workers):
        pool = SupervisedPool(_echo, workers=workers, mp_context="fork")
        pool.close()
        outcome = pool.run_one("x")
        assert not outcome.ok
        assert "closed" in outcome.error

    def test_warm_contexts_survive_across_calls(self, net):
        # The whole point of the persistent pool: two requests about
        # the same network, minutes apart, hit a warm context.
        pool = SupervisedPool(
            execute_plan_job, workers=2, mp_context="fork"
        )
        try:
            requests = tuple(net.all_sensor_ids()[:8])
            payload = {
                "token": "t-persist",
                "group_key": network_digest(net),
                "network": net,
                "requests": requests,
                "num_chargers": 2,
                "planner": "Appro",
                "share_contexts": True,
            }
            first = pool.run_one(dict(payload))
            assert first.ok and first.value["context_reused"] is False
            # Same worker count as outstanding submissions is 1, so
            # the follow-up lands on a warm worker eventually; retry a
            # few times to avoid scheduling flakes.
            reused = False
            for _ in range(8):
                again = pool.run_one(dict(payload))
                assert again.ok
                if again.value["context_reused"]:
                    reused = True
                    break
            assert reused, "no warm-context hit in 8 follow-up calls"
        finally:
            pool.close()


# ----------------------------------------------------------------------
# The daemon
# ----------------------------------------------------------------------

_GATE = threading.Event()
_STARTED = threading.Event()


def _gate_planner(network, request_ids, num_chargers, **kwargs):
    # Parks the (in-process) runner thread until the test opens the
    # gate, then delegates to a real planner so the job still succeeds.
    _STARTED.set()
    if not _GATE.wait(30.0):
        raise AssertionError("test gate never opened")
    return run_planner("K-EDF", network, request_ids, num_chargers)


def _die_planner(network, request_ids, num_chargers, **kwargs):
    import os

    os._exit(13)


@pytest.fixture
def gate_planner():
    _GATE.clear()
    _STARTED.clear()
    register_planner(
        PlannerInfo(name="Gate", build=_gate_planner, multi_node=True,
                    paper=False)
    )
    yield
    _GATE.set()
    unregister_planner("Gate")


@pytest.fixture
def die_planner():
    register_planner(
        PlannerInfo(name="Die", build=_die_planner, multi_node=True,
                    paper=False)
    )
    yield
    unregister_planner("Die")


class TestPlanningDaemon:
    def test_accepted_results_match_serial_run_planner(self, net):
        ids = tuple(net.all_sensor_ids()[:8])
        with PlanningDaemon(DaemonConfig(workers=1)) as daemon:
            records = daemon.run_batch(
                [
                    PlanJob(net, ids, 2, "Appro", "a"),
                    PlanJob(net, ids, 1, "K-EDF", "b"),
                ]
            )
        for record, (planner, k) in zip(
            records, [("Appro", 2), ("K-EDF", 1)]
        ):
            baseline = run_planner(planner, net, ids, k)
            assert record["status"] == "ok"
            assert record["longest_delay_s"] == baseline.longest_delay()
            assert record["schedule"] == schedule_to_dict(
                baseline, algorithm=planner
            )

    def test_warm_context_across_separate_submissions(self, net):
        # Two *separate* requests (not one batch) about networks that
        # are different objects with identical content: the digest
        # group key lands the second on the warm context.
        twin = random_wrsn(num_sensors=15, seed=6)
        assert twin is not net
        assert network_digest(twin) == network_digest(net)
        ids = tuple(net.all_sensor_ids()[:8])
        with PlanningDaemon(DaemonConfig(workers=1)) as daemon:
            first = daemon.submit(PlanJob(net, ids, 2, "Appro")).wait()
            second = daemon.submit(PlanJob(twin, ids, 2, "Appro")).wait()
        assert first["context_reused"] is False
        assert second["context_reused"] is True
        assert first["group"] == second["group"]

    def test_residual_drift_invalidates_instead_of_rebuilding(self, net):
        # Same geometry, drained batteries: the request must land on
        # the warm group (geometry digest ignores residuals), the
        # worker must invalidate exactly the drifted sensors, and the
        # warm replan must be byte-identical to a cold rebuild on the
        # drifted network.
        drifted = random_wrsn(num_sensors=15, seed=6)
        ids = tuple(net.all_sensor_ids()[:8])
        drained = {
            sid: 0.5 * drifted.sensor(sid).residual_j for sid in ids[:4]
        }
        drifted.set_residuals(drained)
        assert network_digest(drifted) != network_digest(net)
        assert geometry_digest(drifted) == geometry_digest(net)

        with PlanningDaemon(DaemonConfig(workers=1)) as daemon:
            first = daemon.submit(PlanJob(net, ids, 2, "Appro")).wait()
            second = daemon.submit(
                PlanJob(drifted, ids, 2, "Appro")
            ).wait()

        assert first["group"] == second["group"]
        # The drift rides the *warm* context — no cold rebuild.
        assert second["context_reused"] is True
        assert second["cache"]["invalidations"] >= 1

        cold = random_wrsn(num_sensors=15, seed=6)
        cold.set_residuals(drained)
        baseline = run_planner("Appro", cold, ids, 2)
        assert second["schedule"] == schedule_to_dict(
            baseline, algorithm="Appro"
        )
        assert second["longest_delay_s"] == baseline.longest_delay()
        # The drained batteries actually changed the answer, so the
        # byte match above is not vacuous.
        assert second["schedule"] != first["schedule"]

    def test_queue_full_rejection_and_ticket_terminality(
        self, gate_planner, net
    ):
        config = DaemonConfig(workers=1, max_queue=1)
        daemon = PlanningDaemon(config).start()
        try:
            blocker = daemon.submit(_job(net, "blocker", planner="Gate"))
            assert _STARTED.wait(10.0)
            queued = daemon.submit(_job(net, "queued", planner="Appro"))
            overflow = daemon.submit(_job(net, "over", planner="Appro",
                                          k=3))
            assert overflow.done  # rejected synchronously
            record = overflow.wait()
            assert record["status"] == STATUS_REJECTED
            assert record["reason"] == REJECT_QUEUE_FULL
            _GATE.set()
            assert blocker.wait(30.0)["status"] == "ok"
            assert queued.wait(30.0)["status"] == "ok"
        finally:
            _GATE.set()
            daemon.shutdown()
        status = daemon.status()
        assert status["counters"]["rejected"] == {REJECT_QUEUE_FULL: 1}

    def test_coalescing_shares_one_execution(self, gate_planner, net):
        daemon = PlanningDaemon(DaemonConfig(workers=1)).start()
        try:
            # Block the runner so the identical pair coalesces while
            # queued/running.
            daemon.submit(_job(net, "warmup", planner="Gate"))
            assert _STARTED.wait(10.0)
            first = daemon.submit(_job(net, "t1", planner="Appro"))
            twin = daemon.submit(_job(net, "t2", planner="Appro"))
            other = daemon.submit(_job(net, "t3", planner="Appro", k=3))
            _GATE.set()
            r1, r2, r3 = first.wait(30.0), twin.wait(30.0), other.wait(30.0)
        finally:
            _GATE.set()
            daemon.shutdown()
        assert r1["status"] == r2["status"] == r3["status"] == "ok"
        # Followers keep their own identity but share the leader's
        # scheduling output.
        assert (r1["id"], r2["id"]) == ("t1", "t2")
        assert r1["index"] != r2["index"]
        assert r1["schedule"] == r2["schedule"]
        assert r3["schedule"] != r2["schedule"]  # different K: not merged
        status = daemon.status()
        assert status["counters"]["coalesced"] == 1
        assert status["counters"]["accepted"] == 4

    def test_drain_rejects_queued_finishes_in_flight(
        self, gate_planner, net
    ):
        daemon = PlanningDaemon(DaemonConfig(workers=1)).start()
        in_flight = daemon.submit(_job(net, "running", planner="Gate"))
        assert _STARTED.wait(10.0)
        queued = daemon.submit(_job(net, "waiting", planner="Appro"))
        done = threading.Event()

        def _shutdown():
            daemon.shutdown()
            done.set()

        shutter = threading.Thread(target=_shutdown)
        shutter.start()
        # The queued job is rejected promptly, while the in-flight one
        # is still blocked on the gate.
        record = queued.wait(10.0)
        assert record["status"] == STATUS_REJECTED
        assert record["reason"] == REJECT_SHUTDOWN
        assert not done.is_set()
        _GATE.set()
        shutter.join(30.0)
        assert done.is_set()
        assert in_flight.wait(1.0)["status"] == "ok"
        # Post-drain submissions are turned away at the door.
        late = daemon.submit(_job(net, "late"))
        assert late.wait(1.0)["reason"] == REJECT_SHUTDOWN

    def test_breaker_opens_on_carnage_and_degrades(
        self, die_planner, net
    ):
        clock = FakeClock()
        config = DaemonConfig(
            workers=2,
            mp_context="fork",
            breaker_failures=1,
            breaker_cooldown_s=60.0,
            degraded_planner="K-EDF",
        )
        daemon = PlanningDaemon(config, clock=clock).start()
        try:
            fatal = daemon.submit(_job(net, "fatal", planner="Die"))
            record = fatal.wait(60.0)
            assert record["status"] == STATUS_POOL_BROKEN
            assert daemon.breaker.state == BREAKER_OPEN
            # While open, jobs run degraded in-process on the cheap
            # planner — including jobs that asked for the dying one.
            degraded = daemon.submit(_job(net, "d1", planner="Die"))
            record = degraded.wait(60.0)
            assert record["status"] == "ok"
            assert record["planner"] == "K-EDF"
            status = daemon.status()
            assert status["counters"]["degraded"] == 1
            assert status["breaker"]["state"] == BREAKER_OPEN
            # Cooldown over: the half-open probe reaches the real pool
            # with a healthy planner, closing the breaker.
            clock.advance(61.0)
            probe = daemon.submit(_job(net, "probe", planner="Appro"))
            assert probe.wait(60.0)["status"] == "ok"
            assert daemon.breaker.state == BREAKER_CLOSED
        finally:
            daemon.shutdown()

    def test_unknown_planner_is_immediate_error(self, net):
        with PlanningDaemon(DaemonConfig(workers=1)) as daemon:
            ticket = daemon.submit(_job(net, planner="NoSuch"))
            assert ticket.done
            record = ticket.wait()
        assert record["status"] == "error"
        assert record["attempts"] == 0
        assert "NoSuch" in record["error"]

    def test_reconfigure_applies_hot_knobs_only(self, net):
        with PlanningDaemon(DaemonConfig(workers=1)) as daemon:
            notes = daemon.reconfigure(
                DaemonConfig(
                    workers=4, max_queue=7, timeout_s=9.0,
                    degraded_planner="GreedyCover",
                )
            )
            assert daemon.config.workers == 1  # needs restart
            assert daemon.config.max_queue == 7
            assert daemon.admission.max_queue == 7
            assert daemon.pool.timeout_s == 9.0
            assert daemon.config.degraded_planner == "GreedyCover"
        assert any("restart" in note for note in notes)
        assert any("max_queue" in note for note in notes)

    def test_status_document_shape(self, net):
        with PlanningDaemon(DaemonConfig(workers=1)) as daemon:
            daemon.run_batch([_job(net, "a"), _job(net, "b")])
            status = daemon.status()
        assert status["format"] == "repro-daemon-status/1"
        assert status["queue_depth"] == 0
        assert status["in_flight"] == 0
        assert status["counters"]["completed"] == {"ok": 2}
        cache = status["context_cache"]
        assert cache["hits"] + cache["misses"] == 2
        assert 0.0 <= cache["hit_rate"] <= 1.0
        assert status["breaker"]["state"] == BREAKER_CLOSED
        assert status["min_service_s"] > 0


class TestDaemonConfig:
    def test_from_file_round_trip(self, tmp_path):
        path = tmp_path / "daemon.json"
        path.write_text(json.dumps({"workers": 3, "max_queue": 9}))
        config = DaemonConfig.from_file(path)
        assert config.workers == 3
        assert config.max_queue == 9
        assert config.degraded_planner == "K-EDF"

    def test_from_file_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "daemon.json"
        path.write_text(json.dumps({"workerz": 3}))
        with pytest.raises(ValueError, match="workerz"):
            DaemonConfig.from_file(path)

    def test_validation(self):
        with pytest.raises(ValueError):
            DaemonConfig(workers=0)
        with pytest.raises(ValueError):
            DaemonConfig(max_queue=0)


class TestNetworkDigest:
    def test_content_addressed(self, net):
        twin = random_wrsn(num_sensors=15, seed=6)
        other = random_wrsn(num_sensors=15, seed=7)
        assert network_digest(net) == network_digest(twin)
        assert network_digest(net) != network_digest(other)
        assert network_digest(net).startswith("net-")
