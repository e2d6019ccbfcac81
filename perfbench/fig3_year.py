"""Workload ``fig3-year-1200``: the paper's Fig. 3 point as one run.

One ``MonitoringSimulation`` of ``Appro`` with n = 1200, K = 2 over a
one-year horizon on a paper-parameter network. The year is a few
hundred small rounds (a median of about a dozen requests), each planned
on a fresh ``PlanningContext`` that shares one distance cache, so the
tour construction inside each round dominates and the charging graph
and step-6 insertion are cheap.

The deployment (positions and sensing rates) is fixed; the run seed
draws the initial battery levels. Two deployments differ by up to a
factor of two in rounds, delay and dead time over a year, so a seeded
deployment would make each run a sample of a wide distribution rather
than a measurement of one year's work.
"""

from __future__ import annotations

import gc
import time
from contextlib import nullcontext
from dataclasses import dataclass
from statistics import fmean, median
from typing import Dict, List, Optional, Tuple

from perfbench import gate, layers, speed
from perfbench.common import Outcome, repeat_for, rng_for
from perfbench.spans import Tracer

NUM_SENSORS = 1200
#: ``make_instance`` seed of the fixed deployment.
DEPLOYMENT_SEED = 0


@dataclass
class State:
    params: object
    network: object
    positions: Dict[int, Tuple[float, float]]


def setup(seed: int, seconds: float) -> State:
    from repro.bench.workloads import PaperParams, make_instance

    # Imported here so that set-up time counts them.
    import repro.pipeline  # noqa: F401
    import repro.sim.simulator  # noqa: F401

    params = PaperParams(num_sensors=NUM_SENSORS)
    network = make_instance(params, DEPLOYMENT_SEED)
    # Initial levels as make_instance draws them, from the run seed.
    low = params.request_threshold + params.initial_margin
    levels = rng_for(seed, 2).uniform(low, 1.0, NUM_SENSORS)
    network.set_residuals({
        sid: float(f) * params.capacity_j
        for sid, f in zip(network.all_sensor_ids(), levels)
    })
    return State(params, network, gate.coordinates(network))


def measure(state: State, seconds: float, tracer: Optional[Tracer]) -> Outcome:
    from repro.pipeline import planner as planner_mod
    from repro.sim.simulator import MonitoringSimulation

    params = state.params
    traced_mode = tracer is not None
    runs: List[Tuple[str, float, float, int]] = []
    problems: List[str] = []
    failed = 0
    attempted = 0
    plain_s: List[float] = []
    traced_s: List[float] = []
    round_s: List[float] = []
    raw_s: List[float] = []
    bracket = speed.Bracket()
    context_stats: List[dict] = []
    distance_stats: List[dict] = []

    def unit(i: int) -> float:
        nonlocal failed, attempted
        traced = traced_mode and i % 2 == 1
        digest = gate.Digest()
        rounds: List[float] = []
        paused = 0.0
        last_stats: List[dict] = []

        def appro(network, request_ids, num_chargers, charger=None,
                  lifetimes=None):
            nonlocal failed, attempted, paused
            start = time.perf_counter()
            plan = planner_mod.run_planner(
                "Appro", network, request_ids, num_chargers,
                charger=charger, lifetimes=lifetimes,
            )
            checked = time.perf_counter()
            rounds.append(checked - start)
            # The gate runs here so that no plan outlives its round;
            # its time is taken out of the simulation's.
            with tracer.span("bench.gate") if traced else nullcontext():
                found, doc = gate.check_plan(plan, request_ids,
                                             state.positions)
                attempted += 1
                if found:
                    failed += 1
                    problems.extend(f"sim {i} round {len(rounds)}: {p}"
                                    for p in found)
                digest.add(gate.canonical_bytes(doc))
                if traced:
                    last_stats[:] = [plan.context.stats()]
                    context_stats.append(last_stats[0])
            paused += time.perf_counter() - checked
            return plan

        sim = MonitoringSimulation(
            state.network,
            appro,
            params.num_chargers,
            charger=params.charger(),
            threshold=params.request_threshold,
            horizon_s=params.horizon_s,
        )
        gc.collect()
        if traced:
            layers.install(tracer)
        start = time.perf_counter()
        result = sim.run()
        elapsed = time.perf_counter() - start - paused
        raw_s.append(elapsed)
        scaled = bracket.close_unit(elapsed)
        if traced:
            tracer.restore()
            traced_s.append(scaled)
            distance_stats.extend(last_stats)
        else:
            plain_s.append(scaled)
            round_s.extend(t * bracket.factor() for t in rounds)
        runs.append((
            digest.hexdigest(),
            result.mean_longest_delay_s,
            result.avg_dead_time_per_sensor_minutes,
            result.num_rounds,
        ))
        return elapsed

    times = repeat_for(seconds, 2 if traced_mode else 1, unit)
    if len(set(runs)) != 1:
        failed += 1
        problems.append("simulations of one network differ in output")
    digest_hex, delay_s, dead_min, rounds = runs[0]
    out = Outcome(
        metrics={
            # Mean, not median: round sizes follow the seeded battery
            # state, and the median round moves with them more than the
            # mean does.
            "solve_s": fmean(round_s),
            # Every round runs to completion without faults, so the
            # mean planned delay is Fig. 3's mean longest delay.
            "planned_delay_s": delay_s,
            "result_s": median(plain_s),
        },
        attempted=attempted,
        failed=failed,
        problems=problems,
        digest=digest_hex,
        notes={"n": NUM_SENSORS, "K": params.num_chargers,
               "horizon_days": params.horizon_s / 86400.0,
               "rounds": rounds, "simulations": len(times),
               "mean_longest_delay_h": delay_s / 3600.0,
               "avg_dead_min": dead_min, "raw_sim_s": raw_s,
               "reference_s": bracket.bursts},
    )
    if traced_mode:
        counts = layers.context_counts(context_stats, distance_stats)
        counts["sim.rounds"] = rounds
        counts["trace.overhead_s"] = layers.overhead(plain_s, traced_s)
        counts["layers.chosen_share"] = tracer.covered(["tours."]) / sum(
            traced_s)
        out.layers = layers.layer_metrics(tracer, len(traced_s), counts)
    return out


def close(state: State) -> None:
    pass
