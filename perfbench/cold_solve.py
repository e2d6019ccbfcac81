"""Workload ``cold-solve-6k``: cold ``Appro`` solves at n = 6000, K = 2.

Every sensor requests (residuals below the 20 % threshold). Each solve
plans a fresh copy of one of three seeded networks, so the per-network
distance cache and every ``PlanningContext`` memo start cold. At this
size the charging graph ``G_c`` (``GridIndex.within_bulk``) and step-6
insertion dominate a solve and routing is a small share.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from statistics import median
from typing import Dict, List, Optional, Tuple

from perfbench import gate, layers, speed
from perfbench.common import Outcome, repeat_for, rng_for
from perfbench.spans import Tracer

NUM_SENSORS = 6000
NUM_CHARGERS = 2
NETWORKS = 3
THRESHOLD = 0.2


@dataclass
class State:
    networks: List[object]
    requests: Tuple[int, ...]
    positions: List[Dict[int, Tuple[float, float]]]


def setup(seed: int, seconds: float) -> State:
    from repro.bench.workloads import PaperParams
    from repro.network.topology import random_wrsn

    # Imported here so that set-up time counts it.
    import repro.pipeline  # noqa: F401

    params = PaperParams(num_sensors=NUM_SENSORS)
    networks = []
    for k in range(NETWORKS):
        rng = rng_for(seed, 1, k)
        net = random_wrsn(
            num_sensors=NUM_SENSORS,
            field=params.field(),
            seed=int(rng.integers(2**31)),
            capacity_j=params.capacity_j,
            b_min_bps=params.b_min_bps,
            b_max_bps=params.b_max_bps,
            comm_range_m=params.comm_range_m,
        )
        levels = rng.uniform(0.0, THRESHOLD, NUM_SENSORS) * params.capacity_j
        net.set_residuals(
            {sid: float(lv) for sid, lv in zip(net.all_sensor_ids(), levels)}
        )
        networks.append(net)
    return State(networks, tuple(networks[0].all_sensor_ids()),
                 [gate.coordinates(net) for net in networks])


def measure(state: State, seconds: float, tracer: Optional[Tracer]) -> Outcome:
    from repro.core.appro import ApproArtifacts
    from repro.pipeline import planner as planner_mod

    traced_mode = tracer is not None
    first: Dict[int, bytes] = {}
    delays: Dict[int, float] = {}
    artifacts: Dict[int, ApproArtifacts] = {}
    context_stats: Dict[int, dict] = {}
    problems: List[str] = []
    failed = 0
    plain_s: List[float] = []
    traced_s: List[float] = []
    raw_s: List[float] = []
    bracket = speed.Bracket()

    def unit(i: int) -> float:
        nonlocal failed
        traced = traced_mode and i % 2 == 1
        k = (i // 2 if traced_mode else i) % NETWORKS
        network = state.networks[k].copy()
        shell = ApproArtifacts(None, [], None, [], 0, 0.0)
        gc.collect()
        if traced:
            layers.install(tracer)
        start = time.perf_counter()
        plan = planner_mod.run_planner(
            "Appro", network, state.requests, NUM_CHARGERS, artifacts=shell
        )
        elapsed = time.perf_counter() - start
        if traced:
            tracer.restore()
        raw_s.append(elapsed)
        (traced_s if traced else plain_s).append(bracket.close_unit(elapsed))

        found, doc = gate.check_plan(plan, state.requests, state.positions[k])
        doc = gate.canonical_bytes(doc)
        if k not in first:
            first[k] = doc
            delays[k] = plan.longest_delay()
            artifacts[k] = shell
            context_stats[k] = plan.context.stats()
        elif doc != first[k]:
            found.append(f"network {k}: schedule bytes differ between solves")
        if found:
            failed += 1
            problems.extend(f"solve {i}: {p}" for p in found)
        return elapsed

    minimum = NETWORKS * (2 if traced_mode else 1)
    times = repeat_for(seconds, minimum, unit)

    digest = gate.Digest()
    for k in sorted(first):
        digest.add(first[k])
    solve_s = median(plain_s)
    metrics = {
        "solve_s": solve_s,
        "planned_delay_s": sum(delays.values()) / len(delays),
        # The user of a cold solve waits for exactly the solve.
        "result_s": solve_s,
    }
    out = Outcome(
        metrics=metrics,
        attempted=len(times),
        failed=failed,
        problems=problems,
        digest=digest.hexdigest(),
        notes={"n": NUM_SENSORS, "K": NUM_CHARGERS, "solves": len(times),
               "networks": NETWORKS, "raw_solve_s": raw_s,
               "reference_s": bracket.bursts},
    )
    if traced_mode:
        out.layers = _layer_metrics(
            tracer, traced_s, plain_s, artifacts, context_stats
        )
    return out


def _layer_metrics(tracer, traced_s, plain_s, artifacts, context_stats):
    counts: Dict[str, float] = {}
    arts = [artifacts[k] for k in sorted(artifacts)]
    per = len(arts)
    counts["graphs.s_i"] = sum(len(a.sojourn_candidates) for a in arts) / per
    counts["graphs.v_h"] = sum(len(a.conflict_free_core) for a in arts) / per
    counts["graphs.delta_h"] = sum(a.delta_h for a in arts) / per
    for case in ("skipped", "case1", "case2", "appended"):
        counts[f"core.insertion.{case}"] = sum(
            list(a.insertion_outcomes.values()).count(case) for a in arts
        ) / per
    counts["core.waits_inserted"] = sum(a.waits_inserted for a in arts) / per
    stats = [context_stats[k] for k in sorted(context_stats)]
    counts.update(layers.context_counts(stats, stats))
    counts["trace.overhead_s"] = layers.overhead(plain_s, traced_s)
    counts["layers.chosen_share"] = tracer.covered(
        ["geometry.", "graphs.", "core."]
    ) / sum(traced_s)
    return layers.layer_metrics(tracer, len(traced_s), counts)


def close(state: State) -> None:
    pass
