"""Which program functions the traced run wraps, and the per-layer
metrics computed from the spans and counts.

Each target is wrapped at the name its caller looks it up under, so a
module that imported a function into its own namespace is patched
there. Span names start with the layer (the ``src/repro/`` package)
they time.
"""

from __future__ import annotations

from statistics import median
from typing import Dict, Iterable, Mapping, Optional

from perfbench.spans import Tracer

TARGETS: Dict[str, str] = {
    "repro.geometry.grid_index.GridIndex.within_bulk": "geometry.within_bulk",
    "repro.pipeline.context.build_charging_graph": "graphs.charging_graph",
    "repro.pipeline.context.maximal_independent_set": "graphs.mis",
    "repro.pipeline.context.build_auxiliary_graph": "graphs.aux_graph",
    "repro.core.appro.extend_schedule": "core.extend",
    "repro.core.appro.resolve_conflicts": "core.resolve_conflicts",
    "repro.pipeline.context.solve_k_minmax_tours": "tours.minmax",
    "repro.tours.kminmax.build_tsp_order": "tours.tsp",
    "repro.tours.kminmax.split_tour_min_max": "tours.split",
    "repro.sim.simulator.build_routing_tree": "network.routing_tree",
    "repro.sim.simulator.MonitoringSimulation.run": "sim.run",
    "repro.pipeline.planner.run_planner": "pipeline.run_planner",
    "repro.serve.daemon.PlanningDaemon.submit": "serve.submit",
    "repro.serve.daemon.network_digest": "serve.network_digest",
    "repro.serve.daemon.geometry_digest": "serve.geometry_digest",
    "repro.serve.health.SupervisedPool.run_one": "serve.run_one",
}

#: Per-layer metrics: name -> (unit, better). Every traced run reports
#: all of them; a layer a workload does not load reads 0.
PER_LAYER: Dict[str, tuple] = {
    "geometry.within_bulk_s": ("s", "lower"),
    "graphs.charging_graph_self_s": ("s", "lower"),
    "graphs.mis_s": ("s", "lower"),
    "graphs.aux_graph_s": ("s", "lower"),
    "graphs.s_i": ("count", "lower"),
    "graphs.v_h": ("count", "higher"),
    "graphs.delta_h": ("count", "lower"),
    "core.extend_s": ("s", "lower"),
    "core.resolve_conflicts_s": ("s", "lower"),
    "core.insertion.skipped": ("count", "higher"),
    "core.insertion.case1": ("count", "lower"),
    "core.insertion.case2": ("count", "lower"),
    "core.insertion.appended": ("count", "lower"),
    "core.waits_inserted": ("count", "lower"),
    "tours.minmax_s": ("s", "lower"),
    "tours.minmax_calls": ("count", "lower"),
    "tours.tsp_s": ("s", "lower"),
    "tours.split_s": ("s", "lower"),
    "network.routing_tree_s": ("s", "lower"),
    "sim.rounds": ("count", "lower"),
    "sim.loop_self_s": ("s", "lower"),
    "pipeline.memo_hit_ratio": ("ratio", "higher"),
    "pipeline.distance_hit_ratio": ("ratio", "higher"),
    "pipeline.invalidations": ("count", "higher"),
    "trace.overhead_s": ("s", "lower"),
    "layers.chosen_share": ("ratio", "higher"),
}

#: Per-layer metrics only the daemon workload reports (it is not one of
#: the ``BENCHMARK.json`` workloads; see ``perfbench/README.md``).
SERVE_LAYER: Dict[str, tuple] = {
    "serve.submit_s_p50": ("s", "lower"),
    "serve.queue_wait_s_p50": ("s", "lower"),
    "serve.plan_s_p50": ("s", "lower"),
    "serve.context_reused_share": ("ratio", "higher"),
    "serve.coalesced": ("count", "higher"),
    "serve.rejected": ("count", "lower"),
    "serve.pool_rebuilds": ("count", "lower"),
    "driver.late_s_max": ("s", "lower"),
    "driver.samples_low": ("count", "higher"),
    "driver.samples_high": ("count", "higher"),
    "driver.latency_p50_low_s": ("s", "lower"),
    "driver.latency_p95_low_s": ("s", "lower"),
    "driver.latency_p50_high_s": ("s", "lower"),
    "driver.latency_p95_high_s": ("s", "lower"),
}

#: Span-time metrics: metric -> (span name, self time only).
_SPAN_METRICS = {
    "geometry.within_bulk_s": ("geometry.within_bulk", False),
    "graphs.charging_graph_self_s": ("graphs.charging_graph", True),
    "graphs.mis_s": ("graphs.mis", False),
    "graphs.aux_graph_s": ("graphs.aux_graph", False),
    "core.extend_s": ("core.extend", False),
    "core.resolve_conflicts_s": ("core.resolve_conflicts", False),
    "tours.minmax_s": ("tours.minmax", False),
    "tours.tsp_s": ("tours.tsp", False),
    "tours.split_s": ("tours.split", False),
    "network.routing_tree_s": ("network.routing_tree", False),
    "sim.loop_self_s": ("sim.run", True),
}


def install(tracer: Tracer) -> None:
    """Wrap every target."""
    for target, name in TARGETS.items():
        tracer.wrap(target, name)


def layer_metrics(
    tracer: Tracer, units: int, counts: Mapping[str, float]
) -> Dict[str, float]:
    """Every per-layer metric: span times per traced unit (one solve,
    one horizon or one job stream), then ``counts`` on top."""
    out = {name: 0.0 for name in {**PER_LAYER, **SERVE_LAYER}}
    per = max(units, 1)
    for metric, (span, own) in _SPAN_METRICS.items():
        total = tracer.self_total(span) if own else tracer.total(span)
        out[metric] = total / per
    out["tours.minmax_calls"] = len(tracer.named("tours.minmax")) / per
    for name, value in counts.items():
        if name not in out:
            raise KeyError(f"{name} is not a per-layer metric")
        out[name] = float(value)
    return out


def context_counts(stats: Iterable[Mapping[str, int]],
                   distance_stats: Iterable[Mapping[str, int]]) -> Dict[str, float]:
    """Pipeline counters from the final ``PlanningContext.stats()`` of
    each distinct context and the final stats of each distinct
    distance cache (caches outlive contexts, so they are counted
    apart)."""
    hits = misses = invalidations = 0
    for s in stats:
        hits += s["memo_hits"]
        misses += s["memo_misses"]
        invalidations += s["invalidations"]
    d_hits = d_misses = 0
    for s in distance_stats:
        d_hits += s["distance_hits"]
        d_misses += s["distance_misses"]
    return {
        "pipeline.memo_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "pipeline.distance_hit_ratio": (
            d_hits / (d_hits + d_misses) if d_hits + d_misses else 0.0
        ),
        "pipeline.invalidations": invalidations,
    }


def overhead(untraced: Iterable[float], traced: Iterable[float]) -> Optional[float]:
    """Median traced minus median untraced headline time."""
    untraced, traced = list(untraced), list(traced)
    if not untraced or not traced:
        return None
    return median(traced) - median(untraced)
