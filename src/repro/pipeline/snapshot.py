"""Picklable snapshots of a warm :class:`PlanningContext`.

The batch service (:mod:`repro.serve`) ships planning work to worker
processes. A context warmed in one process is useless there unless its
memoized state can cross the pickle boundary — but a live
:class:`~repro.pipeline.context.PlanningContext` holds a reference to
the process-wide shared distance cache and to ``networkx`` graphs whose
adjacency iteration order must be preserved exactly for downstream MIS
passes to stay deterministic.

:func:`snapshot_context` therefore captures the memoized fields into a
plain-data :class:`ContextSnapshot` (``G_c`` ships as its
:class:`~repro.graphs.unit_disk.ChargingGraph` arrays, ``H`` as
explicit node/edge lists in insertion order), and
:func:`restore_context` rebuilds a context around a network instance
and re-injects every memo. The ``networkx`` view of ``G_c`` does not
ship; a restored context rebuilds it from the arrays if asked. A restored
context answers every query from its memos — byte-identical to the
warm original — and falls through to the ordinary lazy computations for
anything not captured.

The snapshot deliberately does *not* carry the network: the service
ships networks once per job group, and a snapshot must stay valid for
any structurally identical copy (e.g. one rebuilt from
:func:`repro.io.wrsn_from_dict` in a worker).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

import networkx as nx
import numpy as np

from repro.energy.charging import ChargerSpec
from repro.graphs.unit_disk import ChargingGraph
from repro.network.topology import WRSN
from repro.pipeline.context import PlanningContext
from repro.tours.arrays import NodeIndexCodec

#: (nodes in insertion order, edges as (u, v, attrs) in insertion
#: order) — enough to rebuild a graph with identical iteration order.
GraphData = Tuple[Tuple[Any, ...], Tuple[Tuple[Any, Any, Dict], ...]]


def _graph_to_data(graph: nx.Graph) -> GraphData:
    return (
        tuple(graph.nodes),
        tuple((u, v, dict(attrs)) for u, v, attrs in graph.edges(data=True)),
    )


def _graph_from_data(data: GraphData) -> nx.Graph:
    graph = nx.Graph()
    graph.add_nodes_from(data[0])
    for u, v, attrs in data[1]:
        graph.add_edge(u, v, **attrs)
    return graph


@dataclass
class ContextSnapshot:
    """Plain-data capture of a context's memoized state.

    Every field mirrors one memo of
    :class:`~repro.pipeline.context.PlanningContext`; all values are
    picklable built-ins or arrays (``H`` stored as node/edge lists).
    """

    requests: Tuple[int, ...]
    charger: ChargerSpec
    charge_times: Dict[int, float] = field(default_factory=dict)
    charging_graph: Optional[ChargingGraph] = None
    mis: Dict[Tuple[str, int], List[int]] = field(default_factory=dict)
    coverage: Dict[int, FrozenSet[int]] = field(default_factory=dict)
    stop_groups: Dict[Tuple[int, ...], Dict[int, Tuple[int, ...]]] = field(
        default_factory=dict
    )
    aux: Dict[Tuple[str, int], GraphData] = field(default_factory=dict)
    core: Dict[Tuple[str, int], List[int]] = field(default_factory=dict)
    minmax: Dict[Any, Tuple[List[List[int]], float]] = field(
        default_factory=dict
    )
    #: Canonical label tuples whose index codecs were memoized; codecs
    #: are derived data, so only the keys ship and restore rebuilds.
    codecs: Tuple[Tuple[int, ...], ...] = ()
    #: Dense distance matrices per canonical label tuple (ndarrays —
    #: picklable, immutable, and byte-identical to a worker-side
    #: rebuild, so shipping them only skips the O(n^2) hypot pass).
    dense: Dict[Tuple[int, ...], np.ndarray] = field(default_factory=dict)


def snapshot_context(context: PlanningContext) -> ContextSnapshot:
    """Capture a context's memoized state into a picklable snapshot.

    Lazy memos that were never computed stay absent; restoring such a
    snapshot simply leaves those computations to happen on demand.
    """
    return ContextSnapshot(
        requests=context.requests,
        charger=context.charger,
        charge_times=dict(context._charge_times),
        charging_graph=context._charging_graph,
        mis={k: list(v) for k, v in context._mis.items()},
        coverage=dict(context._coverage),
        stop_groups={k: dict(v) for k, v in context._stop_groups.items()},
        aux={k: _graph_to_data(g) for k, g in context._aux.items()},
        core={k: list(v) for k, v in context._core.items()},
        minmax={
            k: ([list(t) for t in tours], delay)
            for k, (tours, delay) in context._minmax.items()
        },
        codecs=tuple(context._codecs.keys()),
        dense=dict(context._dense_matrices),
    )


def restore_context(
    snapshot: ContextSnapshot,
    network: WRSN,
    share_distances: bool = True,
) -> PlanningContext:
    """Rebuild a warm context from a snapshot around ``network``.

    Args:
        snapshot: a :func:`snapshot_context` capture.
        network: the WRSN the snapshot's workload lives on — the
            original instance or a structurally identical copy (same
            sensor ids, positions and residuals).
        share_distances: forwarded to :class:`PlanningContext`.

    Raises:
        ValueError: when the snapshot's request set names sensors the
            network does not have.
    """
    context = PlanningContext(
        network,
        snapshot.requests,
        charger=snapshot.charger,
        share_distances=share_distances,
    )
    context._charge_times.update(snapshot.charge_times)
    context._charging_graph = snapshot.charging_graph
    context._mis.update({k: list(v) for k, v in snapshot.mis.items()})
    context._coverage.update(snapshot.coverage)
    context._stop_groups.update(
        {k: dict(v) for k, v in snapshot.stop_groups.items()}
    )
    context._aux.update(
        {k: _graph_from_data(g) for k, g in snapshot.aux.items()}
    )
    context._core.update({k: list(v) for k, v in snapshot.core.items()})
    context._minmax.update(
        {
            k: ([list(t) for t in tours], delay)
            for k, (tours, delay) in snapshot.minmax.items()
        }
    )
    for key in snapshot.codecs:
        context._codecs.setdefault(key, NodeIndexCodec(key))
    for key, matrix in snapshot.dense.items():
        # Seed the shared cache first: it freezes the unpickled array
        # and is where the array kernels will actually look it up.
        context.distance.seed_dense(key, matrix)
        context._dense_matrices.setdefault(
            key, context.distance.dense_matrix(key)
        )
    return context


__all__ = ["ContextSnapshot", "restore_context", "snapshot_context"]
