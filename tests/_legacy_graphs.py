"""Retired ``networkx`` G_c and MIS implementations, kept as test oracles.

These are the pre-array code paths verbatim: the edge-loop
``build_charging_graph`` (one ``GridIndex.within_bulk`` query, then one
``add_edge`` with a ``Point.distance_to`` weight per edge), the
dict-based ``maximal_independent_set`` (a ``(degree, node)`` heap over
``networkx`` neighbour iteration for ``"min_degree"``, a blocked-set
scan for ``"lexicographic"``/``"random"``) and
``PlanningContext.coverage_for`` as a second disk query over the
request set.
``tests/test_graphs_parity.py`` pins the array G_c, the integer MIS
core and everything built on them against these.

They exist *only* as references; production code must never import
this module.
"""

from __future__ import annotations

import heapq
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
)

import networkx as nx
import numpy as np

from repro.geometry.grid_index import GridIndex
from repro.geometry.point import Point
from repro.graphs.coverage import coverage_sets


def loop_build_charging_graph(
    positions: Mapping[int, Point],
    radius_m: float,
    nodes: Optional[Iterable[int]] = None,
) -> nx.Graph:
    """The retired ``build_charging_graph``: a ``networkx`` graph with
    ``pos`` node attributes and ``distance_to`` edge weights."""
    if radius_m <= 0:
        raise ValueError(f"charging radius must be positive, got {radius_m}")
    node_list = sorted(positions) if nodes is None else sorted(nodes)
    graph = nx.Graph()
    for node in node_list:
        graph.add_node(node, pos=positions[node])
    index = GridIndex({n: positions[n] for n in node_list}, cell_size=radius_m)
    rows = index.within_bulk([positions[n] for n in node_list], radius_m)
    for node, row in zip(node_list, rows):
        p = positions[node]
        for other in row:
            if other > node:
                graph.add_edge(
                    node, other, weight=p.distance_to(positions[other])
                )
    return graph


def dict_maximal_independent_set(
    graph: nx.Graph, strategy: str = "min_degree", seed: int = 0
) -> List[int]:
    """The retired ``maximal_independent_set`` over ``networkx``."""
    if strategy == "min_degree":
        return dict_greedy_min_degree(graph)
    if strategy == "lexicographic":
        order = sorted(graph.nodes)
    else:
        rng = np.random.default_rng(seed)
        order = list(graph.nodes)
        rng.shuffle(order)
    chosen: List[int] = []
    blocked: Set[int] = set()
    for node in order:
        if node in blocked:
            continue
        chosen.append(node)
        blocked.add(node)
        blocked.update(graph.neighbors(node))
    return sorted(chosen)


def dict_greedy_min_degree(graph: nx.Graph) -> List[int]:
    """The retired lazy ``(degree, node)`` heap greedy."""
    degree = {node: graph.degree(node) for node in graph.nodes}
    heap = [(deg, node) for node, deg in degree.items()]
    heapq.heapify(heap)
    removed: Set[int] = set()
    chosen: List[int] = []
    while heap:
        deg, node = heapq.heappop(heap)
        if node in removed:
            continue
        if deg != degree[node]:
            heapq.heappush(heap, (degree[node], node))
            continue
        chosen.append(node)
        removed.add(node)
        dropped = [nbr for nbr in graph.neighbors(node) if nbr not in removed]
        removed.update(dropped)
        for gone in dropped:
            for nbr in graph.neighbors(gone):
                if nbr not in removed:
                    degree[nbr] -= 1
                    heapq.heappush(heap, (degree[nbr], nbr))
    return sorted(chosen)


def query_coverage_for(
    context, candidates: Sequence[int]
) -> Dict[int, FrozenSet[int]]:
    """The retired ``PlanningContext.coverage_for`` (memo-less): a disk
    query over the request positions per candidate."""
    return coverage_sets(
        candidates,
        context.positions,
        context.charger.charge_radius_m,
        targets=context.requests,
    )
