"""Retired ``networkx`` Christofides construction, kept as a test oracle.

This is the pre-array ``repro.tours.tsp.christofides_tour`` verbatim:
``_complete_graph`` fills a complete ``nx.Graph`` one ``add_edge`` at a
time (nodes in the given order, edge ``(a, b)`` weighed ``dist(a, b)``
for ``a`` before ``b``) and ``nx.approximation.christofides`` builds
the cycle. :func:`legacy_build_tsp_order` is ``build_tsp_order`` as
it routed Christofides then. ``tests/test_tours_christofides_parity.py``
pins the index kernel :func:`repro.tours.arrays.christofides_indices`,
the public ``christofides_tour`` and every schedule built on them
against it.

It exists *only* as a reference; production code must never import
this module.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Optional, Sequence

import networkx as nx

from repro.geometry.point import PointLike
from repro.tours.tsp import (
    DEPOT,
    DistanceFn,
    _distance_lookup,
    _translate_depot,
    build_tsp_order,
    double_mst_tour,
)


def _complete_graph(
    nodes: Sequence[Hashable],
    positions: Mapping[Hashable, PointLike],
    dist: Optional[DistanceFn] = None,
) -> nx.Graph:
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    dist = _distance_lookup(positions, dist)
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            graph.add_edge(a, b, weight=dist(a, b))
    return graph


def nx_christofides_tour(
    nodes: Sequence[Hashable],
    positions: Mapping[Hashable, PointLike],
    start: Hashable,
    dist: Optional[DistanceFn] = None,
) -> List[Hashable]:
    """The retired ``christofides_tour``: networkx's Christofides on
    ``_complete_graph``, rotated to begin with ``start``."""
    all_nodes = list(dict.fromkeys(list(nodes) + [start]))
    if len(all_nodes) <= 3:
        return double_mst_tour(nodes, positions, start)
    cycle = nx.approximation.christofides(
        _complete_graph(all_nodes, positions, dist)
    )
    # networkx returns a closed walk with the first node repeated last.
    order = cycle[:-1]
    pivot = order.index(start)
    return order[pivot:] + order[:pivot]


def legacy_build_tsp_order(
    nodes: Sequence[Hashable],
    positions: Mapping[Hashable, PointLike],
    depot: PointLike,
    method: str = "christofides",
    dist: Optional[DistanceFn] = None,
) -> List[Hashable]:
    """``build_tsp_order`` with its retired Christofides routing: the
    label path through :func:`nx_christofides_tour` with the
    depot-translated lookup, whatever ``dist`` is. Other methods go to
    the current ``build_tsp_order``."""
    if method != "christofides":
        return build_tsp_order(nodes, positions, depot, method=method, dist=dist)
    node_list = list(nodes)
    if len(node_list) <= 1:
        return node_list
    pos: Dict[Hashable, PointLike] = {n: positions[n] for n in node_list}
    pos[DEPOT] = depot
    inner = None if dist is None else _translate_depot(dist)
    cycle = nx_christofides_tour(node_list + [DEPOT], pos, DEPOT, inner)
    assert cycle[0] == DEPOT
    return cycle[1:]
