"""TSP tour constructions over sojourn locations.

The ``K``-optimal closed tour subroutine first builds a single closed
tour through all locations, then splits it. :func:`build_tsp_order` is
the front door: it injects the depot, runs the chosen construction and
returns the order starting just after the depot. Four constructions
are provided:

* ``"nearest_neighbor"`` — O(n²), good average quality;
* ``"greedy_edge"`` — O(n² log n) greedy edge matching;
* ``"double_mst"`` — the classic 2-approximation (MST preorder),
  :func:`double_mst_tour`;
* ``"christofides"`` — the 1.5-approximation (minimum-weight perfect
  matching on the odd-degree MST nodes, then an Euler walk). Its cycle
  is the one networkx's ``approximation.christofides`` returns on the
  same complete graph, node for node; :func:`christofides_tour` runs
  it over arbitrary labels and start nodes.

All but double-MST run in index space on the dense distance matrix of
:func:`repro.tours.arrays.dense_backend` (the array tour engine,
DESIGN §16): :func:`~repro.tours.arrays.nearest_neighbor_indices`,
:func:`~repro.tours.arrays.greedy_edge_indices` and
:func:`~repro.tours.arrays.christofides_indices` with the blossom
matching of :mod:`repro.tours.matching`.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence

import networkx as nx
import numpy as np

from repro.geometry.distcache import DistanceCache
from repro.geometry.point import PointLike
from repro.tours.arrays import (
    christofides_indices,
    dense_backend,
    greedy_edge_indices,
    nearest_neighbor_indices,
    pairwise_matrix,
)

#: Sentinel id for the depot inside TSP constructions. Sensor ids are
#: non-negative integers, so the sentinel can never collide.
DEPOT: Hashable = "DEPOT"

_METHODS = ("nearest_neighbor", "greedy_edge", "double_mst", "christofides")

#: A pairwise distance lookup over node labels.
DistanceFn = Callable[[Hashable, Hashable], float]


def double_mst_tour(
    nodes: Sequence[Hashable],
    positions: Mapping[Hashable, PointLike],
    start: Hashable,
    dist: Optional[DistanceFn] = None,
) -> List[Hashable]:
    """The MST-doubling 2-approximation: preorder walk of a minimum
    spanning tree rooted at ``start``.

    ``dist`` is accepted for interface uniformity but unused: the MST
    runs on a vectorised dense matrix, not pairwise lookups.

    The MST is computed with scipy's sparse-graph routine on the dense
    distance matrix — O(n²) memory but far faster than building a
    complete ``networkx`` graph for the hundreds-of-nodes instances the
    simulator produces.
    """
    all_nodes = list(dict.fromkeys(list(nodes) + [start]))
    if len(all_nodes) <= 2:
        return all_nodes if all_nodes[0] == start else all_nodes[::-1]
    from scipy.sparse.csgraph import minimum_spanning_tree as _scipy_mst

    coords = np.asarray(
        [(positions[n][0], positions[n][1]) for n in all_nodes], dtype=float
    )
    deltas = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt((deltas**2).sum(axis=2))
    mst_matrix = _scipy_mst(dist).tocoo()
    mst = nx.Graph()
    mst.add_nodes_from(range(len(all_nodes)))
    for i, j in zip(mst_matrix.row, mst_matrix.col):
        mst.add_edge(int(i), int(j))
    order_idx = nx.dfs_preorder_nodes(mst, source=all_nodes.index(start))
    return [all_nodes[i] for i in order_idx]


def christofides_tour(
    nodes: Sequence[Hashable],
    positions: Mapping[Hashable, PointLike],
    start: Hashable,
    dist: Optional[DistanceFn] = None,
) -> List[Hashable]:
    """Christofides' 1.5-approximation, rotated to begin with ``start``.

    The nodes (``start`` appended when absent) are indexed in the given
    order and edge ``(i, j)``, ``i < j``, weighs ``dist(a, b)``
    (:func:`repro.tours.arrays.pairwise_matrix`); the matrix goes to
    :func:`repro.tours.arrays.christofides_indices`, the kernel
    :func:`build_tsp_order` also runs. The
    cycle is the one networkx's ``approximation.christofides`` returns
    on the complete graph built in that node and edge order.

    Falls back to :func:`double_mst_tour` for instances too small for
    the matching step.
    """
    all_nodes = list(dict.fromkeys(list(nodes) + [start]))
    if len(all_nodes) <= 3:
        return double_mst_tour(nodes, positions, start)
    matrix = pairwise_matrix(
        all_nodes, dist if dist is not None else DistanceCache(positions)
    )
    order = christofides_indices(matrix, all_nodes.index(start))
    return [all_nodes[i] for i in order.tolist()]


def build_tsp_order(
    nodes: Sequence[Hashable],
    positions: Mapping[Hashable, PointLike],
    depot: PointLike,
    method: str = "christofides",
    dist: Optional[DistanceFn] = None,
) -> List[Hashable]:
    """Build a closed tour through ``nodes`` rooted at the depot.

    The returned order lists only the real nodes, in visit order
    starting with the first node after leaving the depot. The depot
    takes the last index of the dense backend (the sentinel
    :data:`DEPOT` in double-MST's label space), so edge tie-breaks and
    nearest-neighbour scans follow the ``nodes + [depot]`` enumeration.

    ``dist`` uses the schedule-layer convention (``None`` = depot);
    without it a :class:`DistanceCache` over ``positions`` and the
    depot is built.

    Raises:
        ValueError: on an unknown method, or on duplicate nodes for a
            matrix-backed construction (tours are node-disjoint, so no
            solver passes any).
    """
    if method not in _METHODS:
        raise ValueError(
            f"unknown TSP method {method!r}; expected one of {_METHODS}"
        )
    node_list = list(nodes)
    if len(node_list) <= 1:
        return node_list
    if method == "double_mst" or (
        method == "christofides" and len(node_list) < 3
    ):
        # Christofides below four nodes (depot included) takes the
        # double-MST fallback, as christofides_tour does.
        pos: Dict[Hashable, PointLike] = {n: positions[n] for n in node_list}
        pos[DEPOT] = depot
        return double_mst_tour(node_list + [DEPOT], pos, DEPOT)[1:]
    if dist is None:
        dist = DistanceCache(positions, depot)
    backend = dense_backend(dist, node_list)
    if method == "christofides":
        cycle_idx = christofides_indices(
            backend.matrix, backend.codec.depot_index
        )
        return backend.codec.decode(cycle_idx[1:])
    kernel = {
        "nearest_neighbor": nearest_neighbor_indices,
        "greedy_edge": greedy_edge_indices,
    }[method]
    return backend.codec.decode(kernel(backend))
