"""TSP tour constructions over sojourn locations.

The ``K``-optimal closed tour subroutine first builds a single closed
tour through all locations, then splits it. Four constructions are
provided; all return a *visit order* — a list of node ids beginning at
the depot sentinel's successor (the depot itself is handled by the
caller via :data:`DEPOT`):

* :func:`nearest_neighbor_tour` — O(n²), good average quality;
* :func:`greedy_edge_tour` — O(n² log n) greedy edge matching;
* :func:`double_mst_tour` — the classic 2-approximation (MST preorder);
* :func:`christofides_tour` — the 1.5-approximation (minimum-weight
  perfect matching on the odd-degree MST nodes, then an Euler walk),
  run in index space by :func:`repro.tours.arrays.christofides_indices`
  with the blossom matching of :mod:`repro.tours.matching`. Its cycle
  is the one networkx's ``approximation.christofides`` returns on the
  same complete graph, node for node.

:func:`build_tsp_order` is the front door: it injects the depot, runs
the chosen construction and rotates the cycle so the order starts just
after the depot. With a depot-carrying :class:`DistanceCache` the
nearest-neighbour, greedy-edge and Christofides constructions run on
the cache's dense matrix (the array tour engine, DESIGN §16).
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
)

#: Sentinel id for the depot inside TSP constructions. Sensor ids are
#: non-negative integers, so the sentinel can never collide.
DEPOT: Hashable = "DEPOT"

_METHODS = ("nearest_neighbor", "greedy_edge", "double_mst", "christofides")

#: A pairwise distance lookup over node labels.
DistanceFn = Callable[[Hashable, Hashable], float]


def _distance_lookup(
    positions: Mapping[Hashable, PointLike],
    dist: Optional[DistanceFn] = None,
) -> DistanceFn:
    return dist if dist is not None else DistanceCache(positions)


def _translate_depot(dist: DistanceFn) -> DistanceFn:
    """Adapt a ``None``-is-depot lookup to the :data:`DEPOT` sentinel."""

    def inner(a: Hashable, b: Hashable) -> float:
        return dist(None if a == DEPOT else a, None if b == DEPOT else b)

    return inner


def nearest_neighbor_tour(
    nodes: Sequence[Hashable],
    positions: Mapping[Hashable, PointLike],
    start: Hashable,
    dist: Optional[DistanceFn] = None,
) -> List[Hashable]:
    """Nearest-neighbour construction starting from ``start``.

    Returns the full cycle order beginning with ``start``.
    """
    dist = _distance_lookup(positions, dist)
    remaining = set(nodes)
    remaining.discard(start)
    order = [start]
    current = start
    while remaining:
        nxt = min(remaining, key=lambda n: (dist(current, n), str(n)))
        order.append(nxt)
        remaining.remove(nxt)
        current = nxt
    return order


def greedy_edge_tour(
    nodes: Sequence[Hashable],
    positions: Mapping[Hashable, PointLike],
    start: Hashable,
    dist: Optional[DistanceFn] = None,
) -> List[Hashable]:
    """Greedy-edge construction: repeatedly add the globally shortest
    edge that keeps degrees ≤ 2 and forms no premature subcycle.

    Returns the cycle order rotated to begin with ``start``.
    """
    all_nodes = list(dict.fromkeys(list(nodes) + [start]))
    if len(all_nodes) == 1:
        return [start]
    if len(all_nodes) == 2:
        return [start, next(n for n in all_nodes if n != start)]
    dist = _distance_lookup(positions, dist)
    edges = sorted(
        (
            (dist(a, b), i, j)
            for i, a in enumerate(all_nodes)
            for j, b in enumerate(all_nodes)
            if i < j
        ),
    )
    degree = [0] * len(all_nodes)
    # Union-find over node indices to reject premature cycles.
    parent = list(range(len(all_nodes)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    adj: Dict[int, List[int]] = {i: [] for i in range(len(all_nodes))}
    added = 0
    for _, i, j in edges:
        if added == len(all_nodes) - 1:
            break
        if degree[i] >= 2 or degree[j] >= 2:
            continue
        ri, rj = find(i), find(j)
        if ri == rj:
            continue
        parent[ri] = rj
        degree[i] += 1
        degree[j] += 1
        adj[i].append(j)
        adj[j].append(i)
        added += 1
    # Close the Hamiltonian path: exactly two endpoints have degree 1.
    endpoints = [i for i in range(len(all_nodes)) if degree[i] == 1]
    assert len(endpoints) == 2, "greedy edge construction left a broken path"
    adj[endpoints[0]].append(endpoints[1])
    adj[endpoints[1]].append(endpoints[0])
    # Walk the cycle.
    start_idx = all_nodes.index(start)
    order_idx = [start_idx]
    prev = None
    current = start_idx
    while True:
        nxt = next(n for n in adj[current] if n != prev)
        if nxt == start_idx:
            break
        order_idx.append(nxt)
        prev, current = current, nxt
    return [all_nodes[i] for i in order_idx]


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
    order and edge ``(i, j)``, ``i < j``, weighs ``dist(a, b)``; the
    matrix goes to :func:`repro.tours.arrays.christofides_indices`, the
    kernel :func:`build_tsp_order` also runs on the dense backend. The
    cycle is the one networkx's ``approximation.christofides`` returns
    on the complete graph built in that node and edge order.

    Falls back to :func:`double_mst_tour` for instances too small for
    the matching step.
    """
    all_nodes = list(dict.fromkeys(list(nodes) + [start]))
    m = len(all_nodes)
    if m <= 3:
        return double_mst_tour(nodes, positions, start)
    dist = _distance_lookup(positions, dist)
    matrix = np.zeros((m, m), dtype=np.float64)
    matrix[np.triu_indices(m, k=1)] = np.fromiter(
        (dist(a, b) for i, a in enumerate(all_nodes) for b in all_nodes[i + 1:]),
        dtype=np.float64,
        count=m * (m - 1) // 2,
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

    The depot joins the instance as the sentinel :data:`DEPOT`; the
    returned order lists only the real nodes, in visit order starting
    with the first node after leaving the depot.

    ``dist`` uses the schedule-layer convention (``None`` = depot); it
    is translated to the :data:`DEPOT` sentinel internally.

    Raises:
        ValueError: on an unknown method.
    """
    if method not in _METHODS:
        raise ValueError(
            f"unknown TSP method {method!r}; expected one of {_METHODS}"
        )
    node_list = list(nodes)
    if not node_list:
        return []
    if len(node_list) == 1:
        return node_list
    pos: Dict[Hashable, PointLike] = {n: positions[n] for n in node_list}
    pos[DEPOT] = depot
    # Array fast path: the codec's index space (real nodes in
    # positional order, depot last) coincides with the legacy
    # ``node_list + [DEPOT]`` enumeration, so edge tie-breaks and
    # nearest-neighbour scans resolve to the identical tour.
    # Christofides below four nodes takes the label path's double-MST
    # fallback.
    if method != "double_mst" and (
        method != "christofides" or len(node_list) >= 3
    ):
        backend = dense_backend(dist, node_list)
        if backend is not None:
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
    inner = None if dist is None else _translate_depot(dist)
    builder = {
        "nearest_neighbor": nearest_neighbor_tour,
        "greedy_edge": greedy_edge_tour,
        "double_mst": double_mst_tour,
        "christofides": christofides_tour,
    }[method]
    cycle = builder(node_list + [DEPOT], pos, DEPOT, inner)
    assert cycle[0] == DEPOT
    return cycle[1:]
