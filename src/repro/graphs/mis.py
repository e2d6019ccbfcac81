"""Greedy maximal independent sets with pluggable selection order.

Algorithm 1 computes two maximal independent sets: ``S_I`` on the
charging graph ``G_c`` (candidate sojourn locations — by maximality
their disks cover all of ``V_s``) and ``V'_H`` on the auxiliary graph
``H`` (a conflict-free core). The paper does not prescribe a particular
MIS; any maximal independent set satisfies the analysis. We implement
the classic sequential greedy with three selection strategies so their
effect can be measured (see ``benchmarks/test_ablation_mis.py``):

* ``"min_degree"`` — pick the remaining node with the lowest residual
  degree, ties to the lowest node label; tends to produce large
  independent sets (good coverage granularity).
* ``"lexicographic"`` — ascending node label; deterministic and fast.
* ``"random"`` — uniformly random permutation (seeded).

Every function accepts either a ``networkx`` graph or the array
:class:`~repro.graphs.unit_disk.ChargingGraph`. Both become the same
integer adjacency — node ``i`` is the ``i``-th label (``list(graph.nodes)``
order for ``networkx``), row ``i`` lists its neighbours' indices — and
one greedy core runs on it.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterable, List, Optional, Sequence, Set, Tuple, Union

import networkx as nx
import numpy as np

from repro.graphs.unit_disk import ChargingGraph

_STRATEGIES = ("min_degree", "lexicographic", "random")

AnyGraph = Union[nx.Graph, ChargingGraph]


def _adjacency(graph: AnyGraph) -> Tuple[Sequence[Any], List[List[int]]]:
    """Node labels and, per node, its neighbours' indices."""
    if isinstance(graph, ChargingGraph):
        return graph.labels, graph.neighbor_lists()
    labels = list(graph.nodes)
    index = {node: i for i, node in enumerate(labels)}
    adj = graph.adj
    return labels, [[index[nbr] for nbr in adj[node]] for node in labels]


def maximal_independent_set(
    graph: AnyGraph,
    strategy: str = "min_degree",
    seed: int = 0,
) -> List[int]:
    """Compute a maximal independent set of ``graph``.

    Args:
        graph: any undirected graph without self-loops, as a
            ``networkx.Graph`` or a
            :class:`~repro.graphs.unit_disk.ChargingGraph`; isolated
            nodes are always chosen.
        strategy: one of ``"min_degree"``, ``"lexicographic"``,
            ``"random"``.
        seed: RNG seed for the ``"random"`` strategy.

    Returns:
        The chosen nodes, sorted ascending.

    Raises:
        ValueError: on an unknown strategy.
    """
    if strategy not in _STRATEGIES:
        raise ValueError(
            f"unknown MIS strategy {strategy!r}; expected one of {_STRATEGIES}"
        )
    labels, rows = _adjacency(graph)
    if strategy == "random":
        # The shuffle permutes by position only, so shuffling indices
        # visits the nodes exactly as shuffling list(graph.nodes) would.
        order = list(range(len(labels)))
        np.random.default_rng(seed).shuffle(order)
        chosen = _greedy_in_order(rows, order)
    else:
        order = sorted(range(len(labels)), key=lambda i: labels[i])
        if strategy == "min_degree":
            chosen = _greedy_min_degree(rows, order)
        else:
            chosen = _greedy_in_order(rows, order)
    return sorted(labels[i] for i in chosen)


def _greedy_in_order(rows: List[List[int]], order: Iterable[int]) -> List[int]:
    chosen: List[int] = []
    blocked = [False] * len(rows)
    for node in order:
        if blocked[node]:
            continue
        chosen.append(node)
        blocked[node] = True
        for nbr in rows[node]:
            blocked[nbr] = True
    return chosen


def _greedy_min_degree(rows: List[List[int]], order: List[int]) -> List[int]:
    """Greedy MIS taking, each step, the remaining node with the least
    ``(residual degree, position in order)``.

    The heap holds ``degree · n + position`` integers. A node whose
    residual degree drops gets one new entry per step at its new
    degree, which sorts before its older ones, so an entry that pops
    with a stale degree belongs to a removed node and is skipped;
    O(m log n) overall.
    """
    n = len(rows)
    degree = [len(row) for row in rows]
    rank = [0] * n
    for position, node in enumerate(order):
        rank[node] = position
    heap = [degree[node] * n + position for position, node in enumerate(order)]
    heapq.heapify(heap)
    removed = [False] * n
    chosen: List[int] = []
    while heap:
        deg, position = divmod(heapq.heappop(heap), n)
        node = order[position]
        if removed[node] or deg != degree[node]:
            continue
        chosen.append(node)
        removed[node] = True
        dropped = [nbr for nbr in rows[node] if not removed[nbr]]
        for gone in dropped:
            removed[gone] = True
        # Shrink the residual degrees of second-hop neighbours.
        touched: Set[int] = set()
        for gone in dropped:
            for nbr in rows[gone]:
                if not removed[nbr]:
                    degree[nbr] -= 1
                    touched.add(nbr)
        for nbr in touched:
            heapq.heappush(heap, degree[nbr] * n + rank[nbr])
    return chosen


def _members(
    graph: AnyGraph, nodes: Iterable[int]
) -> Tuple[List[List[int]], Optional[Set[int]]]:
    """Adjacency rows and the index set of ``nodes`` (``None`` when a
    node is not in the graph, or two of them are adjacent)."""
    labels, rows = _adjacency(graph)
    index = {node: i for i, node in enumerate(labels)}
    node_set = set(nodes)
    if not node_set <= index.keys():
        return rows, None
    members = {index[node] for node in node_set}
    if any(nbr in members for node in members for nbr in rows[node]):
        return rows, None
    return rows, members


def is_independent_set(graph: AnyGraph, nodes: Iterable[int]) -> bool:
    """Whether ``nodes`` is an independent set of ``graph``."""
    return _members(graph, nodes)[1] is not None


def is_maximal_independent_set(graph: AnyGraph, nodes: Iterable[int]) -> bool:
    """Whether ``nodes`` is independent *and* maximal (no node outside
    the set could be added without breaking independence)."""
    rows, members = _members(graph, nodes)
    if members is None:
        return False
    return all(
        node in members or any(nbr in members for nbr in rows[node])
        for node in range(len(rows))
    )
