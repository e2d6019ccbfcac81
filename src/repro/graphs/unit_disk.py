"""The charging graph ``G_c``.

Section IV constructs ``G_c = (V_s, E)`` over the to-be-charged sensors
with an edge wherever two sensors are within the charging radius ``γ``
of each other — a unit-disk graph.

:func:`build_charging_graph` returns it as a :class:`ChargingGraph`:
the sorted node labels plus CSR rows (``indptr``/``indices``, each row
ascending). The edges come from one ``scipy.spatial.cKDTree``
self-pair query at a slightly padded radius, trimmed by the exact
``np.hypot(...) <= γ`` test of
:meth:`repro.geometry.grid_index.GridIndex.within_bulk`, so membership
is identical to a per-node ``within_bulk`` query and the cost is
O(n log n + |E|). The MIS (:mod:`repro.graphs.mis`) and the coverage
sets ``N_c⁺(v)`` (:meth:`ChargingGraph.closed_neighborhoods`) read the
rows directly; :meth:`ChargingGraph.to_networkx` builds the
``networkx`` view with ``pos`` node attributes and ``math.hypot`` edge
weights for callers that want one.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

import networkx as nx
import numpy as np
from scipy.spatial import cKDTree

from repro.geometry.grid_index import padded_radius
from repro.geometry.point import Point


@dataclass(frozen=True)
class ChargingGraph:
    """``G_c`` as index arrays.

    Attributes:
        labels: the node labels (sensor ids), ascending; node ``i`` of
            the arrays is ``labels[i]``.
        indptr: ``int64`` array of length ``len(labels) + 1``; row
            ``i`` is ``indices[indptr[i]:indptr[i + 1]]``.
        indices: ``int64`` neighbour indices, ascending within each
            row. Every edge appears in both of its rows.
    """

    labels: Tuple[int, ...]
    indptr: np.ndarray
    indices: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)

    def number_of_edges(self) -> int:
        """``|E|``."""
        return len(self.indices) // 2

    def degrees(self) -> List[int]:
        """Degree of every node, in ``labels`` order."""
        return np.diff(self.indptr).tolist()

    def neighbor_lists(self) -> List[List[int]]:
        """Row ``i`` as a list of neighbour indices, for every node."""
        ptr = self.indptr.tolist()
        flat = self.indices.tolist()
        return [flat[ptr[i]:ptr[i + 1]] for i in range(len(self.labels))]

    def closed_neighborhoods(
        self, candidates: Iterable[int]
    ) -> Dict[int, FrozenSet[int]]:
        """``N_c⁺(v)`` — ``v``'s row plus ``v`` — for node labels.

        Equal to :func:`repro.graphs.coverage.coverage_sets` with the
        graph's nodes as targets, and built the same way (a set over
        the ascending disk members, ``v`` included, then frozen), so
        the frozensets iterate in the same order too.

        Raises:
            KeyError: when a candidate is not a node of the graph.
        """
        ptr = self.indptr
        flat = self.indices
        labels = self.labels
        out: Dict[int, FrozenSet[int]] = {}
        for cand in candidates:
            i = bisect_left(labels, cand)
            if i == len(labels) or labels[i] != cand:
                raise KeyError(cand)
            row = flat[ptr[i]:ptr[i + 1]].tolist()
            row.insert(bisect_left(row, i), i)
            covered = {labels[j] for j in row}
            covered.add(cand)
            out[cand] = frozenset(covered)
        return out

    def to_networkx(self, positions: Mapping[int, Point]) -> nx.Graph:
        """The ``networkx`` view: nodes in ``labels`` order with a
        ``pos`` attribute, edges ``(u, v)`` with ``u < v`` inserted row
        by row, each with its ``math.hypot`` ``weight``.

        Args:
            positions: sensor id -> position for every node.
        """
        graph = nx.Graph()
        for node in self.labels:
            graph.add_node(node, pos=positions[node])
        rows = np.repeat(
            np.arange(len(self.labels), dtype=np.int64), np.diff(self.indptr)
        )
        upper = self.indices > rows
        labels = self.labels
        edges: List[Tuple[int, int, float]] = []
        for i, j in zip(rows[upper].tolist(), self.indices[upper].tolist()):
            u, v = labels[i], labels[j]
            ux, uy = positions[u]
            vx, vy = positions[v]
            edges.append((u, v, math.hypot(ux - vx, uy - vy)))
        graph.add_weighted_edges_from(edges)
        return graph


def build_charging_graph(
    positions: Mapping[int, Point],
    radius_m: float,
    nodes: Optional[Iterable[int]] = None,
) -> ChargingGraph:
    """Build the unit-disk charging graph.

    Args:
        positions: sensor id -> position for at least every node in
            ``nodes``.
        radius_m: the charging radius ``γ``; the edge rule is
            ``np.hypot(dx, dy) <= γ`` (boundary inclusive, matching
            ``N_c`` and ``GridIndex.within_bulk``).
        nodes: the to-be-charged subset ``V_s``; defaults to every key
            of ``positions``.

    Returns:
        The :class:`ChargingGraph` (sorted labels plus CSR rows).
    """
    if radius_m <= 0:
        raise ValueError(f"charging radius must be positive, got {radius_m}")
    labels = tuple(sorted(positions if nodes is None else set(nodes)))
    n = len(labels)
    coords = np.asarray(
        [(float(p[0]), float(p[1])) for p in (positions[v] for v in labels)],
        dtype=float,
    ).reshape(-1, 2)
    if n > 1:
        # Every i < j pair within the padded radius, then the exact
        # within_bulk test (np.hypot is sign-symmetric, so testing the
        # pair once decides both rows).
        pairs = cKDTree(coords).query_pairs(
            padded_radius(radius_m), output_type="ndarray"
        )
        first = pairs[:, 0].astype(np.int64)
        second = pairs[:, 1].astype(np.int64)
        keep = np.hypot(
            coords[first, 0] - coords[second, 0],
            coords[first, 1] - coords[second, 1],
        ) <= radius_m
        first, second = first[keep], second[keep]
    else:
        first = second = np.empty(0, dtype=np.int64)
    # Both orientations of every edge as one row-major key each; the
    # keys are distinct, so sorting them orders each row ascending.
    keys = np.sort(np.concatenate([first * n + second, second * n + first]))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    indices = keys % n
    indptr.flags.writeable = False
    indices.flags.writeable = False
    return ChargingGraph(labels, indptr, indices)
