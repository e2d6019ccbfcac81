"""Structured-array tour engine: index-space codecs + vectorised kernels.

Every TSP construction, local search and split of the tours layer runs
here, in index space over a dense distance matrix or O(n) leg arrays;
the label-space functions in ``tours/{tsp,improve,splitting,
energy_budget}`` only encode their inputs and decode the result.

This module supplies the array-native representation and the kernels:

* :class:`NodeIndexCodec` — a dense ``label <-> int32 index`` space over
  one tour's node set; the depot is always the *last* index
  (``codec.depot_index == len(labels)``), so a ``(n+1) x (n+1)`` matrix
  row/column addresses it uniformly.
* :class:`ArrayDistance` — the codec plus the dense float64 distance
  matrix over its index space (:func:`dense_backend`).
* :class:`ArrayTour` / :class:`TourPlan` — contiguous ``int32`` visit
  order plus float64 service/travel prefix arrays (cumulative sums used
  for O(1) delay/length reads and for diagnostics).
* kernels — :func:`two_opt_indices`, :func:`or_opt_indices`,
  :func:`greedy_split_cuts`, :func:`split_min_max_ranges`,
  :func:`split_dual_ranges`: local search and splitting;
  :func:`nearest_neighbor_indices`, :func:`greedy_edge_indices` and
  :func:`christofides_indices`: the TSP constructions.

Byte-parity contract
--------------------
Every float the kernels emit is **byte-identical** to the retired
label-space loops, which ``tests/_legacy_tours.py`` keeps as the
oracle. Two rules make that possible:

1. **Distances come from ``euclidean`` (``math.hypot``), never from a
   numpy reimplementation.** CPython's ``math.hypot`` is its own
   correctly-rounded algorithm (not libm), and ``np.hypot`` disagrees
   with it in the last ulp on ~0.6% of random pairs on this platform —
   measured, not hypothetical. ``DistanceCache.dense_matrix`` therefore
   fills the matrix with ``euclidean`` values; numpy only *gathers* and
   *combines* them.
2. **Numpy combines floats in the legacy evaluation order.** Elementwise
   ``+ - * /`` on float64 match scalar IEEE ops exactly, and
   ``np.cumsum`` accumulates sequentially — so running sums mirror
   ``acc += step`` loops bytewise. ``np.sum`` (pairwise) would not;
   it is deliberately never used here. Prefix-sum *differences* are
   likewise never used for costs (``(a+b)-a != b`` in floats): split
   feasibility recomputes a fresh cumsum per segment, which keeps the
   whole pass O(n) amortised without breaking parity.

Matrix source
-------------
:func:`dense_backend` is total: a depot-carrying
:class:`DistanceCache` serves its memoized ``dense_matrix``; any other
``dist`` callable (``None`` = depot) is read once per pair by
:func:`pairwise_matrix`. A depot-less cache and duplicate labels raise
``ValueError``. There is no size cap: at 8 bytes per ordered pair the
matrix is smaller than the memoized pair dict a label-space walk
fills (DESIGN §16).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.geometry.distcache import DistanceCache
from repro.tours.matching import max_weight_matching

#: Binary-search stopping rule of the min-max and dual splits.
_BINARY_SEARCH_REL_TOL = 1e-9
_BINARY_SEARCH_MAX_ITER = 100


def canonical_labels(labels: Sequence[Hashable]) -> Tuple[Hashable, ...]:
    """Order-independent canonical form of a node set.

    Sorted when the labels are mutually comparable (the common case:
    integer sensor ids), else first-seen order. Canonicalising the
    memo key lets every kernel over the same node *set* share one
    dense matrix regardless of visit order.
    """
    try:
        return tuple(sorted(labels))
    except TypeError:
        return tuple(labels)


class NodeIndexCodec:
    """Bidirectional ``label <-> int32 index`` map over one node set.

    Index ``i`` is position ``i`` in ``labels``; the depot is the extra
    index ``len(labels)`` so dense matrices address it as the last
    row/column without a sentinel label.
    """

    __slots__ = ("labels", "_index_of")

    def __init__(self, labels: Sequence[Hashable]):
        self.labels: Tuple[Hashable, ...] = tuple(labels)
        self._index_of: Dict[Hashable, int] = {
            label: i for i, label in enumerate(self.labels)
        }
        if len(self._index_of) != len(self.labels):
            raise ValueError("codec labels must be unique")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def depot_index(self) -> int:
        """The dense index reserved for the depot (always the last)."""
        return len(self.labels)

    def encode(self, order: Sequence[Hashable]) -> np.ndarray:
        """Labels -> contiguous int32 index array."""
        index_of = self._index_of
        return np.fromiter(
            (index_of[label] for label in order),
            dtype=np.int32,
            count=len(order),
        )

    def decode(self, indices: Sequence[int]) -> List[Hashable]:
        """Index array -> label list (depot index is not decodable)."""
        labels = self.labels
        return [labels[int(i)] for i in indices]


@dataclass(frozen=True, eq=False)
class ArrayDistance:
    """A codec plus the dense distance matrix over its index space.

    ``matrix[i, j]`` is the ``euclidean`` distance between the nodes at
    codec indices ``i`` and ``j``; row/column ``codec.depot_index`` is
    the depot. Entries are byte-identical to ``DistanceCache`` lookups.
    """

    codec: NodeIndexCodec
    matrix: np.ndarray

    @classmethod
    def from_cache(
        cls,
        dist: DistanceCache,
        labels: Sequence[Hashable],
    ) -> "ArrayDistance":
        """Build over ``labels`` (in the given order) from a cache.

        The underlying matrix is memoized on the cache under the
        *canonical* label order; a permuted view is gathered from it, so
        TSP construction (positional order) and splitting (visit order)
        share one O(n^2) build.
        """
        codec = NodeIndexCodec(labels)
        canon = canonical_labels(labels)
        matrix = dist.dense_matrix(canon)
        if canon != codec.labels:
            canon_index = {label: i for i, label in enumerate(canon)}
            perm = np.fromiter(
                (canon_index[label] for label in codec.labels),
                dtype=np.intp,
                count=len(codec.labels),
            )
            perm = np.append(perm, len(canon))  # depot stays last
            matrix = matrix[np.ix_(perm, perm)]
        return cls(codec, matrix)


def pairwise_matrix(
    labels: Sequence[Hashable],
    dist: Callable[[Hashable, Hashable], float],
) -> np.ndarray:
    """Symmetric ``m x m`` float64 matrix over ``labels`` from one
    pairwise fill.

    Entry ``(i, j)``, ``i < j``, is ``dist(labels[i], labels[j])`` —
    each unordered pair is read exactly once, ``a`` before ``b`` in
    the given order — mirrored into the lower triangle; the diagonal
    is zero.
    """
    m = len(labels)
    matrix = np.zeros((m, m), dtype=np.float64)
    matrix[np.triu_indices(m, k=1)] = np.fromiter(
        (dist(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]),
        dtype=np.float64,
        count=m * (m - 1) // 2,
    )
    matrix += matrix.T
    return matrix


def dense_backend(
    dist: Callable[[Hashable, Hashable], float],
    labels: Sequence[Hashable],
) -> ArrayDistance:
    """The dense distance matrix over ``labels`` plus the depot.

    A :class:`DistanceCache` serves its memoized
    :meth:`~DistanceCache.dense_matrix` (:meth:`ArrayDistance.
    from_cache`); any other callable, with ``None`` naming the depot,
    fills the matrix through :func:`pairwise_matrix`.

    Raises:
        ValueError: on duplicate labels, or a depot-less cache.
    """
    if isinstance(dist, DistanceCache):
        return ArrayDistance.from_cache(dist, labels)
    codec = NodeIndexCodec(labels)
    return ArrayDistance(codec, pairwise_matrix([*codec.labels, None], dist))


# ---------------------------------------------------------------------------
# Tour objects
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ArrayTour:
    """One depot-rooted closed tour in index space.

    Attributes:
        dense: the codec + matrix the indices refer to.
        order: int32 visit order (codec indices, depot excluded).
        service_s: per-visit service seconds, aligned with ``order``.
    """

    dense: ArrayDistance
    order: np.ndarray
    service_s: np.ndarray
    _prefixes: Dict[str, np.ndarray] = field(
        default_factory=dict, repr=False, compare=False
    )

    @classmethod
    def from_labels(
        cls,
        dense: ArrayDistance,
        order: Sequence[Hashable],
        service: Callable[[Hashable], float],
    ) -> "ArrayTour":
        svc = np.fromiter(
            (service(label) for label in order),
            dtype=np.float64,
            count=len(order),
        )
        return cls(dense, dense.codec.encode(order), svc)

    def labels(self) -> List[Hashable]:
        """The visit order as labels."""
        return self.dense.codec.decode(self.order)

    @property
    def travel_prefix_m(self) -> np.ndarray:
        """Cumulative travel metres after each visit (depot leg first).

        ``travel_prefix_m[k]`` is the distance driven when arriving at
        visit ``k``; it excludes the final return-to-depot leg.
        """
        cached = self._prefixes.get("travel")
        if cached is None:
            n = self.order.size
            legs = np.empty(n, dtype=np.float64)
            if n:
                depot = self.dense.codec.depot_index
                matrix = self.dense.matrix
                legs[0] = matrix[depot, self.order[0]]
                legs[1:] = matrix[self.order[:-1], self.order[1:]]
            cached = np.cumsum(legs)
            self._prefixes["travel"] = cached
        return cached

    @property
    def service_prefix_s(self) -> np.ndarray:
        """Cumulative service seconds through each visit."""
        cached = self._prefixes.get("service")
        if cached is None:
            cached = np.cumsum(self.service_s)
            self._prefixes["service"] = cached
        return cached

    def travel_length_m(self) -> float:
        """Closed-tour travel length including the return leg."""
        if not self.order.size:
            return 0.0
        depot = self.dense.codec.depot_index
        closing = self.dense.matrix[self.order[-1], depot]
        return float(self.travel_prefix_m[-1] + closing)

    def delay_s(self, speed_mps: float) -> float:
        """Tour delay: travel time plus total service time."""
        if not self.order.size:
            return 0.0
        return float(
            self.travel_length_m() / speed_mps + self.service_prefix_s[-1]
        )


@dataclass(frozen=True, eq=False)
class TourPlan:
    """A K-tour split in index space: the kernels' structured result."""

    tours: Tuple[ArrayTour, ...]
    achieved_bound_s: float

    def tour_labels(self) -> List[List[Hashable]]:
        return [tour.labels() for tour in self.tours]


# ---------------------------------------------------------------------------
# Local-search kernels (dense-matrix backed)
# ---------------------------------------------------------------------------


def two_opt_indices(
    matrix: np.ndarray,
    depot_index: int,
    order: np.ndarray,
    max_rounds: int = 30,
    min_gain: float = 1e-9,
) -> np.ndarray:
    """First-improvement 2-opt over index space (the kernel behind
    :func:`repro.tours.improve.two_opt`).

    For each pivot ``i`` the whole row of candidate reversals
    ``order[i..j]`` is scored in one vector expression
    ``(D[b,c_i] + D[c_j,a_j]) - (D[b,c_j] + D[c_i,a_j])`` and the first
    ``delta > min_gain`` is applied — exactly the legacy scan order,
    including rescanning the tail with the mutated order after a move.
    """
    current = np.array(order, dtype=np.int32)
    n = current.size
    if n < 3:
        return current
    for _ in range(max_rounds):
        improved = False
        for i in range(n - 1):
            before_i = depot_index if i == 0 else current[i - 1]
            j = i + 1
            while j < n:
                nodes_j = current[j:]
                after_j = np.empty(n - j, dtype=np.int32)
                after_j[:-1] = current[j + 1:]
                after_j[-1] = depot_index
                node_i = current[i]
                delta = (
                    matrix[before_i, node_i] + matrix[nodes_j, after_j]
                ) - (matrix[before_i, nodes_j] + matrix[node_i, after_j])
                hits = np.nonzero(delta > min_gain)[0]
                if not hits.size:
                    break
                j_star = j + int(hits[0])
                current[i : j_star + 1] = current[i : j_star + 1][::-1].copy()
                improved = True
                j = j_star + 1
        if not improved:
            break
    return current


def or_opt_indices(
    matrix: np.ndarray,
    depot_index: int,
    order: np.ndarray,
    segment_lengths: Sequence[int] = (1, 2, 3),
    max_rounds: int = 10,
    min_gain: float = 1e-9,
) -> np.ndarray:
    """Or-opt segment relocation (the kernel behind
    :func:`repro.tours.improve.or_opt`).

    The legacy insertion scan keeps the *first* position attaining the
    running strict minimum below ``-min_gain``; ``np.argmin`` returns
    the first occurrence of the minimum, so the accepted move is
    identical.
    """
    current = [int(x) for x in np.asarray(order).tolist()]
    for _ in range(max_rounds):
        improved = False
        for seg_len in segment_lengths:
            n = len(current)
            if n <= seg_len:
                continue
            i = 0
            while i + seg_len <= len(current):
                seg_first = current[i]
                seg_last = current[i + seg_len - 1]
                rest = current[:i] + current[i + seg_len:]
                before = current[i - 1] if i > 0 else depot_index
                after = (
                    current[i + seg_len]
                    if i + seg_len < len(current)
                    else depot_index
                )
                removal_gain = (
                    matrix[before, seg_first]
                    + matrix[seg_last, after]
                    - matrix[before, after]
                )
                rest_arr = np.fromiter(rest, dtype=np.int32, count=len(rest))
                pred = np.empty(len(rest) + 1, dtype=np.int32)
                pred[0] = depot_index
                pred[1:] = rest_arr
                succ = np.empty(len(rest) + 1, dtype=np.int32)
                succ[:-1] = rest_arr
                succ[-1] = depot_index
                delta = (
                    matrix[pred, seg_first]
                    + matrix[seg_last, succ]
                    - matrix[pred, succ]
                ) - removal_gain
                pos = int(np.argmin(delta))
                if delta[pos] < -min_gain:
                    segment = current[i : i + seg_len]
                    current = rest[:pos] + segment + rest[pos:]
                    improved = True
                else:
                    i += 1
        if not improved:
            break
    return np.asarray(current, dtype=np.int32)


# ---------------------------------------------------------------------------
# Split kernels (leg-array backed — no dense matrix)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TourLegs:
    """O(n) per-position leg/service arrays for one visit order.

    ``start_m[k]`` is the depot->node leg, ``chain_m[k]`` the leg from
    the previous node (``chain_m[0]`` unused), ``closing_m[k]`` the
    node->depot leg, all in metres; ``service_s[k]`` the node's service
    seconds. Built once per split call and reused across every binary-
    search iteration, so the distance lookups are paid once per split,
    not once per iteration.
    """

    start_m: np.ndarray
    chain_m: np.ndarray
    closing_m: np.ndarray
    service_s: np.ndarray

    def __len__(self) -> int:
        return self.start_m.size


def tour_legs(
    dist: Callable[[Hashable, Hashable], float],
    order: Sequence[Hashable],
    service: Callable[[Hashable], float],
) -> TourLegs:
    """Build :class:`TourLegs` for ``order``.

    Each leg is one ``dist`` call (``None`` = depot) in visit order, so
    every entry is the float a scalar walk over ``order`` would read.
    ``service`` must be pure — it is evaluated once per node here, not
    once per binary-search iteration.
    """
    n = len(order)
    start = np.fromiter(
        (dist(None, node) for node in order), dtype=np.float64, count=n
    )
    chain = np.empty(n, dtype=np.float64)
    if n:
        chain[0] = start[0]
        for k in range(1, n):
            chain[k] = dist(order[k - 1], order[k])
    closing = np.fromiter(
        (dist(node, None) for node in order), dtype=np.float64, count=n
    )
    svc = np.fromiter(
        (service(node) for node in order), dtype=np.float64, count=n
    )
    return TourLegs(start, chain, closing, svc)


def greedy_split_cuts(
    legs: TourLegs,
    bound: float,
    speed_mps: float,
    max_segments: Optional[int] = None,
) -> Optional[List[int]]:
    """Greedy segment cut positions under ``bound`` (the kernel behind
    :func:`repro.tours.splitting.greedy_split_with_bound`).

    Returns the sorted positions where a new segment starts (``0`` is
    implicit), or ``None`` when a single node is infeasible — and, as a
    pure short-circuit, when more than ``max_segments`` segments would
    be needed (the caller's verdict is ``None`` either way).

    Each segment's running cost is a fresh ``np.cumsum`` over its own
    steps — sequential accumulation, byte-matching the legacy
    ``open_cost += step`` loop (a prefix-sum *difference* would not be).
    """
    n = len(legs)
    if not n:
        return []
    start_step = legs.start_m / speed_mps + legs.service_s
    chain_step = legs.chain_m / speed_mps + legs.service_s
    closing_t = legs.closing_m / speed_mps
    cuts: List[int] = []
    s = 0
    while s < n:
        steps = chain_step[s:].copy()
        steps[0] = start_step[s]
        running = np.cumsum(steps)
        violates = running + closing_t[s:] > bound
        if violates[0]:
            return None  # single node infeasible under this bound
        hits = np.nonzero(violates)[0]
        if not hits.size:
            break
        s += int(hits[0])
        cuts.append(s)
        if max_segments is not None and len(cuts) + 1 > max_segments:
            return None
    return cuts


def _cut_ranges(cuts: Sequence[int], n: int) -> List[Tuple[int, int]]:
    bounds = [0, *cuts, n]
    return [
        (bounds[k], bounds[k + 1])
        for k in range(len(bounds) - 1)
        if bounds[k] < bounds[k + 1]
    ]


def range_cost(
    legs: TourLegs, start: int, stop: int, speed_mps: float
) -> float:
    """Delay of the closed tour over positions ``[start, stop)``; parity
    with :func:`repro.tours.splitting.segment_cost` on that slice."""
    if start >= stop:
        return 0.0
    m = stop - start
    travel_legs = np.empty(m + 1, dtype=np.float64)
    travel_legs[0] = legs.start_m[start]
    travel_legs[1:m] = legs.chain_m[start + 1 : stop]
    travel_legs[m] = legs.closing_m[stop - 1]
    travel = np.cumsum(travel_legs)[-1]
    return float(
        travel / speed_mps + np.cumsum(legs.service_s[start:stop])[-1]
    )


def _split_bounds(legs: TourLegs, speed_mps: float) -> Tuple[float, float]:
    """Legacy low/high bounds: costliest single-node round trip and the
    whole order as one segment."""
    single = (legs.start_m + legs.closing_m) / speed_mps + legs.service_s
    low = float(np.max(single))
    high = range_cost(legs, 0, len(legs), speed_mps)
    return low, high


def split_min_max_ranges(
    legs: TourLegs,
    num_tours: int,
    speed_mps: float,
) -> Tuple[List[Tuple[int, int]], float]:
    """Binary-searched min-max split as position ranges (the kernel
    behind :func:`repro.tours.splitting.split_tour_min_max`)."""
    n = len(legs)
    if not n:
        return [], 0.0
    low, high = _split_bounds(legs, speed_mps)

    def feasible(bound: float) -> Optional[List[int]]:
        slack = bound * (1.0 + 1e-12) + 1e-9
        return greedy_split_cuts(legs, slack, speed_mps, num_tours)

    best = feasible(high)
    assert best is not None, "the full tour must fit in one segment"
    low_cuts = feasible(low)
    if low_cuts is not None:
        best = low_cuts
    else:
        for _ in range(_BINARY_SEARCH_MAX_ITER):
            if high - low <= _BINARY_SEARCH_REL_TOL * max(high, 1.0):
                break
            mid = (low + high) / 2.0
            cuts = feasible(mid)
            if cuts is None:
                low = mid
            else:
                high = mid
                best = cuts
    ranges = _cut_ranges(best, n)
    achieved = max(range_cost(legs, s, e, speed_mps) for s, e in ranges)
    return ranges, achieved


def split_dual_ranges(
    legs: TourLegs,
    num_tours: int,
    speed_mps: float,
    travel_j_per_m: float,
    drain_w: float,
    battery_j: float,
) -> Tuple[Optional[List[Tuple[int, int]]], float]:
    """Energy-and-delay constrained split as position ranges (the kernel
    behind :func:`repro.tours.energy_budget.split_tour_energy_constrained`).

    ``drain_w`` is the charger's drawn power ``charge_rate_w /
    transfer_efficiency`` (pre-divided once — the legacy expression
    groups as ``(rate / eff) * seconds``, so the product is identical).
    """
    n = len(legs)
    if not n:
        return [], 0.0
    low, high = _split_bounds(legs, speed_mps)
    start_t = legs.start_m / speed_mps
    chain_t = legs.chain_m / speed_mps
    closing_t = legs.closing_m / speed_mps
    svc = legs.service_s

    def cuts_under(delay_bound_s: float) -> Optional[List[int]]:
        cuts: List[int] = []
        s = 0
        while s < n:
            leg_m = legs.chain_m[s:].copy()
            leg_m[0] = legs.start_m[s]
            leg_t = chain_t[s:].copy()
            leg_t[0] = start_t[s]
            svc_seg = svc[s:]
            # Sequential accumulations, shifted to "before this node";
            # the candidate expressions below then regroup exactly as
            # the legacy scalar code does.
            step_t = leg_t + svc_seg
            acc = np.cumsum(step_t)
            open_cost = np.empty_like(acc)
            open_cost[0] = 0.0
            open_cost[1:] = acc[:-1]
            acc_m = np.cumsum(leg_m)
            open_travel = np.empty_like(acc_m)
            open_travel[0] = 0.0
            open_travel[1:] = acc_m[:-1]
            acc_c = np.cumsum(svc_seg)
            open_charge = np.empty_like(acc_c)
            open_charge[0] = 0.0
            open_charge[1:] = acc_c[:-1]
            cost = ((open_cost + leg_t) + svc_seg) + closing_t[s:]
            travel = (open_travel + leg_m) + legs.closing_m[s:]
            charge = open_charge + svc_seg
            energy = travel_j_per_m * travel + drain_w * charge
            violates = ~((cost <= delay_bound_s) & (energy <= battery_j))
            if violates[0]:
                return None
            hits = np.nonzero(violates)[0]
            if not hits.size:
                break
            s += int(hits[0])
            cuts.append(s)
        return cuts

    def feasible(bound: float) -> Optional[List[int]]:
        slack = bound * (1.0 + 1e-12) + 1e-9
        cuts = cuts_under(slack)
        if cuts is None or len(cuts) + 1 > num_tours:
            return None
        return cuts

    best = feasible(high)
    if best is None:
        return None, float("inf")
    low_cuts = feasible(low)
    if low_cuts is not None:
        best = low_cuts
    else:
        for _ in range(_BINARY_SEARCH_MAX_ITER):
            if high - low <= _BINARY_SEARCH_REL_TOL * max(high, 1.0):
                break
            mid = (low + high) / 2.0
            cuts = feasible(mid)
            if cuts is None:
                low = mid
            else:
                high = mid
                best = cuts
    ranges = _cut_ranges(best, n)
    achieved = max(range_cost(legs, s, e, speed_mps) for s, e in ranges)
    return ranges, achieved


# ---------------------------------------------------------------------------
# TSP construction kernels
# ---------------------------------------------------------------------------


def nearest_neighbor_indices(
    dense: ArrayDistance,
) -> np.ndarray:
    """Depot-rooted nearest-neighbour order (``build_tsp_order``'s
    ``"nearest_neighbor"`` construction).

    The legacy tie-break is ``(distance, str(label))``; distance ties
    are resolved here by a precomputed string rank over the codec's
    labels, which picks the identical node.
    """
    n = len(dense.codec)
    matrix = dense.matrix
    by_str = sorted(range(n), key=lambda k: str(dense.codec.labels[k]))
    rank = np.empty(n, dtype=np.int64)
    rank[by_str] = np.arange(n)
    remaining = np.arange(n, dtype=np.int64)
    order = np.empty(n, dtype=np.int32)
    current = dense.codec.depot_index
    for out in range(n):
        values = matrix[current, remaining]
        lowest = values.min()
        ties = remaining[values == lowest]
        if ties.size > 1:
            chosen = int(ties[np.argmin(rank[ties])])
        else:
            chosen = int(ties[0])
        order[out] = chosen
        remaining = remaining[remaining != chosen]
        current = chosen
    return order


def greedy_edge_indices(dense: ArrayDistance) -> np.ndarray:
    """Greedy-edge cycle rotated to start just after the depot
    (``build_tsp_order``'s ``"greedy_edge"`` construction).

    The legacy edge sort key is ``(distance, i, j)`` over positional
    indices with the depot last — exactly this codec's index space, so
    ``np.lexsort`` with keys ``(j, i, distance)`` reproduces the edge
    order; degree/union-find filtering then walks it identically.
    """
    m = len(dense.codec) + 1  # real nodes + depot
    matrix = dense.matrix
    idx_i, idx_j = np.triu_indices(m, k=1)
    lengths = matrix[idx_i, idx_j]
    edge_order = np.lexsort((idx_j, idx_i, lengths))
    idx_i = idx_i[edge_order]
    idx_j = idx_j[edge_order]

    degree = [0] * m
    parent = list(range(m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    adjacency: Dict[int, List[int]] = {i: [] for i in range(m)}
    added = 0
    for a, b in zip(idx_i.tolist(), idx_j.tolist()):
        if added == m - 1:
            break
        if degree[a] >= 2 or degree[b] >= 2:
            continue
        root_a, root_b = find(a), find(b)
        if root_a == root_b:
            continue
        parent[root_a] = root_b
        degree[a] += 1
        degree[b] += 1
        adjacency[a].append(b)
        adjacency[b].append(a)
        added += 1
    endpoints = [i for i in range(m) if degree[i] == 1]
    assert len(endpoints) == 2, "greedy edge construction left a broken path"
    adjacency[endpoints[0]].append(endpoints[1])
    adjacency[endpoints[1]].append(endpoints[0])

    depot = dense.codec.depot_index
    order: List[int] = []
    prev: Optional[int] = None
    current = depot
    while True:
        nxt = next(n for n in adjacency[current] if n != prev)
        if nxt == depot:
            break
        order.append(nxt)
        prev, current = current, nxt
    return np.asarray(order, dtype=np.int32)


def christofides_indices(matrix: np.ndarray, start: int) -> np.ndarray:
    """Christofides' 1.5-approximate cycle over the index space of
    ``matrix``, rotated to begin with ``start``.

    Edge ``{i, j}`` (``i < j``) weighs ``matrix[i, j]``; the lower
    triangle is never read. The cycle is the one networkx's
    ``approximation.christofides`` returns on the complete graph whose
    nodes are added in index order and whose edge ``(i, j)`` carries
    that weight (DESIGN §16 states the ordering contract). Every order
    its result depends on is reproduced:

    1. **Kruskal.** A stable argsort of the row-major upper triangle is
       networkx's stable weight sort of ``G.edges``; an edge joining
       two components is accepted.
    2. **Tree.** Each node keeps its tree neighbours in acceptance
       order; the tree's edge list runs over nodes in index order, each
       contributing its not-yet-visited neighbours.
    3. **Matching.** The odd-degree nodes, in index order, are matched
       by :func:`repro.tours.matching.max_weight_matching` on weights
       ``(1 + max w) - w``.
    4. **Multigraph.** Nodes enter in first appearance along the tree's
       edge list; a node's adjacency holds its tree neighbours in that
       list's order, then its matching partner — which joins the
       existing entry (as a second parallel edge) when it is already a
       tree neighbour.
    5. **Copy.** ``eulerian_circuit`` walks a ``MultiGraph.copy()``,
       which re-inserts edges node by node: a node's adjacency becomes
       its neighbours that entered before it, in entry order, then the
       rest in their previous order.
    6. **Walk.** Hierholzer's walk from the first node always takes
       the first remaining neighbour; the cycle lists the vertices in
       the order the walk retires them, first occurrences only.

    Needs at least two nodes. :func:`repro.tours.tsp.christofides_tour`
    and ``build_tsp_order`` send instances of up to three nodes
    (depot included) to the double-MST fallback instead.
    """
    m = matrix.shape[0]
    upper_i, upper_j = np.triu_indices(m, k=1)
    by_weight = np.argsort(matrix[upper_i, upper_j], kind="stable")

    parent = list(range(m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree: List[List[int]] = [[] for _ in range(m)]
    accepted = 0
    for a, b in zip(
        upper_i[by_weight].tolist(), upper_j[by_weight].tolist()
    ):
        root_a, root_b = find(a), find(b)
        if root_a == root_b:
            continue
        parent[root_a] = root_b
        tree[a].append(b)
        tree[b].append(a)
        accepted += 1
        if accepted == m - 1:
            break

    odd = [x for x in range(m) if len(tree[x]) % 2]
    odd_i, odd_j = np.triu_indices(len(odd), k=1)
    odd_weights = matrix[np.ix_(odd, odd)][odd_i, odd_j]
    inverted = (1 + odd_weights.max()) - odd_weights
    matching = np.zeros((len(odd), len(odd)), dtype=np.float64)
    matching[odd_i, odd_j] = inverted
    matching[odd_j, odd_i] = inverted
    mate = max_weight_matching(matching.tolist())

    # Multigraph adjacency as ordered {neighbour: parallel edges}.
    multigraph: Dict[int, Dict[int, int]] = {}

    def add_edge(u: int, v: int) -> None:
        for node in (u, v):
            if node not in multigraph:
                multigraph[node] = {}
        multigraph[u][v] = multigraph[u].get(v, 0) + 1
        multigraph[v][u] = multigraph[u][v]

    visited = [False] * m
    for u in range(m):
        for v in tree[u]:
            if not visited[v]:
                add_edge(u, v)
        visited[u] = True
    for a, b in enumerate(mate):
        if a < b:
            add_edge(odd[a], odd[b])

    walk_adjacency: Dict[int, Dict[int, int]] = {
        node: {} for node in multigraph
    }
    for u, neighbours in multigraph.items():
        for v, count in neighbours.items():
            if v not in walk_adjacency[u]:
                walk_adjacency[u][v] = count
                walk_adjacency[v][u] = count

    source = next(iter(walk_adjacency))
    stack = [source]
    retired: List[int] = []
    while stack:
        current = stack[-1]
        neighbours = walk_adjacency[current]
        if not neighbours:
            retired.append(current)
            stack.pop()
            continue
        nxt = next(iter(neighbours))
        stack.append(nxt)
        left = neighbours[nxt] - 1
        if left:
            neighbours[nxt] = walk_adjacency[nxt][current] = left
        else:
            del neighbours[nxt]
            del walk_adjacency[nxt][current]

    cycle = list(dict.fromkeys(retired))
    pivot = cycle.index(start)
    return np.asarray(cycle[pivot:] + cycle[:pivot], dtype=np.int32)


__all__ = [
    "ArrayDistance",
    "ArrayTour",
    "NodeIndexCodec",
    "TourLegs",
    "TourPlan",
    "canonical_labels",
    "christofides_indices",
    "dense_backend",
    "greedy_edge_indices",
    "greedy_split_cuts",
    "nearest_neighbor_indices",
    "or_opt_indices",
    "pairwise_matrix",
    "range_cost",
    "split_dual_ranges",
    "split_min_max_ranges",
    "tour_legs",
    "two_opt_indices",
]
