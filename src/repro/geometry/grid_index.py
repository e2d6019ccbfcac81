"""Spatial index for fixed-radius neighbour queries.

Coverage sets and disk queries need, for a center, all sensors within
a radius (typically the charging radius ``γ``). A naive all-pairs scan
is O(n²). :class:`GridIndex` answers the query two ways:

* :meth:`GridIndex.within` (one center) buckets points into square
  cells of side ``cell_size``, so a radius-``r`` query only visits the
  O((r / cell_size + 1)²) cells around the query point;
* :meth:`GridIndex.within_bulk` (many centers) builds one
  ``scipy.spatial.cKDTree`` over the points on first use, gathers
  every center's candidates in one slightly padded tree-to-tree pair
  query, then keeps exactly those that pass the same
  ``hypot(...) <= r`` test. The cost is O((n + m) log n + output) for
  m centers instead of O(n·m). The charging graph ``G_c``
  (:mod:`repro.graphs.unit_disk`) uses the same padding and test in
  one self-pair query.

The index is immutable after construction, matching its use: WRSN
deployments are static for the lifetime of a scheduling instance.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy.spatial import cKDTree

from repro.geometry.distance import euclidean
from repro.geometry.point import PointLike

_Cell = Tuple[int, int]

#: Relative and absolute padding of the kd-tree query radius in
#: :meth:`GridIndex.within_bulk`. The tree compares sums of squares,
#: whose rounding differs from ``hypot`` by a few ulps; the padding
#: makes its candidate set a superset of the exact ``hypot`` disk,
#: which the exact test then trims.
_BALL_PAD_REL = 1e-9
_BALL_PAD_ABS_M = 1e-12


def padded_radius(radius_m: float) -> float:
    """The kd-tree query radius ``r·(1 + 1e-9) + 1e-12`` whose pairs
    are a superset of the exact ``np.hypot(...) <= r`` disk for any
    coordinates whose squared differences stay finite (|Δ| below
    ~1e154 m)."""
    return radius_m * (1.0 + _BALL_PAD_REL) + _BALL_PAD_ABS_M


class GridIndex:
    """Bucket-grid over labelled planar points.

    Args:
        points: mapping from an arbitrary hashable label (typically a
            sensor id) to its ``(x, y)`` position.
        cell_size: side length of a grid cell in metres. A good choice
            is the most common query radius; queries with other radii
            remain correct, only the constant factor changes.
    """

    def __init__(self, points: Mapping[Hashable, PointLike], cell_size: float):
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
        self._cell_size = float(cell_size)
        self._positions: Dict[Hashable, Tuple[float, float]] = {}
        self._cells: Dict[_Cell, List[Hashable]] = {}
        for label, pos in points.items():
            x, y = pos
            self._positions[label] = (float(x), float(y))
            self._cells.setdefault(self._cell_of(x, y), []).append(label)
        # Dense views and kd-tree for within_bulk, built on first use.
        self._bulk_labels: Optional[np.ndarray] = None
        self._bulk_coords: Optional[np.ndarray] = None
        self._bulk_tree: Optional[cKDTree] = None

    def _cell_of(self, x: float, y: float) -> _Cell:
        return (math.floor(x / self._cell_size), math.floor(y / self._cell_size))

    def __len__(self) -> int:
        return len(self._positions)

    def __contains__(self, label: Hashable) -> bool:
        return label in self._positions

    @property
    def cell_size(self) -> float:
        return self._cell_size

    def position(self, label: Hashable) -> Tuple[float, float]:
        """Stored position of ``label``."""
        return self._positions[label]

    def labels(self) -> Iterable[Hashable]:
        """All labels in the index."""
        return self._positions.keys()

    def within(self, center: PointLike, radius_m: float) -> List[Hashable]:
        """All labels whose point lies within ``radius_m`` of ``center``.

        The boundary is inclusive (``d <= radius_m``), matching the
        paper's coverage definition ``d(u, v) <= γ``.
        """
        if radius_m < 0:
            raise ValueError(f"radius must be non-negative, got {radius_m}")
        cx, cy = center
        # Minimal ring count: any point within r of the centre has each
        # coordinate within r, and |floor((c ± r)/cell) - floor(c/cell)|
        # <= ceil(r/cell) — the extra ring the old "+ 1" scanned could
        # never contain a hit, even for d == radius on a cell edge.
        span = int(math.ceil(radius_m / self._cell_size))
        base = self._cell_of(cx, cy)
        found: List[Hashable] = []
        for dx in range(-span, span + 1):
            for dy in range(-span, span + 1):
                cell = (base[0] + dx, base[1] + dy)
                for label in self._cells.get(cell, ()):
                    if euclidean(self._positions[label], (cx, cy)) <= radius_m:
                        found.append(label)
        return found

    def _bulk_view(self) -> Tuple[np.ndarray, np.ndarray, cKDTree]:
        """Label array (dtype object), coordinate array and kd-tree,
        built on first use."""
        labels, coords, tree = (
            self._bulk_labels, self._bulk_coords, self._bulk_tree
        )
        if labels is None or coords is None or tree is None:
            labels = np.empty(len(self._positions), dtype=object)
            for i, label in enumerate(self._positions):
                # Element-wise: a tuple label must stay one object.
                labels[i] = label
            coords = np.asarray(
                list(self._positions.values()), dtype=float
            ).reshape(-1, 2)
            tree = cKDTree(coords)
            self._bulk_labels, self._bulk_coords = labels, coords
            self._bulk_tree = tree
        return labels, coords, tree

    def within_bulk(
        self, centers: Sequence[PointLike], radius_m: float
    ) -> List[List[Hashable]]:
        """:meth:`within` for many centers at once.

        A kd-tree pair query between the centers and the cached point
        tree at a padded radius (``r·(1 + 1e-9) + 1e-12``) gathers a
        superset of each center's disk; the candidates are then kept
        only if ``np.hypot(cx - x, cy - y) <= radius_m``, the inclusive
        boundary of :meth:`within`. (``np.hypot`` and :meth:`within`'s
        ``math.hypot`` can differ in the last ulp, so the two methods
        may disagree on a point within an ulp of the rim.) Each result
        list is in index insertion order (ascending position in the
        mapping the index was built from) rather than :meth:`within`'s
        cell-scan order. The padding covers the tree's sum-of-squares
        rounding for any coordinates whose squared differences stay
        finite (|Δ| below ~1e154 m).

        Returns:
            One label list per center, in ``centers`` order.
        """
        if radius_m < 0:
            raise ValueError(f"radius must be non-negative, got {radius_m}")
        centers_arr = np.asarray(
            [(float(c[0]), float(c[1])) for c in centers], dtype=float
        ).reshape(-1, 2)
        if len(self._positions) == 0:
            return [[] for _ in range(len(centers_arr))]
        if len(centers_arr) == 0:
            return []
        labels, coords, tree = self._bulk_view()
        padded = padded_radius(radius_m)
        # Every (center, point) pair within the padded radius, as one
        # structured array — no per-center Python lists.
        pairs = cKDTree(centers_arr).sparse_distance_matrix(
            tree, padded, output_type="ndarray"
        )
        rows = pairs["i"].astype(np.int64)
        cand = pairs["j"].astype(np.int64)
        order = np.argsort(rows * len(labels) + cand, kind="stable")
        rows, cand = rows[order], cand[order]
        keep = np.hypot(
            centers_arr[rows, 0] - coords[cand, 0],
            centers_arr[rows, 1] - coords[cand, 1],
        ) <= radius_m
        hits = labels[cand[keep]].tolist()
        bounds = np.cumsum(
            np.bincount(rows[keep], minlength=len(centers_arr))
        )
        out: List[List[Hashable]] = []
        start = 0
        for stop in bounds.tolist():
            out.append(hits[start:stop])
            start = stop
        return out

    def neighbors_of(self, label: Hashable, radius_m: float) -> List[Hashable]:
        """Labels within ``radius_m`` of ``label``'s point, excluding itself."""
        center = self._positions[label]
        return [other for other in self.within(center, radius_m) if other != label]
