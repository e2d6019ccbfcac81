"""Unit tests for :mod:`repro.geometry.distcache`."""

import numpy as np
import pytest

from repro.geometry.distance import euclidean
from repro.geometry.distcache import DistanceCache
from repro.geometry.point import Point

POSITIONS = {
    0: Point(0.0, 0.0),
    1: Point(3.0, 4.0),
    2: Point(10.0, 0.0),
}
DEPOT = Point(5.0, 5.0)


class TestLookup:
    def test_matches_euclidean_exactly(self):
        cache = DistanceCache(POSITIONS, DEPOT)
        for a in POSITIONS:
            for b in POSITIONS:
                if a == b:
                    continue
                assert cache(a, b) == euclidean(POSITIONS[a], POSITIONS[b])

    def test_identity_is_zero_without_caching(self):
        cache = DistanceCache(POSITIONS, DEPOT)
        assert cache(1, 1) == 0.0
        assert cache(None, None) == 0.0
        assert len(cache) == 0

    def test_none_resolves_to_depot(self):
        cache = DistanceCache(POSITIONS, DEPOT)
        assert cache(None, 0) == euclidean(DEPOT, POSITIONS[0])
        assert cache(1, None) == euclidean(POSITIONS[1], DEPOT)

    def test_depotless_cache_rejects_none(self):
        cache = DistanceCache(POSITIONS)
        with pytest.raises(ValueError, match="no depot"):
            cache(None, 0)

    def test_unknown_label_raises(self):
        cache = DistanceCache(POSITIONS, DEPOT)
        with pytest.raises(KeyError):
            cache(0, 99)


class TestMemoization:
    def test_each_pair_computed_once(self):
        cache = DistanceCache(POSITIONS, DEPOT)
        first = cache(0, 1)
        assert cache.stats() == {"hits": 0, "misses": 1, "pairs": 1}
        # Same pair, both orientations: hits, no new computation.
        assert cache(0, 1) == first
        assert cache(1, 0) == first
        assert cache.stats() == {"hits": 2, "misses": 1, "pairs": 1}

    def test_len_counts_directed_entries(self):
        cache = DistanceCache(POSITIONS, DEPOT)
        cache(0, 1)
        cache(1, 2)
        assert len(cache) == 4
        assert cache.stats()["pairs"] == 2


class TestDenseMatrix:
    @staticmethod
    def _check(positions, depot):
        cache = DistanceCache(positions, depot)
        labels = list(positions)
        matrix = cache.dense_matrix(labels)
        points = [positions[label] for label in labels] + [depot]
        want = np.zeros((len(points), len(points)))
        for i, a in enumerate(points):
            for j, b in enumerate(points):
                if i != j:
                    want[i, j] = euclidean(a, b)
        # Byte-compare: every entry is the per-pair euclidean float.
        assert matrix.tobytes() == want.tobytes()
        for a in labels:
            for b in labels:
                if a != b:
                    assert matrix[labels.index(a), labels.index(b)] == cache(
                        a, b
                    )

    def test_negative_and_duplicate_coordinates(self):
        positions = {
            0: Point(-3.5, -2.0),
            1: Point(-3.5, -2.0),
            2: Point(-1e-9, 7.25),
            3: Point(4.0, -0.1),
            4: (-3.5, -2.0),
        }
        self._check(positions, Point(-1.0, -1.0))

    def test_huge_field(self):
        rng = np.random.default_rng(3)
        positions = {
            i: Point(float(x), float(y))
            for i, (x, y) in enumerate(rng.uniform(0.0, 1e5, (60, 2)))
        }
        positions[60] = Point(1e5, 1e5)
        positions[61] = Point(0.0, 1e5)
        self._check(positions, Point(0.0, 0.0))

    def test_near_rim_displacements(self):
        # Points at the charging radius along many directions: the
        # entries where np.hypot and math.hypot disagree must still be
        # the math.hypot floats.
        rng = np.random.default_rng(5)
        radius_m = 2.7
        positions = {0: Point(10.0, 10.0)}
        for k, theta in enumerate(rng.uniform(0, 2 * np.pi, 120)):
            positions[k + 1] = Point(
                10.0 + radius_m * float(np.cos(theta)),
                10.0 + radius_m * float(np.sin(theta)),
            )
        positions[200] = Point(10.0 + float(np.nextafter(radius_m, 0)), 10.0)
        self._check(positions, Point(12.0, 9.0))
