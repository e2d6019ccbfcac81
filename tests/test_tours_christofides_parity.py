"""Byte-parity of the index-space Christofides against networkx.

The oracle is the retired ``networkx`` construction in
``tests/_legacy_tours.py``. These tests pin that
:func:`repro.tours.arrays.christofides_indices` (and the public
:func:`repro.tours.tsp.christofides_tour` and ``build_tsp_order`` on
top of it) return networkx's cycle node for node, that the blossom
port in :mod:`repro.tours.matching` returns networkx's matching, and
that schedules built on them are byte-identical.

A committed digest of the kernel's orders pins the behaviour without
networkx, so parity does not hinge on the installed networkx version.
"""

import hashlib
import json
import math
import random

import networkx as nx
import numpy as np
import pytest

import repro.tours.energy_budget as energy_budget_module
import repro.tours.kminmax as kminmax_module
from repro.core.appro import appro_schedule_with_artifacts
from repro.geometry.distcache import DistanceCache
from repro.io import schedule_to_dict
from repro.network.topology import random_wrsn
from repro.pipeline import run_planner
from repro.tours.arrays import christofides_indices
from repro.tours.energy_budget import (
    MCVEnergyModel,
    solve_k_minmax_energy_constrained,
)
from repro.tours.matching import UNMATCHED, max_weight_matching
from repro.tours.tsp import build_tsp_order, christofides_tour
from tests._legacy_tours import legacy_build_tsp_order, nx_christofides_tour

KINDS = ("uniform", "lattice", "duplicates", "collinear", "clusters")

#: SHA-256 of the kernel's orders over ``_golden_corpus()``.
GOLDEN_SHA256 = (
    "f359354a78b7ac9991fd9552635b0e6e434d02e956fef640ab63b3ca494640c1"
)


def _points(kind, m, rng):
    """``m`` seeded points of one shape; only ``rng.random`` and
    ``rng.randrange`` are drawn, whose streams are stable across
    Python versions."""
    if kind == "uniform":
        return [(rng.random() * 1000.0, rng.random() * 1000.0)
                for _ in range(m)]
    if kind == "lattice":
        # A 5 x 5 grid: many equal edge lengths and repeated points.
        return [(10.0 * rng.randrange(5), 10.0 * rng.randrange(5))
                for _ in range(m)]
    if kind == "duplicates":
        base = [(rng.random() * 100.0, rng.random() * 100.0)
                for _ in range(max(2, m // 3))]
        return [base[rng.randrange(len(base))] for _ in range(m)]
    if kind == "collinear":
        slope = rng.randrange(-3, 4) * 0.5
        return [(x, slope * x + 7.0)
                for x in (float(rng.randrange(3 * m)) for _ in range(m))]
    centers = [(rng.random() * 1000.0, rng.random() * 1000.0)
               for _ in range(3)]
    return [
        (cx + rng.random() * 5.0, cy + rng.random() * 5.0)
        for cx, cy in (centers[rng.randrange(3)] for _ in range(m))
    ]


def _matrix(points):
    return np.array(
        [[math.hypot(ax - bx, ay - by) for bx, by in points]
         for ax, ay in points],
        dtype=np.float64,
    )


def _instance(kind, seed, low=4, high=60):
    rng = random.Random(f"{kind}-{seed}")
    m = low + rng.randrange(high - low + 1)
    points = _points(kind, m, rng)
    start = m - 1 if seed % 2 else rng.randrange(m)
    return points, start


def _oracle_order(points, start):
    rows = _matrix(points).tolist()
    labels = list(range(len(points)))
    positions = dict(enumerate(points))
    return nx_christofides_tour(
        labels, positions, start, dist=lambda a, b: rows[a][b]
    )


def _kernel_order(points, start):
    return christofides_indices(_matrix(points), start).tolist()


# ----------------------------------------------------------------------
# The kernel against networkx
# ----------------------------------------------------------------------


class TestKernelParity:
    @pytest.mark.parametrize("kind", KINDS)
    def test_seeded_instances(self, kind):
        # 5 kinds x 100 seeds = 500 instances, 4 to 60 nodes.
        for seed in range(100):
            points, start = _instance(kind, seed)
            assert _kernel_order(points, start) == _oracle_order(
                points, start
            ), (kind, seed, len(points))

    @pytest.mark.parametrize("m", [120, 250])
    def test_up_to_the_cap(self, m):
        # 250 is kminmax._CHRISTOFIDES_MAX_NODES.
        for kind in ("uniform", "lattice"):
            rng = random.Random(f"cap-{kind}-{m}")
            points = _points(kind, m, rng)
            assert _kernel_order(points, m - 1) == _oracle_order(
                points, m - 1
            ), (kind, m)

    def test_smallest_kernel_instance(self):
        for seed in range(20):
            points, start = _instance("lattice", seed, low=4, high=4)
            assert _kernel_order(points, start) == _oracle_order(
                points, start
            )

    def test_every_node_once_from_start(self):
        points, start = _instance("uniform", 3)
        order = _kernel_order(points, start)
        assert order[0] == start
        assert sorted(order) == list(range(len(points)))

    def test_lower_triangle_is_never_read(self):
        points, start = _instance("lattice", 5)
        matrix = _matrix(points)
        scrambled = matrix.copy()
        lower = np.tril_indices(len(points), k=-1)
        scrambled[lower] = -1.0
        assert (
            christofides_indices(scrambled, start).tolist()
            == christofides_indices(matrix, start).tolist()
        )


def _golden_corpus():
    for kind in KINDS:
        for seed in range(20):
            yield _instance(kind, 1000 + seed)


class TestGoldenDigest:
    def test_kernel_orders_digest(self):
        orders = [
            _kernel_order(points, start)
            for points, start in _golden_corpus()
        ]
        digest = hashlib.sha256(
            json.dumps(orders, separators=(",", ":")).encode()
        ).hexdigest()
        assert digest == GOLDEN_SHA256


# ----------------------------------------------------------------------
# The public construction
# ----------------------------------------------------------------------


class TestPublicChristofidesTour:
    def test_non_depot_start(self):
        for seed in range(20):
            points, _ = _instance("uniform", seed)
            positions = dict(enumerate(points))
            nodes = list(positions)
            random.Random(seed).shuffle(nodes)
            start = nodes[len(nodes) // 2]
            assert christofides_tour(
                nodes, positions, start
            ) == nx_christofides_tour(nodes, positions, start), seed

    @pytest.mark.parametrize(
        "make_label", [lambda i: f"s{i}", lambda i: (i % 3, f"n{i}")]
    )
    def test_str_and_tuple_labels(self, make_label):
        for seed in range(20):
            points, _ = _instance("lattice", seed)
            positions = {make_label(i): p for i, p in enumerate(points)}
            nodes = list(positions)
            start = nodes[seed % len(nodes)]
            assert christofides_tour(
                nodes, positions, start
            ) == nx_christofides_tour(nodes, positions, start), seed

    def test_plain_callable_dist(self):
        for seed in range(20):
            points, _ = _instance("lattice", seed)
            positions = dict(enumerate(points))

            def manhattan(a, b):
                (ax, ay), (bx, by) = positions[a], positions[b]
                return abs(ax - bx) + abs(ay - by)

            nodes = list(positions)
            assert christofides_tour(
                nodes, positions, 0, manhattan
            ) == nx_christofides_tour(nodes, positions, 0, manhattan)

    def test_integer_valued_dist(self):
        # networkx keeps integer weights in integer arithmetic; the
        # kernel's float64 matrix holds the same small integers exactly.
        for seed in range(20):
            points, _ = _instance("lattice", seed)
            positions = dict(enumerate(points))

            def steps(a, b):
                (ax, ay), (bx, by) = positions[a], positions[b]
                return int(abs(ax - bx) + abs(ay - by)) // 10

            nodes = list(positions)
            assert christofides_tour(
                nodes, positions, 0, steps
            ) == nx_christofides_tour(nodes, positions, 0, steps)

    def test_start_outside_nodes_and_repeated_nodes(self):
        points, _ = _instance("uniform", 7)
        positions = dict(enumerate(points))
        start = len(points) - 1
        nodes = [n for n in positions if n != start] * 2
        assert christofides_tour(
            nodes, positions, start
        ) == nx_christofides_tour(nodes, positions, start)

    def test_small_instances_fall_back_to_double_mst(self):
        positions = {1: (0.0, 0.0), 2: (3.0, 4.0), 3: (6.0, 0.0)}
        for nodes in ([1], [1, 2], [1, 2, 3]):
            assert christofides_tour(
                nodes, positions, 1
            ) == nx_christofides_tour(nodes, positions, 1)


class TestBuildTspOrder:
    def test_dense_and_label_paths(self):
        depot = (500.0, 500.0)
        for seed in range(40):
            kind = KINDS[seed % len(KINDS)]
            points, _ = _instance(kind, seed, low=2, high=40)
            positions = {10 * i + 3: p for i, p in enumerate(points)}
            nodes = list(positions)
            random.Random(seed).shuffle(nodes)
            want = legacy_build_tsp_order(
                nodes, positions, depot,
                dist=DistanceCache(positions, depot),
            )
            # Dense backend (a depot-carrying cache) and label path.
            assert build_tsp_order(
                nodes, positions, depot,
                dist=DistanceCache(positions, depot),
            ) == want, (kind, seed)
            assert build_tsp_order(nodes, positions, depot) == want


# ----------------------------------------------------------------------
# The matching port
# ----------------------------------------------------------------------


def _nx_matching(weights):
    graph = nx.Graph()
    n = len(weights)
    graph.add_nodes_from(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            graph.add_edge(i, j, weight=weights[i][j])
    return {
        frozenset(edge)
        for edge in nx.max_weight_matching(graph, maxcardinality=True)
    }


def _port_matching(weights):
    mate = max_weight_matching(weights)
    for v, partner in enumerate(mate):
        if partner != UNMATCHED:
            assert mate[partner] == v
    return {
        frozenset((v, partner))
        for v, partner in enumerate(mate)
        if partner != UNMATCHED
    }


def _symmetric(n, draw):
    weights = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            weights[i][j] = weights[j][i] = draw()
    return weights


class TestMatchingPort:
    @pytest.mark.parametrize("integer", [False, True])
    def test_against_networkx(self, integer):
        for seed in range(150):
            rng = random.Random(seed)
            n = 1 + rng.randrange(24)
            if integer:
                # Few distinct values: ties everywhere.
                weights = _symmetric(n, lambda: 1 + rng.randrange(6))
            else:
                weights = _symmetric(n, lambda: rng.random() * 100.0)
            assert _port_matching(weights) == _nx_matching(weights), seed

    def test_empty_and_single_vertex(self):
        assert max_weight_matching([]) == []
        assert max_weight_matching([[0.0]]) == [UNMATCHED]

    def test_maximum_cardinality_before_weight(self):
        # Alone, {0, 1} outweighs any perfect matching; the port must
        # still match all four vertices, at the best perfect weight.
        weights = [
            [0, 100, 1, 0],
            [100, 0, 0, 1],
            [1, 0, 0, -1000],
            [0, 1, -1000, 0],
        ]
        want = {frozenset((0, 2)), frozenset((1, 3))}
        assert _port_matching(weights) == want
        assert _nx_matching(weights) == want


# ----------------------------------------------------------------------
# Through the planners
# ----------------------------------------------------------------------


def _bytes(schedule) -> str:
    return json.dumps(schedule_to_dict(schedule), sort_keys=True)


def _patch_oracle(m) -> None:
    """Route every ``build_tsp_order`` Christofides call through the
    retired networkx construction."""
    m.setattr(kminmax_module, "build_tsp_order", legacy_build_tsp_order)
    m.setattr(
        energy_budget_module, "build_tsp_order", legacy_build_tsp_order
    )


def _depleted_net(seed: int, num_sensors: int = 100):
    net = random_wrsn(num_sensors=num_sensors, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    net.set_residuals(
        {
            sid: float(rng.uniform(0.0, 0.2)) * net.sensor(sid).capacity_j
            for sid in net.all_sensor_ids()
        }
    )
    return net


class TestPlannerParity:
    def test_appro_bytes_30_seeds(self, monkeypatch):
        # Through a context and without one, K = 1..3.
        for seed in range(30):
            net = _depleted_net(seed)
            requests = net.all_sensor_ids()
            k = 1 + seed % 3
            new = run_planner("Appro", net, requests, k)
            direct, _ = appro_schedule_with_artifacts(net, requests, k)
            with monkeypatch.context() as m:
                _patch_oracle(m)
                old = run_planner("Appro", net, requests, k)
                old_direct, _ = appro_schedule_with_artifacts(
                    net, requests, k
                )
            assert _bytes(new) == _bytes(old), (seed, k)
            assert _bytes(direct) == _bytes(old_direct), (seed, k)
            assert _bytes(direct) == _bytes(new), (seed, k)

    def test_k_minmax_baseline(self, monkeypatch):
        net = _depleted_net(4, num_sensors=120)
        requests = net.all_sensor_ids()
        new = run_planner("K-minMax", net, requests, 2)
        with monkeypatch.context() as m:
            _patch_oracle(m)
            old = run_planner("K-minMax", net, requests, 2)
        assert new.tour_delays() == old.tour_delays()
        assert new.longest_delay() == old.longest_delay()

    def test_energy_constrained_tours(self, monkeypatch):
        points, _ = _instance("uniform", 11, low=40, high=40)
        positions = dict(enumerate(points))
        model = MCVEnergyModel(battery_j=5e6)
        args = (list(positions), positions, (0.0, 0.0), 3, 5.0,
                lambda v: 60.0 + v, model)
        new = solve_k_minmax_energy_constrained(*args)
        with monkeypatch.context() as m:
            _patch_oracle(m)
            old = solve_k_minmax_energy_constrained(*args)
        assert new == old
