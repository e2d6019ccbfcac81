"""Parity and unit tests for the array tour engine (DESIGN §16).

The engine's contract is *byte parity*: every tours function must
return exactly what the retired label-space loops return — same
orders, same split segments, same achieved-delay floats. Those loops
live on in ``tests/_legacy_tours.py`` as the oracle, mirroring how
``tests/_legacy_conflicts.py`` pins the conflict engine.
"""

import math
import random

import numpy as np
import pytest

import repro.baselines.aa as aa_module
import repro.core.metaheuristic as metaheuristic_module
import repro.tours.energy_budget as energy_budget_module
import repro.tours.kminmax as kminmax_module
from repro.geometry.distcache import DistanceCache
from repro.network.topology import random_wrsn
from repro.pipeline.planner import planner_names, run_planner
from repro.tours.arrays import (
    ArrayDistance,
    ArrayTour,
    NodeIndexCodec,
    canonical_labels,
    dense_backend,
)
from repro.tours.energy_budget import (
    MCVEnergyModel,
    split_tour_energy_constrained,
)
from repro.tours.improve import or_opt, two_opt
from repro.tours.kminmax import solve_k_minmax_tours
from repro.tours.splitting import greedy_split_with_bound, split_tour_min_max
from repro.tours.tsp import build_tsp_order
from tests._legacy_tours import (
    legacy_build_tsp_order,
    legacy_greedy_split_with_bound,
    legacy_or_opt,
    legacy_split_tour_energy_constrained,
    legacy_split_tour_min_max,
    legacy_two_opt,
)

PARITY_SEEDS = 100


def random_instance(seed, max_nodes=40, min_nodes=2):
    """One random labelled instance: positions, depot, service, cache."""
    rng = random.Random(seed)
    n = rng.randint(min_nodes, max_nodes)
    positions = {
        i: (rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0))
        for i in range(n)
    }
    depot = (rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0))
    service_map = {i: rng.uniform(1.0, 300.0) for i in range(n)}
    order = list(range(n))
    rng.shuffle(order)
    dist = DistanceCache(positions, depot)
    return rng, order, positions, depot, service_map, dist


def _legacy_routing(m) -> None:
    """Route every tour construction, local search and split the
    planners reach through the label-space oracle."""
    for module in (kminmax_module, energy_budget_module, aa_module):
        m.setattr(module, "build_tsp_order", legacy_build_tsp_order)
    for module in (kminmax_module, energy_budget_module, metaheuristic_module):
        m.setattr(module, "two_opt", legacy_two_opt)
        m.setattr(module, "or_opt", legacy_or_opt)
    for module in (kminmax_module, metaheuristic_module):
        m.setattr(module, "split_tour_min_max", legacy_split_tour_min_max)
    m.setattr(
        energy_budget_module,
        "split_tour_energy_constrained",
        legacy_split_tour_energy_constrained,
    )


class TestNodeIndexCodec:
    def test_round_trip(self):
        codec = NodeIndexCodec([7, 3, 11])
        idx = codec.encode([11, 7, 3])
        assert idx.dtype == np.int32
        assert codec.decode(idx) == [11, 7, 3]
        assert codec.depot_index == 3

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            NodeIndexCodec([1, 2, 1])

    def test_canonical_labels_sorts(self):
        assert canonical_labels([3, 1, 2]) == (1, 2, 3)


class TestDenseMatrix:
    def test_entries_match_scalar_cache(self):
        _, order, positions, depot, _, dist = random_instance(1)
        matrix = dist.dense_matrix(canonical_labels(order))
        labels = list(canonical_labels(order))
        for i, a in enumerate(labels):
            for j, b in enumerate(labels):
                assert matrix[i, j] == dist(a, b)
            assert matrix[i, len(labels)] == dist(a, None)
        assert not matrix.flags.writeable

    def test_memoized_per_label_tuple(self):
        _, order, _, _, _, dist = random_instance(2)
        key = canonical_labels(order)
        assert dist.dense_matrix(key) is dist.dense_matrix(key)

    def test_requires_depot(self):
        positions = {1: (0.0, 0.0), 2: (1.0, 0.0)}
        with pytest.raises(ValueError):
            DistanceCache(positions).dense_matrix((1, 2))

    def test_seed_dense_shape_checked(self):
        _, _, positions, depot, _, dist = random_instance(3)
        with pytest.raises(ValueError):
            dist.seed_dense((1, 2), np.zeros((2, 2)))

    def test_seed_dense_freezes_and_serves(self):
        _, order, positions, depot, _, dist = random_instance(4)
        key = canonical_labels(order)
        built = dist.dense_matrix(key)
        fresh = DistanceCache(positions, depot)
        fresh.seed_dense(key, np.array(built))  # writeable copy
        served = fresh.dense_matrix(key)
        assert not served.flags.writeable
        np.testing.assert_array_equal(served, built)


class TestDenseBackend:
    def test_gating(self):
        _, order, positions, depot, _, dist = random_instance(5)
        cached = dense_backend(dist, order)
        # A plain callable gets its matrix from one pairwise fill:
        # the same entries, each unordered pair read once.
        calls = []

        def plain(a, b):
            calls.append((a, b))
            return dist(a, b)

        filled = dense_backend(plain, order)
        assert filled.codec.labels == cached.codec.labels
        np.testing.assert_array_equal(filled.matrix, cached.matrix)
        n = len(order)
        assert len(calls) == (n + 1) * n // 2
        assert len({frozenset(pair) for pair in calls}) == len(calls)
        # A depot-less cache has no depot row; duplicates no codec.
        with pytest.raises(ValueError):
            dense_backend(DistanceCache(positions), order)
        for backend_dist in (dist, plain):
            with pytest.raises(ValueError):
                dense_backend(backend_dist, [order[0], order[0]])

    def test_build_tsp_order_rejects_duplicates(self):
        _, order, positions, depot, _, dist = random_instance(5)
        for method in ("nearest_neighbor", "greedy_edge", "christofides"):
            with pytest.raises(ValueError):
                build_tsp_order(
                    order + order[:1], positions, depot, method, dist=dist
                )

    def test_permuted_orders_share_one_matrix(self):
        _, order, _, _, _, dist = random_instance(6)
        a = dense_backend(dist, order)
        b = dense_backend(dist, sorted(order))
        for x in order:
            for y in order:
                ia, ja = a.codec.encode([x])[0], a.codec.encode([y])[0]
                ib, jb = b.codec.encode([x])[0], b.codec.encode([y])[0]
                assert a.matrix[ia, ja] == b.matrix[ib, jb]


class TestArrayTour:
    def test_prefixes_and_delay(self):
        _, order, positions, depot, service_map, dist = random_instance(7)
        dense = ArrayDistance.from_cache(dist, sorted(order))
        tour = ArrayTour.from_labels(dense, order, service_map.__getitem__)
        assert tour.labels() == order

        travel = dist(None, order[0])
        for a, b in zip(order, order[1:]):
            travel += dist(a, b)
        assert tour.travel_prefix_m[-1] == pytest.approx(travel)
        travel += dist(order[-1], None)
        assert tour.travel_length_m() == pytest.approx(travel)
        assert tour.delay_s(2.0) == pytest.approx(
            travel / 2.0 + sum(service_map[v] for v in order)
        )

    def test_empty_tour(self):
        _, order, _, _, service_map, dist = random_instance(8)
        dense = ArrayDistance.from_cache(dist, sorted(order))
        tour = ArrayTour.from_labels(dense, [], service_map.__getitem__)
        assert tour.travel_length_m() == 0.0
        assert tour.delay_s(1.0) == 0.0


class TestKernelParity:
    """Array kernels vs the label-space oracle, 100 random seeds."""

    @pytest.mark.parametrize("seed", range(PARITY_SEEDS))
    def test_two_opt_and_or_opt(self, seed):
        _, order, positions, depot, _, dist = random_instance(seed)
        legacy = legacy_two_opt(order, positions, depot, dist=dist)
        legacy = legacy_or_opt(legacy, positions, depot, dist=dist)
        fast = two_opt(order, positions, depot, dist=dist)
        fast = or_opt(fast, positions, depot, dist=dist)
        assert fast == legacy

    @pytest.mark.parametrize("seed", range(PARITY_SEEDS))
    def test_split_min_max(self, seed):
        rng, order, positions, depot, service_map, dist = random_instance(
            seed
        )
        k = rng.randint(1, 4)
        speed = rng.uniform(0.5, 3.0)
        service = service_map.__getitem__
        legacy = legacy_split_tour_min_max(
            order, k, positions, depot, speed, service, dist=dist
        )
        fast = split_tour_min_max(
            order, k, positions, depot, speed, service, dist=dist
        )
        assert fast == legacy

    @pytest.mark.parametrize("seed", range(PARITY_SEEDS))
    def test_greedy_split_with_bound(self, seed):
        rng, order, positions, depot, service_map, dist = random_instance(
            seed
        )
        speed = rng.uniform(0.5, 3.0)
        service = service_map.__getitem__
        # A bound between the single-node floor and the full-tour cost
        # exercises both feasible and infeasible outcomes.
        bound = rng.uniform(50.0, 2000.0)
        legacy = legacy_greedy_split_with_bound(
            order, bound, positions, depot, speed, service, dist=dist
        )
        fast = greedy_split_with_bound(
            order, bound, positions, depot, speed, service, dist=dist
        )
        assert fast == legacy

    @pytest.mark.parametrize("seed", range(PARITY_SEEDS))
    def test_split_energy_constrained(self, seed):
        rng, order, positions, depot, service_map, dist = random_instance(
            seed, max_nodes=25
        )
        k = rng.randint(1, 4)
        speed = rng.uniform(0.5, 3.0)
        service = service_map.__getitem__
        model = MCVEnergyModel(
            battery_j=rng.uniform(5e3, 5e5),
            travel_j_per_m=rng.uniform(1.0, 20.0),
            transfer_efficiency=rng.uniform(0.3, 1.0),
        )
        legacy = legacy_split_tour_energy_constrained(
            order, k, positions, depot, speed, service, model, dist=dist
        )
        fast = split_tour_energy_constrained(
            order, k, positions, depot, speed, service, model, dist=dist
        )
        assert fast == legacy

    @pytest.mark.parametrize("seed", range(PARITY_SEEDS))
    def test_tsp_constructions(self, seed):
        _, order, positions, depot, _, dist = random_instance(
            seed, max_nodes=30
        )
        for method in ("nearest_neighbor", "greedy_edge"):
            legacy = legacy_build_tsp_order(
                order, positions, depot, method=method, dist=dist
            )
            fast = build_tsp_order(
                order, positions, depot, method=method, dist=dist
            )
            assert fast == legacy, method

    @pytest.mark.parametrize("seed", range(20))
    def test_tsp_constructions_with_ties(self, seed):
        # Lattice points tie on distance everywhere; ids past 9 make
        # the str() tie-break differ from numeric order.
        rng = random.Random(seed)
        positions = {
            i: (10.0 * rng.randrange(4), 10.0 * rng.randrange(4))
            for i in range(rng.randint(12, 30))
        }
        depot = (10.0 * rng.randrange(4), 10.0 * rng.randrange(4))
        order = list(positions)
        rng.shuffle(order)
        dist = DistanceCache(positions, depot)
        for method in ("nearest_neighbor", "greedy_edge"):
            assert build_tsp_order(
                order, positions, depot, method=method, dist=dist
            ) == legacy_build_tsp_order(
                order, positions, depot, method=method, dist=dist
            ), method

    @pytest.mark.parametrize("seed", range(0, PARITY_SEEDS, 10))
    def test_solve_k_minmax_end_to_end(self, seed, monkeypatch):
        rng, order, positions, depot, service_map, dist = random_instance(
            seed
        )
        k = rng.randint(1, 3)
        speed = rng.uniform(0.5, 3.0)
        service = service_map.__getitem__
        for method in ("nearest_neighbor", "greedy_edge", "christofides"):
            with monkeypatch.context() as m:
                _legacy_routing(m)
                legacy = solve_k_minmax_tours(
                    order, positions, depot, k, speed, service,
                    tsp_method=method, dist=dist,
                )
            fast = solve_k_minmax_tours(
                order, positions, depot, k, speed, service,
                tsp_method=method, dist=dist,
            )
            assert fast == legacy, method


class TestPlannerParity:
    """All registered planners over the 100-seed corpus.

    Each seed draws a fresh network; ``K`` rotates through {1, 2, 3}
    so the corpus covers every fleet size with every planner. The
    objective and the per-tour delays must be byte-identical between
    the array engine and the label-space oracle.
    """

    @pytest.mark.parametrize("seed", range(PARITY_SEEDS))
    def test_all_planners(self, seed, monkeypatch):
        k = seed % 3 + 1
        network = random_wrsn(18, seed=seed, initial_fraction=0.15)
        requests = network.all_sensor_ids()[: 12 + seed % 5]
        for name in planner_names():
            with monkeypatch.context() as m:
                _legacy_routing(m)
                legacy = run_planner(name, network, requests, k)
            fast = run_planner(name, network, requests, k)
            assert fast.longest_delay() == legacy.longest_delay(), name
            assert fast.tour_delays() == legacy.tour_delays(), name


def synthetic_instance(num_nodes, seed):
    """Uniform nodes at constant density (side ``20 * sqrt(n)``), a
    central depot and 60-600 s of service per node."""
    rng = random.Random(seed)
    side = math.sqrt(num_nodes) * 20.0
    positions = {
        i: (rng.uniform(0.0, side), rng.uniform(0.0, side))
        for i in range(num_nodes)
    }
    depot = (side / 2.0, side / 2.0)
    service_map = {i: rng.uniform(60.0, 600.0) for i in range(num_nodes)}
    order = list(range(num_nodes))
    rng.shuffle(order)
    return order, positions, depot, service_map


class TestLargeInstanceParity:
    def test_local_search_and_split_500_nodes(self):
        # Bounded rounds keep the label-space oracle to a few seconds.
        order, positions, depot, service_map = synthetic_instance(500, 0)
        dist = DistanceCache(positions, depot)
        service = service_map.__getitem__
        legacy = legacy_two_opt(order, positions, depot, 2, dist=dist)
        fast = two_opt(order, positions, depot, 2, dist=dist)
        assert fast == legacy
        legacy = legacy_or_opt(
            legacy, positions, depot, max_rounds=1, dist=dist
        )
        fast = or_opt(fast, positions, depot, max_rounds=1, dist=dist)
        assert fast == legacy
        assert legacy_split_tour_min_max(
            legacy, 8, positions, depot, 1.0, service, dist=dist
        ) == split_tour_min_max(
            fast, 8, positions, depot, 1.0, service, dist=dist
        )


class TestPlainCallableDistance:
    """A plain callable ``dist`` fills the matrix pairwise; every
    result equals the one read from the depot-carrying cache."""

    @pytest.mark.parametrize("seed", range(0, PARITY_SEEDS, 5))
    def test_same_results_as_cache(self, seed):
        rng, order, positions, depot, service_map, dist = random_instance(
            seed, min_nodes=3
        )
        plain = DistanceCache(positions, depot).__call__
        service = service_map.__getitem__
        for method in (
            "nearest_neighbor", "greedy_edge", "double_mst", "christofides"
        ):
            assert build_tsp_order(
                order, positions, depot, method, dist=plain
            ) == build_tsp_order(
                order, positions, depot, method, dist=dist
            ), method
        assert two_opt(order, positions, depot, dist=plain) == two_opt(
            order, positions, depot, dist=dist
        )
        assert or_opt(order, positions, depot, dist=plain) == or_opt(
            order, positions, depot, dist=dist
        )
        k = rng.randint(1, 4)
        assert split_tour_min_max(
            order, k, positions, depot, 1.5, service, dist=plain
        ) == split_tour_min_max(
            order, k, positions, depot, 1.5, service, dist=dist
        )
