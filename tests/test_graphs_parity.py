"""Byte-parity of the array ``G_c``, the integer MIS core and the
row-based coverage sets against the retired ``networkx`` code.

The oracles live in ``tests/_legacy_graphs.py``. Every test here pins
that the array path changed nothing observable: the same ``networkx``
view (node order, edge insertion order, adjacency order, attributes,
weights), the same MIS for every strategy, the same coverage sets in
the same iteration order, and byte-identical schedules.
"""

import json
import math

import networkx as nx
import numpy as np
import pytest

import repro.pipeline.context as context_module
from repro.core.appro import ApproArtifacts, appro_schedule_with_artifacts
from repro.energy.charging import ChargerSpec
from repro.geometry.point import Point
from repro.graphs.analysis import disk_occupancy, structure_report
from repro.graphs.auxiliary import build_auxiliary_graph
from repro.graphs.coverage import coverage_sets
from repro.graphs.mis import maximal_independent_set
from repro.graphs.unit_disk import ChargingGraph, build_charging_graph
from repro.io import schedule_to_dict
from repro.network.nodes import BaseStation, Depot
from repro.network.sensor import Sensor
from repro.network.topology import WRSN, random_wrsn
from repro.pipeline import PlanningContext, run_planner
from tests._legacy_graphs import (
    dict_maximal_independent_set,
    loop_build_charging_graph,
    query_coverage_for,
)

STRATEGIES = ("min_degree", "lexicographic", "random")


def _bytes(schedule) -> str:
    return json.dumps(schedule_to_dict(schedule), sort_keys=True)


def _patch_oracles(m) -> None:
    """Route G_c, both MIS passes and coverage through the retired code."""
    m.setattr(
        context_module, "build_charging_graph", loop_build_charging_graph
    )
    m.setattr(
        context_module, "maximal_independent_set", dict_maximal_independent_set
    )
    m.setattr(PlanningContext, "coverage_for", query_coverage_for)


def _depleted_net(seed: int, num_sensors: int = 300):
    net = random_wrsn(num_sensors=num_sensors, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    net.set_residuals(
        {
            sid: float(rng.uniform(0.0, 0.2)) * net.sensor(sid).capacity_j
            for sid in net.all_sensor_ids()
        }
    )
    return net


def _assert_same_graph(got: nx.Graph, want: nx.Graph) -> None:
    assert list(got.nodes) == list(want.nodes)
    assert list(got.edges) == list(want.edges)
    for node in want.nodes:
        assert list(got.adj[node]) == list(want.adj[node])
        assert got.nodes[node] == want.nodes[node]
    for u, v, attrs in want.edges(data=True):
        # Exact: both sides weigh an edge with math.hypot.
        assert got[u][v] == attrs  # repro-lint: disable=float-eq


def _check_graph(positions, radius_m, nodes=None) -> ChargingGraph:
    graph = build_charging_graph(positions, radius_m, nodes=nodes)
    want = loop_build_charging_graph(positions, radius_m, nodes=nodes)
    _assert_same_graph(graph.to_networkx(positions), want)
    assert graph.number_of_edges() == want.number_of_edges()
    assert graph.degrees() == [want.degree(n) for n in want.nodes]
    rows = graph.neighbor_lists()
    for i, row in enumerate(rows):
        assert row == sorted(set(row))
        assert i not in row
        assert all(i in rows[j] for j in row)
    return graph


# ----------------------------------------------------------------------
# G_c
# ----------------------------------------------------------------------

class TestChargingGraphParity:
    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_deployments(self, seed):
        rng = np.random.default_rng(seed)
        positions = {
            int(i): Point(float(x), float(y))
            for i, (x, y) in zip(
                rng.permutation(250), rng.uniform(0, 50, size=(250, 2))
            )
        }
        subset = sorted(positions)[::2]
        for radius_m in (0.5, 2.7, 9.0):
            _check_graph(positions, radius_m)
            _check_graph(positions, radius_m, nodes=subset)

    def test_rim_and_nextafter_pairs(self):
        radius_m = 2.7
        inside = float(np.nextafter(radius_m, -np.inf))
        outside = float(np.nextafter(radius_m, np.inf))
        positions = {
            0: Point(10.0, 10.0),
            1: Point(10.0 + radius_m, 10.0),
            2: Point(10.0, 10.0 - radius_m),
            3: Point(10.0 + inside, 10.0),
            4: Point(10.0 + outside, 10.0),
            5: Point(10.0, 10.0 + outside),
        }
        rng = np.random.default_rng(11)
        for k, theta in enumerate(rng.uniform(0, 2 * np.pi, 200)):
            positions[100 + k] = Point(
                30.0 + radius_m * float(np.cos(theta)),
                30.0 + radius_m * float(np.sin(theta)),
            )
        positions[99] = Point(30.0, 30.0)
        graph = _check_graph(positions, radius_m)
        nbrs = {graph.labels[j] for j in graph.neighbor_lists()[0]}
        assert {1, 2, 3} <= nbrs and not nbrs & {4, 5}

    def test_duplicates_and_negative_coordinates(self):
        positions = {
            7: Point(-3.5, -2.0),
            3: Point(-3.5, -2.0),
            9: Point(-3.5, -2.0),
            1: Point(-1.0, -2.0),
            4: Point(0.0, 0.0),
        }
        graph = _check_graph(positions, 2.5)
        assert graph.number_of_edges() == 7

    def test_empty_and_single_node(self):
        assert len(_check_graph({}, 1.0)) == 0
        graph = _check_graph({5: Point(1.0, 2.0)}, 1.0)
        assert graph.labels == (5,)
        assert graph.degrees() == [0]
        assert len(_check_graph({5: Point(1.0, 2.0)}, 1.0, nodes=[])) == 0

    def test_rejects_non_positive_radius(self):
        with pytest.raises(ValueError):
            build_charging_graph({0: Point(0.0, 0.0)}, 0.0)


# ----------------------------------------------------------------------
# MIS
# ----------------------------------------------------------------------

class TestMisParity:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_gc_and_h_100_seeds(self, strategy):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 160))
            side = float(rng.uniform(5.0, 40.0))
            positions = {
                i: Point(float(x), float(y))
                for i, (x, y) in enumerate(rng.uniform(0, side, (n, 2)))
            }
            graph = build_charging_graph(positions, 2.7)
            oracle = loop_build_charging_graph(positions, 2.7)
            got = maximal_independent_set(graph, strategy=strategy, seed=seed)
            want = dict_maximal_independent_set(
                oracle, strategy=strategy, seed=seed
            )
            assert got == want, (strategy, seed)
            assert got == maximal_independent_set(
                graph.to_networkx(positions), strategy=strategy, seed=seed
            )
            coverage = coverage_sets(got, positions, 2.7)
            aux = build_auxiliary_graph(got, coverage, positions, 2.7)
            assert maximal_independent_set(
                aux, strategy=strategy, seed=seed
            ) == dict_maximal_independent_set(
                aux, strategy=strategy, seed=seed
            ), (strategy, seed)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_unsorted_node_order(self, strategy):
        # The heap tie-break is on node labels, not on list(nodes)
        # positions; the random order shuffles list(nodes).
        for seed in range(20):
            base = nx.gnp_random_graph(40, 0.12, seed=seed)
            labels = np.random.default_rng(seed).permutation(40).tolist()
            graph = nx.Graph()
            graph.add_nodes_from(labels)
            graph.add_edges_from(base.edges)
            assert maximal_independent_set(
                graph, strategy=strategy, seed=seed
            ) == dict_maximal_independent_set(
                graph, strategy=strategy, seed=seed
            ), (strategy, seed)


# ----------------------------------------------------------------------
# Coverage
# ----------------------------------------------------------------------

class TestCoverageParity:
    @pytest.mark.parametrize("seed", range(4))
    def test_coverage_for_matches_coverage_sets(self, seed):
        net = _depleted_net(seed, num_sensors=400)
        requests = net.all_sensor_ids()[::2]
        ctx = PlanningContext(net, requests)
        positions = net.positions()
        for cands in (ctx.sojourn_candidates(), list(ctx.requests)):
            got = PlanningContext(net, requests).coverage_for(cands)
            want = coverage_sets(cands, positions, 2.7, targets=requests)
            assert list(got) == list(want)
            for cand in want:
                # Same members and the same frozenset iteration order.
                assert list(got[cand]) == list(want[cand])

    def test_candidates_outside_the_request_set_are_rejected(self):
        net = _depleted_net(5, num_sensors=200)
        ctx = PlanningContext(net, net.all_sensor_ids()[:120])
        with pytest.raises(KeyError):
            ctx.coverage_for([150])

    def test_closed_neighborhoods_rejects_unknown_nodes(self):
        graph = build_charging_graph({0: Point(0.0, 0.0)}, 1.0)
        with pytest.raises(KeyError):
            graph.closed_neighborhoods([1])


# ----------------------------------------------------------------------
# Disk occupancy: one membership rule
# ----------------------------------------------------------------------

def _rim_pair():
    """A displacement whose np.hypot and math.hypot differ."""
    rng = np.random.default_rng(0)
    for dx, dy in rng.uniform(0.5, 3.0, size=(100_000, 2)):
        dx, dy = float(dx), float(dy)
        numpy_d, math_d = float(np.hypot(dx, dy)), math.hypot(dx, dy)
        if numpy_d != math_d:  # repro-lint: disable=float-eq
            return dx, dy
    raise AssertionError("no disagreeing pair found")


class TestDiskOccupancy:
    @pytest.mark.parametrize("use_numpy_radius", [True, False])
    def test_rim_pair_follows_gc(self, use_numpy_radius):
        dx, dy = _rim_pair()
        radius_m = (
            float(np.hypot(dx, dy)) if use_numpy_radius else math.hypot(dx, dy)
        )
        a, b = 0, 1
        net = WRSN(
            sensors=[
                # At the origin so the coordinate differences are
                # exactly (dx, dy).
                Sensor(id=a, position=Point(0.0, 0.0)),
                Sensor(id=b, position=Point(dx, dy)),
            ],
            base_station=BaseStation(position=Point(0.0, 0.0)),
            depot=Depot(position=Point(0.0, 0.0)),
        )
        graph = build_charging_graph(net.positions(), radius_m)
        edge = graph.number_of_edges() == 1
        # G_c uses np.hypot: the pair is an edge exactly when the
        # radius is the numpy distance or above.
        assert edge == (float(np.hypot(dx, dy)) <= radius_m)
        occupancy = disk_occupancy(net, [a, b], radius_m)
        assert occupancy == {a: 1 + edge, b: 1 + edge}
        report = structure_report(
            net, [a, b], charger=ChargerSpec(charge_radius_m=radius_m)
        )
        assert report.charging_graph_edges == int(edge)
        assert report.mean_occupancy == 1 + edge


# ----------------------------------------------------------------------
# Through the planners
# ----------------------------------------------------------------------

class TestPlannerParity:
    def test_appro_k1_to_k3(self, monkeypatch):
        # Through a context and without one; greedy_edge keeps 30 seeds
        # fast (the default Christofides path is covered below).
        for seed in range(30):
            net = _depleted_net(seed)
            requests = net.all_sensor_ids()
            k = 1 + seed % 3
            kwargs = {"tsp_method": "greedy_edge"}
            new = run_planner("Appro", net, requests, k, **kwargs)
            direct, _ = appro_schedule_with_artifacts(
                net, requests, k, **kwargs
            )
            with monkeypatch.context() as m:
                _patch_oracles(m)
                old = run_planner("Appro", net, requests, k, **kwargs)
            assert _bytes(new) == _bytes(old), (seed, k)
            assert _bytes(direct) == _bytes(old), (seed, k)

    @pytest.mark.parametrize(
        "planner", ["Appro", "Metaheuristic", "GreedyCover"]
    )
    def test_default_paths(self, monkeypatch, planner):
        kwargs = {"budget": 8} if planner == "Metaheuristic" else {}
        for seed in (0, 1):
            net = _depleted_net(seed)
            requests = net.all_sensor_ids()
            new = run_planner(planner, net, requests, 2, **kwargs)
            with monkeypatch.context() as m:
                _patch_oracles(m)
                old = run_planner(planner, net, requests, 2, **kwargs)
            assert _bytes(new) == _bytes(old), (planner, seed)


class TestLazyNetworkxView:
    def test_appro_with_artifacts_builds_no_gc_graph(self, monkeypatch):
        net = _depleted_net(3)
        requests = net.all_sensor_ids()

        def refuse(self, positions):
            raise AssertionError("the solve built a networkx G_c")

        shell = ApproArtifacts(None, [], None, [], 0, 0.0)
        with monkeypatch.context() as m:
            m.setattr(ChargingGraph, "to_networkx", refuse)
            plan = run_planner("Appro", net, requests, 2, artifacts=shell)
        assert plan.context._charging_graph_nx is None
        want = loop_build_charging_graph(net.positions(), 2.7, nodes=requests)
        _assert_same_graph(shell.charging_graph, want)
        assert shell.charging_graph is shell.charging_graph
        _assert_same_graph(plan.context.charging_graph, want)
