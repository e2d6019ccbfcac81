"""Byte-parity of the kd-tree ``within_bulk``, the lazy-heap step 6 and
the suffix-only finish-time recompute against the retired code.

The oracles live in ``tests/_legacy_step6.py``. Every test here pins
that the faster path changed nothing observable: the same neighbour
lists in the same order, the same insertion outcomes in the same
processing order, and byte-identical serialised schedules.
"""

import heapq
import json

import networkx as nx
import numpy as np
import pytest

import repro.core.appro as appro_module
from repro.core.appro import appro_schedule_with_artifacts
from repro.core.insertion import extend_schedule
from repro.core.schedule import ChargingSchedule
from repro.energy.charging import ChargerSpec
from repro.geometry.grid_index import GridIndex
from repro.geometry.point import Point
from repro.io import schedule_to_dict
from repro.network.topology import random_wrsn
from repro.pipeline import PlanningContext, run_planner
from tests._legacy_step6 import (
    broadcast_within_bulk,
    full_recompute_suffix,
    rescan_extend_schedule,
)


def _bytes(schedule) -> str:
    return json.dumps(schedule_to_dict(schedule), sort_keys=True)


def _patch_oracles(m) -> None:
    """Route every patched code path through its retired version."""
    m.setattr(appro_module, "extend_schedule", rescan_extend_schedule)
    m.setattr(ChargingSchedule, "_recompute_suffix", full_recompute_suffix)
    m.setattr(GridIndex, "within_bulk", broadcast_within_bulk)


def _depleted_net(seed: int, num_sensors: int = 300):
    """A seeded network with residuals uniform in [0, 20 %] of
    capacity, so every stop has a non-zero charging duration."""
    net = random_wrsn(num_sensors=num_sensors, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    net.set_residuals(
        {
            sid: float(rng.uniform(0.0, 0.2)) * net.sensor(sid).capacity_j
            for sid in net.all_sensor_ids()
        }
    )
    return net


# ----------------------------------------------------------------------
# within_bulk
# ----------------------------------------------------------------------

class TestWithinBulkParity:
    @staticmethod
    def _check(points, centers, radius_m):
        index = GridIndex(points, cell_size=max(radius_m, 1.0))
        got = index.within_bulk(centers, radius_m)
        want = broadcast_within_bulk(index, centers, radius_m)
        assert got == want
        return got

    def test_seeded_deployments(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            coords = rng.uniform(0, 60, size=(400, 2))
            points = {
                int(i): (float(x), float(y))
                for i, (x, y) in zip(rng.permutation(400), coords)
            }
            centers = [points[i] for i in points] + [
                (float(x), float(y)) for x, y in rng.uniform(-5, 65, (50, 2))
            ]
            for radius_m in (0.5, 2.7, 9.0):
                self._check(points, centers, radius_m)

    def test_points_on_the_rim(self):
        # Points placed at r along many directions land a few ulps on
        # either side of the boundary — the padding must keep them all
        # as candidates so the exact test alone decides.
        rng = np.random.default_rng(11)
        radius_m = 2.7
        centers = [(float(x), float(y)) for x, y in rng.uniform(0, 40, (30, 2))]
        points = {}
        for c, (cx, cy) in enumerate(centers):
            for k, theta in enumerate(np.linspace(0, 2 * np.pi, 40)):
                points[c * 100 + k] = (
                    cx + radius_m * float(np.cos(theta)),
                    cy + radius_m * float(np.sin(theta)),
                )
        self._check(points, centers, radius_m)

    def test_exact_radius_and_neighbouring_floats(self):
        radius_m = 2.7
        inside = float(np.nextafter(radius_m, -np.inf))
        outside = float(np.nextafter(radius_m, np.inf))
        points = {
            0: (10.0 + radius_m, 10.0),
            1: (10.0, 10.0 - radius_m),
            2: (10.0 + inside, 10.0),
            3: (10.0 + outside, 10.0),
            4: (10.0, 10.0 + outside),
            5: (13.0, 14.0),  # exactly 5 from (10, 10)
        }
        [row] = self._check(points, [(10.0, 10.0)], radius_m)
        assert row == [0, 1, 2]
        [row] = self._check(points, [(10.0, 10.0)], 5.0)
        assert row == [0, 1, 2, 3, 4, 5]
        [row] = self._check(
            points, [(10.0, 10.0)], float(np.nextafter(5.0, -np.inf))
        )
        assert row == [0, 1, 2, 3, 4]

    def test_duplicates_negative_coordinates_and_zero_radius(self):
        points = {
            7: (-3.5, -2.0),
            3: (-3.5, -2.0),
            9: (-3.5, -2.0),
            1: (-1.0, -2.0),
            4: (0.0, 0.0),
        }
        [row] = self._check(points, [(-3.5, -2.0)], 0.0)
        assert row == [7, 3, 9]  # insertion order, not label order
        [row] = self._check(points, [(-3.5, -2.0)], 2.5)
        assert row == [7, 3, 9, 1]
        assert self._check(points, [(-3.5, -2.0 + 1e-13)], 0.0) == [[]]

    def test_empty_index(self):
        assert self._check({}, [(0.0, 0.0), (1.0, 1.0)], 2.0) == [[], []]
        assert self._check({0: (0.0, 0.0)}, [], 2.0) == []

    def test_more_centers_than_one_broadcast_block(self):
        points = {i: (float(i % 40), float(i // 40)) for i in range(1300)}
        centers = [points[i] for i in range(1300)]
        got = self._check(points, centers, 3.0)
        assert len(got) == 1300

    def test_tuple_labels_stay_whole(self):
        points = {(0, 1): (0.0, 0.0), (2, 3): (1.0, 0.0), "s": (5.0, 5.0)}
        [row] = self._check(points, [(0.0, 0.0)], 1.0)
        assert row == [(0, 1), (2, 3)]

    def test_tree_is_cached(self):
        index = GridIndex({0: (0.0, 0.0), 1: (1.0, 0.0)}, cell_size=1.0)
        index.within_bulk([(0.0, 0.0)], 1.0)
        tree = index._bulk_tree
        assert tree is not None
        index.within_bulk([(1.0, 0.0)], 0.5)
        assert index._bulk_tree is tree


# ----------------------------------------------------------------------
# Step 6 through the planners
# ----------------------------------------------------------------------

class TestPlannerParity:
    def test_appro_100_seeds(self, monkeypatch):
        # One shared context per seed: the oracle run reuses the
        # memoised G_c, H and core tours, so only step 6 onward is
        # recomputed — through the retired code.
        for seed in range(100):
            net = _depleted_net(seed)
            requests = net.all_sensor_ids()
            k = 1 + seed % 3
            ctx = PlanningContext(net, requests)
            new, new_art = appro_schedule_with_artifacts(
                net, requests, k, tsp_method="greedy_edge", context=ctx
            )
            with monkeypatch.context() as m:
                _patch_oracles(m)
                old, old_art = appro_schedule_with_artifacts(
                    net, requests, k, tsp_method="greedy_edge", context=ctx
                )
            assert list(new_art.insertion_outcomes.items()) == list(
                old_art.insertion_outcomes.items()
            ), seed
            assert new_art.waits_inserted == old_art.waits_inserted
            assert _bytes(new) == _bytes(old), seed

    @pytest.mark.parametrize("planner", ["Appro", "Metaheuristic"])
    def test_default_path_against_full_oracle(self, monkeypatch, planner):
        kwargs = {"budget": 8} if planner == "Metaheuristic" else {}
        for seed in (0, 1):
            net = _depleted_net(seed)
            requests = net.all_sensor_ids()
            new = run_planner(planner, net, requests, 2, **kwargs)
            with monkeypatch.context() as m:
                _patch_oracles(m)
                old = run_planner(planner, net, requests, 2, **kwargs)
            assert _bytes(new) == _bytes(old), (planner, seed)


# ----------------------------------------------------------------------
# Step 6 on hand-made states
# ----------------------------------------------------------------------

def _pre_step6_state(monkeypatch, seed: int):
    """The schedule, candidates and H exactly as Appro hands them to
    step 6 on a seeded n = 300 instance."""
    captured = {}

    def capture(schedule, remaining, aux_graph):
        captured["schedule"] = schedule.copy()
        captured["remaining"] = list(remaining)
        captured["aux"] = aux_graph.copy()
        return extend_schedule(schedule, remaining, aux_graph)

    net = _depleted_net(seed)
    with monkeypatch.context() as m:
        m.setattr(appro_module, "extend_schedule", capture)
        appro_schedule_with_artifacts(
            net, net.all_sensor_ids(), 2, tsp_method="greedy_edge"
        )
    return captured["schedule"], captured["remaining"], captured["aux"]


def _run_both(monkeypatch, schedule, remaining, aux):
    new = schedule.copy()
    new_out = extend_schedule(new, remaining, aux)
    old = schedule.copy()
    with monkeypatch.context() as m:
        m.setattr(ChargingSchedule, "_recompute_suffix", full_recompute_suffix)
        old_out = rescan_extend_schedule(old, remaining, aux)
    return new, new_out, old, old_out


class TestExtendParity:
    def test_disconnected_h_appends(self, monkeypatch):
        schedule, remaining, aux = _pre_step6_state(monkeypatch, seed=4)
        # Cut a block of pending candidates off from the rest of H: none
        # of them can be keyed until the fallback appends one.
        cut = set(sorted(remaining)[: len(remaining) // 3])
        for u, v in list(aux.edges()):
            if (u in cut) != (v in cut):
                aux.remove_edge(u, v)
        new, new_out, old, old_out = _run_both(
            monkeypatch, schedule, remaining, aux
        )
        assert "appended" in new_out.values()
        assert list(new_out.items()) == list(old_out.items())
        assert _bytes(new) == _bytes(old)

    def test_finish_time_decrease_rebuilds_heap(self, monkeypatch):
        # A distance table that breaks the triangle inequality:
        # inserting 2 between 1 and 3 shortens tour 0, so 3's finish
        # time *drops* and with it the key of 3's neighbour 4 — below
        # the key of 5. 4 and 5 charge the same sensor 99, so whichever
        # goes first claims it and the other is skipped.
        legs = {
            frozenset({None, 1}): 10.0,
            frozenset({1, 3}): 100.0,
            frozenset({1, 2}): 1.0,
            frozenset({2, 3}): 1.0,
            frozenset({None, 6}): 50.0,
        }
        nodes = [1, 2, 3, 4, 5, 6]
        schedule = ChargingSchedule(
            depot=Point(0.0, 0.0),
            positions={n: Point(float(n), 0.0) for n in nodes},
            coverage={
                1: frozenset({1}), 2: frozenset({2}), 3: frozenset({3}),
                4: frozenset({99}), 5: frozenset({99}), 6: frozenset({6}),
            },
            charge_times={1: 1.0, 2: 1.0, 3: 1.0, 6: 1.0, 99: 1.0},
            charger=ChargerSpec(),
            num_tours=2,
            distance=lambda a, b: legs.get(frozenset({a, b}), 1000.0),
        )
        schedule.append_stop(0, 1)
        schedule.append_stop(0, 3)
        schedule.append_stop(1, 6)
        aux = nx.Graph([(2, 1), (4, 3), (5, 6)])

        heapify_calls = []
        real_heapify = heapq.heapify

        def counting_heapify(heap):
            heapify_calls.append(len(heap))
            real_heapify(heap)

        with monkeypatch.context() as m:
            m.setattr(heapq, "heapify", counting_heapify)
            new, new_out, old, old_out = _run_both(
                monkeypatch, schedule, [2, 4, 5], aux
            )
        assert len(heapify_calls) == 2  # the initial heap and one rebuild
        assert new_out == {2: "case1", 4: "case1", 5: "skipped"}
        assert list(new_out.items()) == list(old_out.items())
        assert _bytes(new) == _bytes(old)


    def test_keys_appear_after_insertion(self, monkeypatch):
        # H is the path 1 - 2 - 3 - 4 with only 1 scheduled: 3 and 4
        # gain their first key only once their predecessor is inserted.
        nodes = [1, 2, 3, 4]
        schedule = ChargingSchedule(
            depot=Point(0.0, 0.0),
            positions={n: Point(float(n), 0.0) for n in nodes},
            coverage={n: frozenset({n}) for n in nodes},
            charge_times={n: 2.0 for n in nodes},
            charger=ChargerSpec(),
            num_tours=2,
        )
        schedule.append_stop(0, 1)
        aux = nx.path_graph(nodes)
        new, new_out, old, old_out = _run_both(
            monkeypatch, schedule, [2, 3, 4], aux
        )
        assert new_out == {2: "case1", 3: "case1", 4: "case1"}
        assert list(new_out.items()) == list(old_out.items())
        assert _bytes(new) == _bytes(old)


class TestSuffixRecompute:
    def test_every_mutation_matches_full_recompute(self, monkeypatch):
        schedule, remaining, aux = _pre_step6_state(monkeypatch, seed=9)
        extend_schedule(schedule, remaining, aux)
        ops = []
        for k, tour in enumerate(schedule.tours):
            if len(tour) >= 3:
                ops.append(("wait", tour[len(tour) // 2], 7.5))
                ops.append(("remove", tour[1], k))
        for op in ops:
            if op[0] == "wait":
                schedule.add_wait(op[1], op[2])
            else:
                schedule.remove_stop(op[1])
                schedule.reinsert_stop(op[2], None, op[1])
        fresh = schedule.copy()
        for k in range(fresh.num_tours):
            full_recompute_suffix(fresh, k, 0)
        assert fresh.finish == schedule.finish
        assert fresh.arrival == schedule.arrival
