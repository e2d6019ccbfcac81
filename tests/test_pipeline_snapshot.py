"""Pickling/snapshotting of a warm :class:`PlanningContext`.

The batch service ships warm contexts across process boundaries as
:class:`ContextSnapshot` captures. These tests pin the round trip: a
snapshot pickles, restores onto the original network or a structurally
identical copy, keeps every memoized field, and a restored context
produces byte-identical planner output while answering warm queries
from its memos.
"""

import pickle

import pytest

from repro.io import (
    dump_jsonl_line,
    schedule_to_dict,
    wrsn_from_dict,
    wrsn_to_dict,
)
from repro.network.topology import random_wrsn
from repro.pipeline import (
    PlanningContext,
    restore_context,
    run_planner,
    snapshot_context,
)


@pytest.fixture
def net():
    return random_wrsn(num_sensors=40, seed=17)


@pytest.fixture
def warm(net):
    """A context warmed by a full Appro + K-minMax run."""
    requests = net.all_sensor_ids()[:24]
    ctx = PlanningContext(net, requests)
    run_planner("Appro", net, requests, 2, context=ctx)
    ctx2 = PlanningContext(net, requests)
    run_planner("K-minMax", net, requests, 2, context=ctx2)
    # Fold the second planner's memos in by re-running on ctx so one
    # context holds both planners' state.
    run_planner("K-minMax", net, requests, 2, context=ctx)
    return ctx


class TestRoundTrip:
    def test_snapshot_pickles(self, warm):
        snap = snapshot_context(warm)
        clone = pickle.loads(pickle.dumps(snap))
        assert clone.requests == warm.requests
        assert clone.charger == warm.charger
        assert clone.charge_times == snap.charge_times
        assert clone.minmax == snap.minmax

    def test_memos_survive_restore(self, net, warm):
        snap = pickle.loads(pickle.dumps(snapshot_context(warm)))
        restored = restore_context(snap, net)
        assert restored._charge_times == warm._charge_times
        assert restored._coverage == warm._coverage
        assert restored._core == warm._core
        assert restored._minmax == warm._minmax
        assert restored._charging_graph.labels == warm._charging_graph.labels
        for field in ("indptr", "indices"):
            assert (
                getattr(restored._charging_graph, field).tobytes()
                == getattr(warm._charging_graph, field).tobytes()
            )
        assert list(restored.charging_graph.edges(data=True)) == list(
            warm.charging_graph.edges(data=True)
        )
        for key, graph in warm._aux.items():
            assert list(restored._aux[key].nodes) == list(graph.nodes)
            assert list(restored._aux[key].edges) == list(graph.edges)

    def test_restored_context_is_consistent_with_fresh_build(
        self, net, warm
    ):
        requests = warm.requests
        snap = snapshot_context(warm)
        restored = restore_context(snap, net)
        fresh = PlanningContext(net, requests)
        for planner in ("Appro", "K-minMax", "GreedyCover"):
            a = run_planner(planner, net, requests, 2, context=restored)
            b = run_planner(planner, net, requests, 2, context=fresh)
            assert dump_jsonl_line(
                schedule_to_dict(a, algorithm=planner)
            ) == dump_jsonl_line(schedule_to_dict(b, algorithm=planner))

    def test_restored_context_answers_from_memos(self, net, warm):
        snap = snapshot_context(warm)
        restored = restore_context(snap, net)
        assert restored.memo_misses == 0
        restored.sojourn_candidates()
        restored.coverage_for(restored.sojourn_candidates())
        for sid in restored.requests:
            restored.charge_time(sid)
        # Every query above was warmed by the snapshot.
        assert restored.memo_misses == 0
        assert restored.memo_hits > 0

    def test_restore_onto_serialized_copy(self, net, warm):
        copy = wrsn_from_dict(wrsn_to_dict(net))
        snap = pickle.loads(pickle.dumps(snapshot_context(warm)))
        restored = restore_context(snap, copy)
        a = run_planner(
            "Appro", copy, warm.requests, 2, context=restored
        )
        b = run_planner("Appro", net, warm.requests, 2)
        assert dump_jsonl_line(
            schedule_to_dict(a, algorithm="Appro")
        ) == dump_jsonl_line(schedule_to_dict(b, algorithm="Appro"))


class TestEdgeCases:
    def test_cold_snapshot_restores_lazily(self, net):
        requests = net.all_sensor_ids()[:10]
        ctx = PlanningContext(net, requests)
        restored = restore_context(snapshot_context(ctx), net)
        # Nothing was memoized; the restored context computes lazily
        # and matches a fresh one.
        assert restored.sojourn_candidates() == PlanningContext(
            net, requests
        ).sojourn_candidates()

    def test_unknown_requests_rejected(self, net, warm):
        snap = snapshot_context(warm)
        other = random_wrsn(num_sensors=5, seed=1)
        with pytest.raises(ValueError, match="request ids"):
            restore_context(snap, other)

    def test_christofides_without_local_search_ships_matrix(self, net):
        # Christofides reads the dense matrix even with improve=False,
        # so the snapshot must carry it and a restored context must
        # plan from it to the same bytes.
        requests = net.all_sensor_ids()[:24]
        nodes = requests[:14]
        service = {v: 60.0 + v for v in nodes}
        ctx = PlanningContext(net, requests)
        tours, delay = ctx.minmax_tours(
            nodes, 2, service, tsp_method="christofides", improve=False
        )
        key = tuple(sorted(nodes))
        snap = pickle.loads(pickle.dumps(snapshot_context(ctx)))
        assert list(snap.dense) == [key]
        assert (
            snap.dense[key].tobytes()
            == ctx.distance.dense_matrix(key).tobytes()
        )
        restored = restore_context(snap, net, share_distances=False)
        assert restored._dense_matrices[key].tobytes() == (
            snap.dense[key].tobytes()
        )
        # K = 2 answers from the memo; K = 3 plans on the shipped matrix.
        cold = PlanningContext(net, requests)
        for k in (2, 3):
            got = restored.minmax_tours(
                nodes, k, service, tsp_method="christofides", improve=False
            )
            want = cold.minmax_tours(
                nodes, k, service, tsp_method="christofides", improve=False
            )
            assert got == want
        assert restored.minmax_tours(
            nodes, 2, service, tsp_method="christofides", improve=False
        ) == (tours, delay)
        assert restored.stats()["dense_matrices"] == 1

    def test_share_distances_flag(self, net, warm):
        snap = snapshot_context(warm)
        isolated = restore_context(snap, net, share_distances=False)
        shared = restore_context(snap, net, share_distances=True)
        assert isolated.distance is not shared.distance
        assert (
            restore_context(snap, net, share_distances=True).distance
            is shared.distance
        )
