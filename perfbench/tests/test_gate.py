import copy

import numpy as np
import pytest

from perfbench import gate


@pytest.fixture(scope="module")
def planned():
    from repro.network.topology import random_wrsn
    from repro.pipeline import run_planner

    net = random_wrsn(num_sensors=120, seed=4)
    rng = np.random.default_rng(1)
    net.set_residuals({
        sid: float(rng.uniform(0.0, 0.2)) * net.sensor(sid).capacity_j
        for sid in net.all_sensor_ids()
    })
    requests = tuple(net.all_sensor_ids())
    plan = run_planner("Appro", net, requests, 2)
    return plan, requests, gate.coordinates(net)


def test_a_planned_schedule_passes(planned):
    plan, requests, positions = planned
    problems, doc = gate.check_plan(plan, requests, positions)
    assert problems == []
    assert doc["format"] == "repro-schedule/2"


def test_gate_rejects_a_schedule_with_a_dropped_stop(planned):
    plan, requests, positions = planned
    raw = copy.copy(plan)
    raw.raw = plan.raw.copy()
    stop = next(node for node in raw.raw.scheduled_stops()
                if raw.raw.charges.get(node))
    # The stop leaves its tour but keeps claiming its sensors, so the
    # schedule's own bookkeeping still reports them covered.
    raw.raw.remove_stop(stop)
    assert stop not in raw.raw.scheduled_stops()
    problems, _ = gate.check_plan(raw, requests, positions)
    assert any(p.startswith("coverage") for p in problems)


def test_document_check_rejects_a_missing_stop(planned):
    plan, requests, positions = planned
    _, doc = gate.check_plan(plan, requests, positions)
    broken = copy.deepcopy(doc)
    for vehicle in broken["vehicles"]:
        if vehicle["stops"]:
            vehicle["stops"].pop()
            break
    problems = gate.check_schedule_doc(broken, requests, positions, 2.7)
    assert any(p.startswith("coverage") for p in problems)


def _doc(stops_by_vehicle):
    return {"vehicles": [
        {"vehicle": k, "stops": stops}
        for k, stops in enumerate(stops_by_vehicle)
    ]}


def _stop(location, start, finish, charges):
    return {"location": location, "arrival_s": start, "start_s": start,
            "wait_s": 0.0, "finish_s": finish, "charges": charges}


def test_document_check_finds_simultaneous_charging():
    positions = {1: (0.0, 0.0), 2: (2.0, 0.0), 3: (1.0, 0.0)}
    overlapping = _doc([[_stop(1, 0.0, 10.0, [1, 3])],
                        [_stop(2, 5.0, 15.0, [2])]])
    problems = gate.check_schedule_doc(overlapping, [1, 2, 3], positions, 2.7)
    assert any(p.startswith("overlap") for p in problems)
    touching = _doc([[_stop(1, 0.0, 10.0, [1, 3])],
                     [_stop(2, 10.0, 15.0, [2])]])
    assert gate.check_schedule_doc(touching, [1, 2, 3], positions, 2.7) == []


def test_document_check_finds_far_charges_repeats_and_backward_time():
    positions = {1: (0.0, 0.0), 2: (50.0, 0.0)}
    far = _doc([[_stop(1, 0.0, 10.0, [1, 2])]])
    assert any(p.startswith("disk") for p in
               gate.check_schedule_doc(far, [1, 2], positions, 2.7))
    repeated = _doc([[_stop(1, 0.0, 1.0, [1])], [_stop(1, 2.0, 3.0, [])]])
    assert any(p.startswith("disjointness") for p in
               gate.check_schedule_doc(repeated, [1], positions, 2.7))
    backwards = _doc([[_stop(1, 5.0, 4.0, [1])]])
    assert any(p.startswith("timeline") for p in
               gate.check_schedule_doc(backwards, [1], positions, 2.7))


def test_digest_depends_on_every_document_and_their_order():
    a, b = gate.canonical_bytes({"x": 1}), gate.canonical_bytes({"y": 2})
    d1, d2, d3 = gate.Digest(), gate.Digest(), gate.Digest()
    for d, docs in ((d1, [a, b]), (d2, [a, b]), (d3, [b, a])):
        for doc in docs:
            d.add(doc)
    assert d1.hexdigest() == d2.hexdigest() != d3.hexdigest()
    assert gate.canonical_bytes({"b": 1, "a": 2}) == b'{"a":2,"b":1}'
