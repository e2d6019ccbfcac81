"""The benchmark's correctness gate and schedule digests.

Two checks:

* :func:`check_plan` — a :class:`repro.pipeline.PlannedSchedule` in the
  benchmark's own process must pass ``validate()`` (coverage,
  node-disjointness, no simultaneous charging), and its serialized
  form must pass the document check below.
* :func:`check_schedule_doc` — a ``repro-schedule/2`` document that
  came back from a worker process, checked from the document and the
  sensor coordinates alone: every requested sensor is charged, each
  charged sensor lies in its stop's disk, no stop repeats, each tour's
  timeline runs forward, and no requested sensor sits in two disks
  active at once on different tours.

:class:`Digest` hashes canonical schedule bytes so that runs of two
commits on one seed can be compared byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

#: Closed-interval overlap up to this many seconds is touching, not a
#: conflict (the program's own rule).
OVERLAP_EPS_S = 1e-9
#: Relative slack on the disk boundary. Membership near the boundary
#: may differ in the last bit between hypot implementations, so the
#: gate checks charged sensors against a slightly larger disk and
#: looks for conflicts only in a slightly smaller one.
BOUNDARY_REL = 1e-9


def canonical_bytes(doc: Dict) -> bytes:
    """The canonical JSON bytes of a document (sorted keys, no padding)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


class Digest:
    """SHA-256 over a sequence of schedule documents."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, data: bytes) -> None:
        self._hash.update(data)
        self._hash.update(b"\n")

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def coordinates(network) -> Dict[int, Tuple[float, float]]:
    """Sensor id -> ``(x, y)`` of a network."""
    return {s.id: (s.position.x, s.position.y) for s in network.sensors()}


def check_plan(
    plan,
    requests: Sequence[int],
    positions: Mapping[int, Tuple[float, float]],
) -> Tuple[List[str], Dict]:
    """Problems with an in-process plan (empty when it is correct) and
    its ``repro-schedule/2`` document.

    The plan's own ``validate()`` runs first; the document check then
    judges what would actually be dispatched, so a stop that is gone
    from its tour but still listed as covering its sensors fails.
    """
    from repro.io import schedule_to_dict

    doc = schedule_to_dict(plan, algorithm=plan.planner)
    problems = [
        f"{v.kind}: {v.detail}" for v in plan.validate(list(requests))
    ]
    problems += check_schedule_doc(
        doc, requests, positions, plan.context.charger.charge_radius_m
    )
    return problems, doc


def _stops(doc: Dict) -> List[Tuple[int, Dict]]:
    return [
        (vehicle["vehicle"], stop)
        for vehicle in doc["vehicles"]
        for stop in vehicle["stops"]
    ]


def check_schedule_doc(
    doc: Dict,
    requests: Sequence[int],
    positions: Mapping[int, Tuple[float, float]],
    radius_m: float,
) -> List[str]:
    """Problems with a serialized schedule; empty when it is correct."""
    problems: List[str] = []
    stops = _stops(doc)
    locations = [stop["location"] for _, stop in stops]
    if len(set(locations)) != len(locations):
        problems.append("disjointness: a stop location repeats")

    charged = set()
    for _, stop in stops:
        x0, y0 = positions[stop["location"]]
        for sid in stop["charges"]:
            x, y = positions[sid]
            if np.hypot(x - x0, y - y0) > radius_m * (1 + BOUNDARY_REL):
                problems.append(
                    f"disk: sensor {sid} is outside stop {stop['location']}"
                )
            charged.add(sid)
    missing = sorted(set(requests) - charged)
    if missing:
        problems.append(f"coverage: {len(missing)} requested sensors "
                        f"uncharged, first {missing[:5]}")

    for vehicle in doc["vehicles"]:
        clock = 0.0
        for stop in vehicle["stops"]:
            start, finish = stop["start_s"], stop["finish_s"]
            if not (
                stop["arrival_s"] >= clock
                and start >= stop["arrival_s"]
                and abs(start - stop["arrival_s"] - stop["wait_s"]) <= 1e-6
                and finish >= start
            ):
                problems.append(
                    f"timeline: stop {stop['location']} on vehicle "
                    f"{vehicle['vehicle']} runs backwards"
                )
            clock = finish

    if stops and requests:
        ids = sorted(set(requests))
        sensors = np.array([positions[s] for s in ids], dtype=float)
        centers = np.array(
            [positions[stop["location"]] for _, stop in stops], dtype=float
        )
        inside = np.hypot(
            centers[:, 0, None] - sensors[None, :, 0],
            centers[:, 1, None] - sensors[None, :, 1],
        ) < radius_m * (1 - BOUNDARY_REL)
        for col in range(len(ids)):
            members = np.nonzero(inside[:, col])[0]
            for a in range(len(members)):
                va, sa = stops[members[a]]
                for b in range(a + 1, len(members)):
                    vb, sb = stops[members[b]]
                    if va == vb:
                        continue
                    overlap = min(sa["finish_s"], sb["finish_s"]) - max(
                        sa["start_s"], sb["start_s"]
                    )
                    if overlap > OVERLAP_EPS_S:
                        problems.append(
                            f"overlap: stops {sa['location']} and "
                            f"{sb['location']} both charge sensor "
                            f"{ids[col]} for {overlap:.3f}s"
                        )
    return problems
