"""Instance and schedule serialization (JSON).

Reproducibility plumbing: save a :class:`~repro.network.topology.WRSN`
instance (positions, rates, battery states, infrastructure) or a
computed schedule to a JSON document, and load it back bit-exactly.
Used by the CLI to pass instances between commands and by users to
archive the exact instances behind reported numbers.

The format is versioned (``"format": "repro-wrsn/1"``) and intentionally
flat — no pickling, no code execution on load.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, Iterable, List, Union

from repro.baselines.common import BaselineSchedule
from repro.core.schedule import ChargingSchedule
from repro.energy.battery import Battery
from repro.geometry.deployment import Field
from repro.geometry.point import Point
from repro.network.nodes import BaseStation, Depot
from repro.network.sensor import Sensor
from repro.network.topology import WRSN

WRSN_FORMAT = "repro-wrsn/1"
#: v2 adds per-stop ``wait_s`` — the conflict-resolution idle inserted
#: before charging — so a consumer reconstructing a timeline can
#: distinguish a scheduled wait from slow travel without re-deriving it
#: from ``start_s - arrival_s`` float arithmetic.
SCHEDULE_FORMAT = "repro-schedule/2"
#: One planning job of the batch service (:mod:`repro.serve`): planner
#: name, request set, ``K``, and a network carried inline, by label
#: reference, or by instance-file path.
JOB_FORMAT = "repro-job/1"
#: One batch-service result: job id, status, the ``repro-schedule/2``
#: document, attempt count and cache/timing diagnostics.
RESULT_FORMAT = "repro-result/1"

PathLike = Union[str, Path]


# ----------------------------------------------------------------------
# JSON Lines
# ----------------------------------------------------------------------

def read_jsonl(path: PathLike) -> List[Dict]:
    """Read a JSON Lines file into a list of dicts (blank lines skipped).

    Raises:
        ValueError: when a non-blank line is not a JSON object.
    """
    rows: List[Dict] = []
    for lineno, line in enumerate(
        Path(path).read_text().splitlines(), start=1
    ):
        if not line.strip():
            continue
        row = json.loads(line)
        if not isinstance(row, dict):
            raise ValueError(
                f"{path}:{lineno}: expected a JSON object per line, "
                f"got {type(row).__name__}"
            )
        rows.append(row)
    return rows


def dump_jsonl_line(row: Dict) -> str:
    """One canonical JSON Lines record (sorted keys, no padding).

    The canonical form is what the parity suite byte-compares, so both
    the batch-service CLI and tests must serialize through it.
    """
    return json.dumps(row, sort_keys=True, separators=(",", ":"))


def write_jsonl(rows: Iterable[Dict], path: PathLike) -> None:
    """Write dicts to a JSON Lines file, one canonical record per line."""
    Path(path).write_text(
        "".join(dump_jsonl_line(row) + "\n" for row in rows)
    )


# ----------------------------------------------------------------------
# WRSN instances
# ----------------------------------------------------------------------

def wrsn_to_dict(network: WRSN) -> Dict:
    """Serialize a WRSN instance to a JSON-ready dict."""
    return {
        "format": WRSN_FORMAT,
        "field": {
            "width": network.field.width,
            "height": network.field.height,
        },
        "comm_range_m": network.comm_range_m,
        "base_station": list(network.base_station.position.as_tuple()),
        "depot": list(network.depot.position.as_tuple()),
        "sensors": [
            {
                "id": s.id,
                "x": s.position.x,
                "y": s.position.y,
                "capacity_j": s.battery.capacity_j,
                "level_j": s.battery.level_j,
                "data_rate_bps": s.data_rate_bps,
            }
            for s in network.sensors()
        ],
    }


def _check_finite(data: Dict) -> None:
    """Refuse NaN and ±inf in a ``repro-wrsn/1`` document by field name.

    Python's ``json`` parses ``NaN`` and ``Infinity``; such a number
    must stop at the wire, not deep inside a planner kernel.
    """
    numbers = [
        ("comm_range_m", data["comm_range_m"]),
        ("field.width", data["field"]["width"]),
        ("field.height", data["field"]["height"]),
    ]
    for name in ("base_station", "depot"):
        numbers += [(f"{name}[{j}]", v) for j, v in enumerate(data[name])]
    for i, raw in enumerate(data["sensors"]):
        numbers += [
            (f"sensors[{i}].{key}", raw[key])
            for key in ("x", "y", "capacity_j", "level_j", "data_rate_bps")
        ]
    for name, value in numbers:
        if not math.isfinite(float(value)):
            raise ValueError(f"{name} must be finite, got {value!r}")


def wrsn_from_dict(data: Dict) -> WRSN:
    """Rebuild a WRSN instance from :func:`wrsn_to_dict` output.

    Raises:
        ValueError: on a missing or unknown format tag, or a
            non-finite number (NaN, ±inf) in any field.
    """
    if data.get("format") != WRSN_FORMAT:
        raise ValueError(
            f"not a {WRSN_FORMAT} document: format={data.get('format')!r}"
        )
    _check_finite(data)
    sensors = [
        Sensor(
            id=int(raw["id"]),
            position=Point(float(raw["x"]), float(raw["y"])),
            battery=Battery(
                capacity_j=float(raw["capacity_j"]),
                level_j=float(raw["level_j"]),
            ),
            data_rate_bps=float(raw["data_rate_bps"]),
        )
        for raw in data["sensors"]
    ]
    bs = Point(*data["base_station"])
    depot = Point(*data["depot"])
    return WRSN(
        sensors=sensors,
        base_station=BaseStation(position=bs),
        depot=Depot(position=depot),
        comm_range_m=float(data["comm_range_m"]),
        field=Field(
            width=float(data["field"]["width"]),
            height=float(data["field"]["height"]),
        ),
    )


def save_wrsn(network: WRSN, path: PathLike) -> None:
    """Write a WRSN instance to a JSON file."""
    Path(path).write_text(json.dumps(wrsn_to_dict(network), indent=2))


def load_wrsn(path: PathLike) -> WRSN:
    """Read a WRSN instance from a JSON file."""
    return wrsn_from_dict(json.loads(Path(path).read_text()))


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------

def schedule_to_dict(
    schedule: Union[ChargingSchedule, BaselineSchedule],
    algorithm: str = "",
) -> Dict:
    """Serialize any schedule to a JSON-ready report dict.

    The document captures the *executable* content — per-vehicle stop
    sequences with timing and the sensors each stop charges — not the
    internal solver state; it is sufficient to drive an MCV fleet or to
    recompute every metric in :mod:`repro.sim.metrics`.
    """
    # Unwrap the pipeline's PlannedSchedule proxy, if present.
    schedule = getattr(schedule, "raw", schedule)
    if isinstance(schedule, ChargingSchedule):
        vehicles: List[Dict] = []
        for k, tour in enumerate(schedule.tours):
            stops = []
            for node in tour:
                start, finish = schedule.stop_interval(node)
                stops.append(
                    {
                        "location": node,
                        "arrival_s": schedule.arrival[node],
                        "start_s": start,
                        "wait_s": schedule.wait[node],
                        "finish_s": finish,
                        "charges": sorted(schedule.charges.get(node, ())),
                    }
                )
            vehicles.append(
                {"vehicle": k, "delay_s": schedule.tour_delay(k),
                 "stops": stops}
            )
        kind = "multi-node"
    else:
        vehicles = []
        for k, itinerary in enumerate(schedule.itineraries):
            stops = [
                {
                    "location": v.sensor_id,
                    "arrival_s": v.arrival_s,
                    "start_s": v.arrival_s,
                    # One-to-one planners never insert waits.
                    "wait_s": 0.0,
                    "finish_s": v.finish_s,
                    "charges": [v.sensor_id],
                }
                for v in itinerary
            ]
            vehicles.append(
                {"vehicle": k, "delay_s": schedule.tour_delay(k),
                 "stops": stops}
            )
        kind = "one-to-one"
    return {
        "format": SCHEDULE_FORMAT,
        "algorithm": algorithm,
        "kind": kind,
        "depot": list(schedule.depot.as_tuple()),
        "longest_delay_s": schedule.longest_delay(),
        "vehicles": vehicles,
    }


def save_schedule(
    schedule: Union[ChargingSchedule, BaselineSchedule],
    path: PathLike,
    algorithm: str = "",
) -> None:
    """Write a schedule report to a JSON file."""
    Path(path).write_text(
        json.dumps(schedule_to_dict(schedule, algorithm), indent=2)
    )


def load_schedule_report(path: PathLike) -> Dict:
    """Read a schedule report; returns the plain dict (reports are
    consumed, not re-solved).

    Raises:
        ValueError: on a wrong format tag.
    """
    data = json.loads(Path(path).read_text())
    if data.get("format") != SCHEDULE_FORMAT:
        raise ValueError(
            f"not a {SCHEDULE_FORMAT} document: format={data.get('format')!r}"
        )
    return data
