"""Retired G_c and step-6 implementations, kept as test oracles.

These are the pre-kd-tree and pre-heap code paths verbatim: the
broadcast ``GridIndex.within_bulk`` (every block of centers against
every point, O(n·m)), the rescan ``extend_schedule`` (re-key and
re-sort every pending candidate on each iteration) and the full-tour
finish-time recompute that every ``ChargingSchedule`` mutation ran.
``tests/test_step6_parity.py`` pins the production code against them —
identical neighbour lists in identical order, identical insertion
outcomes, byte-identical schedules.

They exist *only* as references; production code must never import
this module.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set

import networkx as nx
import numpy as np

from repro.core.insertion import (
    choose_insertion_anchor,
    insertion_case,
    latest_neighbor_finish,
)
from repro.core.schedule import ChargingSchedule
from repro.geometry.grid_index import GridIndex
from repro.geometry.point import PointLike

#: Centers per broadcast block in :func:`broadcast_within_bulk`.
_BULK_CHUNK = 512


def broadcast_within_bulk(
    index: GridIndex, centers: Sequence[PointLike], radius_m: float
) -> List[List[Hashable]]:
    """The retired ``GridIndex.within_bulk``: one broadcast per block."""
    if radius_m < 0:
        raise ValueError(f"radius must be non-negative, got {radius_m}")
    labels = list(index.labels())
    coords = np.asarray(
        [index.position(lab) for lab in labels], dtype=float
    ).reshape(-1, 2)
    centers_arr = np.asarray(
        [(float(c[0]), float(c[1])) for c in centers], dtype=float
    ).reshape(-1, 2)
    out: List[List[Hashable]] = []
    if len(labels) == 0:
        return [[] for _ in range(len(centers_arr))]
    for start in range(0, len(centers_arr), _BULK_CHUNK):
        block = centers_arr[start:start + _BULK_CHUNK]
        dists = np.hypot(
            block[:, 0, None] - coords[None, :, 0],
            block[:, 1, None] - coords[None, :, 1],
        )
        for row in dists <= radius_m:
            out.append([labels[i] for i in np.nonzero(row)[0]])
    return out


def full_recompute_finish_times(
    schedule: ChargingSchedule, tour_index: int
) -> None:
    """The retired ``ChargingSchedule.recompute_finish_times``: the
    whole tour from the depot, after every mutation."""
    clock = 0.0
    prev: Optional[int] = None
    for node in schedule.tours[tour_index]:
        clock += schedule.travel_time(prev, node)
        schedule.arrival[node] = clock
        clock += schedule.wait[node] + schedule.duration[node]
        schedule.finish[node] = clock
        prev = node


def full_recompute_suffix(
    schedule: ChargingSchedule, tour_index: int, start: int
) -> None:
    """Drop-in for ``ChargingSchedule._recompute_suffix`` that ignores
    ``start`` — patching it in restores the full-tour recompute on
    every mutating method."""
    full_recompute_finish_times(schedule, tour_index)


def full_recompute_insert_stop_after(
    schedule: ChargingSchedule,
    tour_index: int,
    anchor: Optional[int],
    node: int,
) -> None:
    """The retired ``ChargingSchedule.insert_stop_after``."""
    schedule._check_new_node(node)
    if anchor is not None and schedule.tour_of.get(anchor) != tour_index:
        raise ValueError(
            f"anchor {anchor} is not on tour {tour_index}"
        )
    schedule.duration[node] = schedule.residual_duration(node)
    schedule._claim_coverage(node)
    tour = schedule.tours[tour_index]
    idx = 0 if anchor is None else tour.index(anchor) + 1
    tour.insert(idx, node)
    schedule.tour_of[node] = tour_index
    schedule.wait[node] = 0.0
    full_recompute_finish_times(schedule, tour_index)


def full_recompute_append_stop(
    schedule: ChargingSchedule, tour_index: int, node: int
) -> None:
    """The retired ``ChargingSchedule.append_stop``."""
    schedule._check_new_node(node)
    schedule.duration[node] = schedule.residual_duration(node)
    schedule._claim_coverage(node)
    schedule.tours[tour_index].append(node)
    schedule.tour_of[node] = tour_index
    schedule.wait[node] = 0.0
    full_recompute_finish_times(schedule, tour_index)


def rescan_extend_schedule(
    schedule: ChargingSchedule,
    remaining: Iterable[int],
    aux_graph: nx.Graph,
) -> Dict[int, str]:
    """The retired ``core.insertion.extend_schedule``: every pending
    candidate re-keyed and sorted on each iteration, every insertion
    followed by a full-tour recompute."""
    pending: Set[int] = set(remaining)
    outcome: Dict[int, str] = {}
    while pending:
        keyed = [
            (node, latest_neighbor_finish(node, aux_graph, schedule))
            for node in sorted(pending)
        ]
        with_neighbors = [(n, f) for n, f in keyed if f is not None]
        if with_neighbors:
            node, _ = min(with_neighbors, key=lambda pair: (pair[1], pair[0]))
        else:
            # No candidate touches the scheduled core: fall back.
            node = min(pending)
            pending.discard(node)
            if schedule.fully_covered(node):
                outcome[node] = "skipped"
            else:
                shortest = min(
                    range(schedule.num_tours), key=schedule.tour_delay
                )
                full_recompute_append_stop(schedule, shortest, node)
                outcome[node] = "appended"
            continue
        pending.discard(node)
        if schedule.fully_covered(node):
            outcome[node] = "skipped"
            continue
        case = insertion_case(node, aux_graph, schedule)
        tour_index, anchor = choose_insertion_anchor(node, aux_graph, schedule)
        full_recompute_insert_stop_after(schedule, tour_index, anchor, node)
        outcome[node] = f"case{case}"
    return outcome
