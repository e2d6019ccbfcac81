"""The extension step of Algorithm 1 (Eqs. 7–9, 13).

After the initial ``V'_H`` tours exist, every remaining candidate
sojourn location ``u ∈ S_I \\ V'_H`` is either skipped (its disk is
already fully covered) or inserted into one of the K tours. The paper
splits a candidate's auxiliary-graph neighbourhood as
``N_H(u) = N'_H(u) ∪ N''_H(u)`` — scheduled vs not-yet-scheduled — and

* orders candidates by the *latest charging finish time among
  scheduled neighbours*, ``f_N(u)`` (Eq. 8), ascending;
* inserts ``u`` immediately after the scheduled neighbour with the
  maximum finish time (Eqs. 9 and 13 — the same argmax; cases (i) and
  (ii) differ only in whether those neighbours sit on one tour or
  several).

Inserting after the *latest-finishing* neighbour is what keeps the
construction conflict-free: by the time the MCV reaches ``u``, every
neighbouring stop whose disk could intersect ``u``'s has finished
charging.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Set, Tuple

import networkx as nx

from repro.core.schedule import ChargingSchedule


def scheduled_neighbors(
    node: int, aux_graph: nx.Graph, schedule: ChargingSchedule
) -> List[int]:
    """``N'_H(node)`` — the node's H-neighbours already on some tour."""
    return [
        nbr for nbr in aux_graph.neighbors(node) if schedule.is_scheduled(nbr)
    ]


def latest_neighbor_finish(
    node: int, aux_graph: nx.Graph, schedule: ChargingSchedule
) -> Optional[float]:
    """Eq. (8): ``f_N(node)``, or ``None`` when no neighbour is
    scheduled yet (cannot happen for the first candidate processed, by
    maximality of ``V'_H``, but can transiently for later ones)."""
    finishes = [
        schedule.finish[nbr]
        for nbr in scheduled_neighbors(node, aux_graph, schedule)
    ]
    return max(finishes) if finishes else None


def choose_insertion_anchor(
    node: int, aux_graph: nx.Graph, schedule: ChargingSchedule
) -> Tuple[int, int]:
    """Eqs. (9)/(13): the scheduled neighbour with maximum finish time.

    Returns:
        ``(tour_index, anchor_node)`` — insert ``node`` into that tour
        immediately after ``anchor_node``.

    Raises:
        ValueError: if no neighbour of ``node`` is scheduled.
    """
    candidates = scheduled_neighbors(node, aux_graph, schedule)
    if not candidates:
        raise ValueError(
            f"node {node} has no scheduled auxiliary-graph neighbour"
        )
    anchor = max(candidates, key=lambda nbr: (schedule.finish[nbr], -nbr))
    return schedule.tour_of[anchor], anchor


def insertion_case(
    node: int, aux_graph: nx.Graph, schedule: ChargingSchedule
) -> int:
    """Which case of Algorithm 1 applies to ``node``.

    Returns ``1`` when all scheduled neighbours lie on a single tour
    (case (i)), ``2`` when they span several tours (case (ii)), and
    ``0`` when none are scheduled.
    """
    tours: Set[int] = {
        schedule.tour_of[nbr]
        for nbr in scheduled_neighbors(node, aux_graph, schedule)
    }
    if not tours:
        return 0
    return 1 if len(tours) == 1 else 2


def extend_schedule(
    schedule: ChargingSchedule,
    remaining: Iterable[int],
    aux_graph: nx.Graph,
) -> Dict[int, str]:
    """Run the full extension loop of Algorithm 1 (lines 7–24).

    Candidates are drawn from ``remaining`` (``S_I \\ V'_H``); each
    iteration picks the one with the smallest ``(f_N, node)`` (Eq. 8,
    against the evolving schedule), skips it when its disk is already
    fully covered, and otherwise inserts it after its latest-finishing
    scheduled neighbour.

    The pick uses a lazy-deletion heap of ``(f_N, node)`` entries: a
    popped entry whose key is stale is pushed again with its current
    key, a current one is taken. That is exact because keys never
    decrease — an insertion only delays finish times downstream of it,
    and a newly scheduled neighbour only adds to the max in Eq. (8) —
    so every stored key is a lower bound on its node's current key.
    Floating-point rounding could in principle break the first half of
    that argument, so each insertion compares the tour's finish times
    before and after and rebuilds the heap from scratch if any
    decreased. A node with no scheduled neighbour has no key and no
    entry; it gains one when a neighbour is scheduled.

    Candidates with *no* scheduled neighbour are deferred; if at some
    point every remaining candidate is deferred and uncovered (possible
    only when ``H`` is disconnected from the scheduled core), they are
    appended to the shortest tour so coverage is never lost — a
    fallback outside the paper's narrative but required for totality.

    Returns:
        A map from each processed candidate to its outcome:
        ``"skipped"``, ``"case1"``, ``"case2"`` or ``"appended"``.
    """
    pending: Set[int] = set(remaining)
    outcome: Dict[int, str] = {}

    def keyed(nodes: Iterable[int]) -> List[Tuple[float, int]]:
        entries = []
        for node in nodes:
            key = latest_neighbor_finish(node, aux_graph, schedule)
            if key is not None:
                entries.append((key, node))
        return entries

    def push_neighbors(node: int) -> None:
        # ``node`` was just scheduled: its pending neighbours may have
        # gained their first key.
        for entry in keyed(
            nbr for nbr in aux_graph.neighbors(node) if nbr in pending
        ):
            heapq.heappush(heap, entry)

    def pop_current() -> Optional[int]:
        # The pending node with the smallest current (f_N, node), or
        # None when no pending node has a scheduled neighbour.
        while heap:
            key, node = heapq.heappop(heap)
            if node not in pending:
                continue
            current = latest_neighbor_finish(node, aux_graph, schedule)
            if current == key:
                return node
            if current is not None:
                heapq.heappush(heap, (current, node))
        return None

    heap = keyed(sorted(pending))
    heapq.heapify(heap)
    while pending:
        node = pop_current()
        if node is None:
            # No candidate touches the scheduled core: fall back.
            node = min(pending)
            pending.discard(node)
            if schedule.fully_covered(node):
                outcome[node] = "skipped"
            else:
                shortest = min(
                    range(schedule.num_tours), key=schedule.tour_delay
                )
                schedule.append_stop(shortest, node)
                outcome[node] = "appended"
                push_neighbors(node)
            continue
        pending.discard(node)
        if schedule.fully_covered(node):
            outcome[node] = "skipped"
            continue
        case = insertion_case(node, aux_graph, schedule)
        tour_index, anchor = choose_insertion_anchor(node, aux_graph, schedule)
        tour = schedule.tours[tour_index]
        downstream = tour[tour.index(anchor) + 1:]
        before = [schedule.finish[v] for v in downstream]
        schedule.insert_stop_after(tour_index, anchor, node)
        outcome[node] = f"case{case}"
        if any(
            schedule.finish[v] < was for v, was in zip(downstream, before)
        ):
            # Rounding shortened a downstream leg: stored keys may now
            # exceed current ones, so re-key everything.
            heap[:] = keyed(sorted(pending))
            heapq.heapify(heap)
        else:
            push_neighbors(node)
    return outcome
