"""K-minMax: min-max K closed tours over all sensors (Liang et al.).

Paper description (Section VI-A, benchmark (iii)): find ``K``
node-disjoint closed tours visiting every to-be-charged sensor so that
the longest tour delay is minimised — the 5-approximation of Liang et
al. — but charging remains *one-to-one*: the vehicle stops at every
sensor and charges it individually.

This is the strongest baseline in the paper (it shares Appro's min-max
tour machinery) and the gap between it and ``Appro`` isolates the value
of multi-node charging: K-minMax must visit all ``|V_s|`` sensors,
Appro only ``|S_I|`` sojourn disks.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.baselines.common import (
    BaselineSchedule,
    build_itinerary,
    charge_times_for_requests,
)
from repro.energy.charging import ChargerSpec
from repro.geometry.distcache import DistanceCache
from repro.network.topology import WRSN
from repro.tours.kminmax import solve_k_minmax_tours

#: Christofides' matching step is O(n^3)-ish; over every sensor (rather
#: than Appro's far smaller sojourn set) it becomes the bottleneck, so
#: above this many requests the baseline builds its backbone with the
#: MST 2-approximation instead.
_DOUBLE_MST_ABOVE_NODES = 400


def kminmax_baseline_schedule(
    network: WRSN,
    request_ids: Sequence[int],
    num_chargers: int,
    charger: Optional[ChargerSpec] = None,
    tsp_method: str = "christofides",
    context: Optional[Any] = None,
) -> BaselineSchedule:
    """Schedule the request set with the K-minMax baseline.

    Args:
        network: the WRSN instance.
        request_ids: the to-be-charged sensors ``V_s``.
        num_chargers: ``K``.
        charger: MCV parameters (paper defaults when omitted).
        tsp_method: backbone TSP construction (see
            :func:`repro.tours.tsp.build_tsp_order`). Large request
            sets automatically fall back from Christofides to the
            2-approximation for tractability.
        context: optional ``repro.pipeline.PlanningContext`` (duck
            typed) supplying the shared distance cache, memoized
            charge times and memoized min-max tour solutions.

    Returns:
        A :class:`~repro.baselines.common.BaselineSchedule`.
    """
    if num_chargers <= 0:
        raise ValueError(f"num_chargers must be positive, got {num_chargers}")
    spec = charger if charger is not None else ChargerSpec()
    requests = sorted(set(request_ids))
    positions = network.positions()
    depot = network.depot.position
    if context is not None:
        dist = context.distance
        charge_times = context.charge_times_for(requests)
    else:
        dist = DistanceCache(positions, depot)
        charge_times = charge_times_for_requests(network, requests, spec)

    method = tsp_method
    if method == "christofides" and len(requests) > _DOUBLE_MST_ABOVE_NODES:
        method = "double_mst"

    if context is not None:
        tours, _ = context.minmax_tours(
            requests, num_chargers, charge_times, tsp_method=method
        )
    else:
        tours, _ = solve_k_minmax_tours(
            requests,
            positions,
            depot,
            num_chargers,
            spec.travel_speed_mps,
            service=lambda sid: charge_times[sid],
            tsp_method=method,
            dist=dist,
        )
    itineraries = [
        build_itinerary(tour, positions, depot, spec, charge_times, dist=dist)
        for tour in tours
    ]
    return BaselineSchedule(depot, positions, spec, itineraries, distance=dist)
