"""Micro-benchmarks: one scheduling call per algorithm.

Times a single scheduling round on a fixed depleted instance
(n = 400, all requesting, K = 2) — the unit of work the monitoring
simulation repeats. Also benchmarks the main algorithmic substeps of
``Appro`` in isolation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.aa import aa_schedule
from repro.baselines.kedf import kedf_schedule
from repro.baselines.kminmax_baseline import kminmax_baseline_schedule
from repro.baselines.netwrap import netwrap_schedule
from repro.core.appro import appro_schedule
from repro.energy.charging import ChargerSpec
from repro.graphs.auxiliary import build_auxiliary_graph
from repro.graphs.coverage import coverage_sets
from repro.graphs.mis import maximal_independent_set
from repro.graphs.unit_disk import build_charging_graph
from repro.network.topology import random_wrsn

N = 400
K = 2


@pytest.fixture(scope="module")
def instance():
    net = random_wrsn(num_sensors=N, seed=77)
    rng = np.random.default_rng(78)
    net.set_residuals(
        {
            sid: float(rng.uniform(0, 0.2)) * 10_800.0
            for sid in net.all_sensor_ids()
        }
    )
    return net


def test_bench_appro(benchmark, instance):
    requests = instance.all_sensor_ids()
    result = benchmark(
        lambda: appro_schedule(instance, requests, K)
    )
    assert result.longest_delay() > 0


def test_bench_kedf(benchmark, instance):
    requests = instance.all_sensor_ids()
    result = benchmark(lambda: kedf_schedule(instance, requests, K))
    assert result.longest_delay() > 0


def test_bench_netwrap(benchmark, instance):
    requests = instance.all_sensor_ids()
    result = benchmark(lambda: netwrap_schedule(instance, requests, K))
    assert result.longest_delay() > 0


def test_bench_aa(benchmark, instance):
    requests = instance.all_sensor_ids()
    result = benchmark(
        lambda: aa_schedule(instance, requests, K, seed=0)
    )
    assert result.longest_delay() > 0


def test_bench_kminmax(benchmark, instance):
    requests = instance.all_sensor_ids()
    result = benchmark(
        lambda: kminmax_baseline_schedule(instance, requests, K)
    )
    assert result.longest_delay() > 0


def test_bench_charging_graph(benchmark, instance):
    positions = instance.positions()
    graph = benchmark(
        lambda: build_charging_graph(positions, 2.7)
    )
    assert len(graph) == N


def test_bench_mis(benchmark, instance):
    positions = instance.positions()
    graph = build_charging_graph(positions, 2.7)
    mis = benchmark(lambda: maximal_independent_set(graph))
    assert mis


def test_bench_auxiliary_graph(benchmark, instance):
    positions = instance.positions()
    graph = build_charging_graph(positions, 2.7)
    mis = maximal_independent_set(graph)
    coverage = coverage_sets(mis, positions, 2.7)
    aux = benchmark(
        lambda: build_auxiliary_graph(mis, coverage, positions, 2.7)
    )
    assert aux.number_of_nodes() == len(mis)
