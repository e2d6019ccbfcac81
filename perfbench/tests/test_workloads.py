import pytest

from perfbench import daemon_drift
from perfbench.common import repeat_for


@pytest.fixture(scope="module")
def networks():
    from repro.bench.workloads import PaperParams, make_instance

    params = PaperParams(num_sensors=daemon_drift.NUM_SENSORS)
    return [make_instance(params, k) for k in range(3)], params.capacity_j


def test_daemon_job_stream_is_a_function_of_the_seed(networks):
    nets, capacity = networks
    a = daemon_drift.build_jobs(5, nets, capacity, (40, 60))
    b = daemon_drift.build_jobs(5, nets, capacity, (40, 60))
    c = daemon_drift.build_jobs(6, nets, capacity, (40, 60))
    key = [(j.phase, j.network, j.requests, j.levels.tobytes()) for j in a]
    assert key == [(j.phase, j.network, j.requests, j.levels.tobytes())
                   for j in b]
    assert key != [(j.phase, j.network, j.requests, j.levels.tobytes())
                   for j in c]


def test_daemon_job_stream_mixes_fresh_sets_and_drifted_replans(networks):
    nets, capacity = networks
    jobs = daemon_drift.build_jobs(5, nets, capacity, (40, 60))
    assert [j.phase for j in jobs] == ["low"] * 40 + ["high"] * 60
    replans = [j for j in jobs if j.replan]
    assert 0.15 <= len(replans) / len(jobs) <= daemon_drift.REPLAN_SHARE
    fresh = [j for j in jobs if not j.replan]
    sizes = [len(j.requests) for j in fresh]
    assert min(sizes) >= daemon_drift.MIN_SIZE
    assert max(sizes) <= daemon_drift.MAX_SIZE
    seen = {(j.network, j.requests) for j in fresh}
    assert all((j.network, j.requests) in seen for j in replans)
    # Residuals only drain between jobs of one network.
    for k in range(len(nets)):
        mine = [j for j in jobs if j.network == k]
        for before, after in zip(mine, mine[1:]):
            untouched = [i for i in range(len(after.levels))
                         if i not in after.requests]
            assert (after.levels[untouched] <= before.levels[untouched]).all()


def test_repeat_for_runs_the_minimum_then_stops_before_the_deadline():
    now = [0.0]

    def clock():
        return now[0]

    def unit(i):
        now[0] += 3.0
        return 3.0

    assert len(repeat_for(10.0, 1, unit, clock)) == 3
    now[0] = 0.0
    assert len(repeat_for(1.0, 2, unit, clock)) == 2
