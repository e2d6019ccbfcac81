"""Unit tests for :mod:`repro.tours.improve`."""

import signal
from contextlib import contextmanager

import numpy as np
import pytest

from repro.geometry.point import Point
from repro.tours.improve import cycle_travel_length, or_opt, two_opt


def random_instance(seed, n):
    rng = np.random.default_rng(seed)
    return {
        i: Point(float(x), float(y))
        for i, (x, y) in enumerate(rng.uniform(0, 100, size=(n, 2)))
    }


DEPOT = Point(50, 50)


@contextmanager
def deadline(seconds):
    """Fail with ``TimeoutError`` instead of hanging past ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestTwoOpt:
    def test_never_lengthens(self):
        positions = random_instance(seed=1, n=30)
        order = sorted(positions)  # arbitrary (bad) order
        before = cycle_travel_length(order, positions, DEPOT)
        improved = two_opt(order, positions, DEPOT)
        after = cycle_travel_length(improved, positions, DEPOT)
        assert after <= before + 1e-9

    def test_is_permutation(self):
        positions = random_instance(seed=2, n=25)
        order = list(positions)
        improved = two_opt(order, positions, DEPOT)
        assert sorted(improved) == sorted(order)

    def test_input_not_mutated(self):
        positions = random_instance(seed=3, n=15)
        order = list(positions)
        snapshot = list(order)
        two_opt(order, positions, DEPOT)
        assert order == snapshot

    def test_fixes_obvious_crossing(self):
        # Square visited in crossing order 0,2,1,3 -> 2-opt should
        # recover the perimeter order.
        positions = {
            0: Point(0, 0),
            1: Point(10, 0),
            2: Point(10, 10),
            3: Point(0, 10),
        }
        depot = Point(0, -5)
        improved = two_opt([0, 2, 1, 3], positions, depot)
        # The crossing order must be strictly improved, and the result
        # at least as good as the perimeter order.
        assert cycle_travel_length(improved, positions, depot) < (
            cycle_travel_length([0, 2, 1, 3], positions, depot)
        )
        assert cycle_travel_length(improved, positions, depot) <= (
            cycle_travel_length([0, 1, 2, 3], positions, depot) + 1e-9
        )

    def test_short_orders_pass_through(self):
        positions = {1: Point(0, 0), 2: Point(1, 1)}
        assert two_opt([1, 2], positions, DEPOT) == [1, 2]
        assert two_opt([], positions, DEPOT) == []


class TestOrOpt:
    def test_never_lengthens(self):
        positions = random_instance(seed=4, n=30)
        order = sorted(positions)
        before = cycle_travel_length(order, positions, DEPOT)
        improved = or_opt(order, positions, DEPOT)
        after = cycle_travel_length(improved, positions, DEPOT)
        assert after <= before + 1e-9

    def test_is_permutation(self):
        positions = random_instance(seed=5, n=20)
        improved = or_opt(list(positions), positions, DEPOT)
        assert sorted(improved) == sorted(positions)

    def test_relocates_outlier(self):
        # Points on a line, one node placed out of sequence; or-opt
        # must relocate it (a case plain 2-opt cannot fix in one move).
        positions = {i: Point(float(i), 0.0) for i in range(6)}
        depot = Point(-1, 0)
        bad = [0, 3, 1, 2, 4, 5]
        improved = or_opt(bad, positions, depot)
        assert cycle_travel_length(improved, positions, depot) <= (
            cycle_travel_length(bad, positions, depot)
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"segment_lengths": (0,)},
            {"segment_lengths": (1, -2)},
            {"min_gain": -1.0},
        ],
    )
    def test_bad_arguments_rejected_fast(self, kwargs):
        # Either argument lets a no-op move count as an improvement,
        # so the scan would never advance.
        positions = random_instance(seed=7, n=12)
        with deadline(1.0), pytest.raises(ValueError):
            or_opt(list(positions), positions, DEPOT, **kwargs)

    def test_combined_pipeline(self):
        positions = random_instance(seed=6, n=40)
        order = sorted(positions)
        step1 = two_opt(order, positions, DEPOT)
        step2 = or_opt(step1, positions, DEPOT)
        assert cycle_travel_length(step2, positions, DEPOT) <= (
            cycle_travel_length(order, positions, DEPOT)
        )


class TestCycleTravelLength:
    def test_empty(self):
        assert cycle_travel_length([], {}, DEPOT) == 0.0

    def test_single(self):
        positions = {1: Point(53, 54)}
        assert cycle_travel_length([1], positions, Point(50, 50)) == (
            pytest.approx(10.0)
        )
