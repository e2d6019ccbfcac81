"""Tests for :mod:`repro.tours.energy_budget`."""

import math

import numpy as np
import pytest

from repro.geometry.point import Point
from repro.tours.energy_budget import (
    MCVEnergyModel,
    minimum_chargers_energy_constrained,
    solve_k_minmax_energy_constrained,
    split_tour_energy_constrained,
    tour_energy,
)
from repro.tours.splitting import split_tour_min_max

DEPOT = Point(50, 50)


def random_positions(seed, n):
    rng = np.random.default_rng(seed)
    return {
        i: Point(float(x), float(y))
        for i, (x, y) in enumerate(rng.uniform(0, 100, size=(n, 2)))
    }


class TestMCVEnergyModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            MCVEnergyModel(battery_j=0.0)
        with pytest.raises(ValueError):
            MCVEnergyModel(battery_j=1.0, travel_j_per_m=-1.0)
        with pytest.raises(ValueError):
            MCVEnergyModel(battery_j=1.0, charge_rate_w=0.0)
        with pytest.raises(ValueError):
            MCVEnergyModel(battery_j=1.0, transfer_efficiency=0.0)

    def test_energy_accounting(self):
        model = MCVEnergyModel(
            battery_j=1e6, travel_j_per_m=10.0, charge_rate_w=2.0,
            transfer_efficiency=0.5,
        )
        assert model.travel_energy(100.0) == pytest.approx(1000.0)
        # 2 W delivered at 50% efficiency: 4 W drained.
        assert model.charging_energy(100.0) == pytest.approx(400.0)

    def test_tour_energy(self):
        model = MCVEnergyModel(battery_j=1e9, travel_j_per_m=1.0,
                               charge_rate_w=2.0, transfer_efficiency=1.0)
        positions = {1: Point(60, 50)}
        energy = tour_energy([1], positions, DEPOT, model, lambda v: 50.0)
        assert energy == pytest.approx(20.0 + 100.0)

    def test_empty_tour(self):
        model = MCVEnergyModel(battery_j=1.0)
        assert tour_energy([], {}, DEPOT, model, lambda v: 0.0) == 0.0


class TestConstrainedSplit:
    def test_infinite_budget_matches_unconstrained(self):
        positions = random_positions(1, 20)
        service = lambda v: 300.0
        model = MCVEnergyModel(battery_j=1e12)
        constrained, delay_c = split_tour_energy_constrained(
            sorted(positions), 3, positions, DEPOT, 1.0, service, model
        )
        unconstrained, delay_u = split_tour_min_max(
            sorted(positions), 3, positions, DEPOT, 1.0, service
        )
        assert delay_c == pytest.approx(delay_u)
        assert constrained == unconstrained

    def test_every_tour_fits_battery(self):
        positions = random_positions(2, 25)
        service = lambda v: 500.0
        model = MCVEnergyModel(
            battery_j=15_000.0, travel_j_per_m=10.0,
            charge_rate_w=2.0, transfer_efficiency=0.5,
        )
        tours, delay = split_tour_energy_constrained(
            sorted(positions), 12, positions, DEPOT, 1.0, service, model
        )
        assert tours is not None
        for tour in tours:
            assert tour_energy(
                tour, positions, DEPOT, model, service
            ) <= model.battery_j + 1e-6

    def test_too_few_vehicles_infeasible(self):
        positions = random_positions(3, 25)
        service = lambda v: 500.0
        model = MCVEnergyModel(battery_j=15_000.0)
        tours, delay = split_tour_energy_constrained(
            sorted(positions), 1, positions, DEPOT, 1.0, service, model
        )
        assert tours is None
        assert math.isinf(delay)

    def test_single_node_busting_battery(self):
        positions = {1: Point(99, 99)}
        model = MCVEnergyModel(battery_j=10.0, travel_j_per_m=10.0)
        tours, delay = split_tour_energy_constrained(
            [1], 5, positions, DEPOT, 1.0, lambda v: 0.0, model
        )
        assert tours is None

    def test_empty_order(self):
        model = MCVEnergyModel(battery_j=1.0)
        tours, delay = split_tour_energy_constrained(
            [], 2, {}, DEPOT, 1.0, lambda v: 0.0, model
        )
        assert tours == [[], []]
        assert delay == 0.0

    def test_invalid_k(self):
        model = MCVEnergyModel(battery_j=1.0)
        with pytest.raises(ValueError):
            split_tour_energy_constrained(
                [1], 0, {1: Point(0, 0)}, DEPOT, 1.0, lambda v: 0.0,
                model,
            )


class TestSolverAndFleetSizing:
    def test_solver_covers_all_nodes(self):
        positions = random_positions(4, 30)
        service = lambda v: 200.0
        model = MCVEnergyModel(battery_j=50_000.0)
        tours, _ = solve_k_minmax_energy_constrained(
            list(positions), positions, DEPOT, 6, 1.0, service, model
        )
        assert tours is not None
        flat = sorted(n for t in tours for n in t)
        assert flat == sorted(positions)

    def test_minimum_fleet_is_minimal(self):
        positions = random_positions(5, 20)
        service = lambda v: 400.0
        model = MCVEnergyModel(
            battery_j=20_000.0, travel_j_per_m=10.0,
            charge_rate_w=2.0, transfer_efficiency=0.5,
        )
        k, tours = minimum_chargers_energy_constrained(
            list(positions), positions, DEPOT, 1.0, service, model
        )
        assert k is not None and k >= 1
        # Every tour honours the battery.
        for tour in tours:
            assert tour_energy(
                tour, positions, DEPOT, model, service
            ) <= model.battery_j + 1e-6
        # K-1 vehicles must be infeasible (minimality witness).
        if k > 1:
            fewer, _ = solve_k_minmax_energy_constrained(
                list(positions), positions, DEPOT, k - 1, 1.0, service,
                model,
            )
            assert fewer is None

    def test_impossible_instance(self):
        positions = {1: Point(99, 99)}
        model = MCVEnergyModel(battery_j=5.0, travel_j_per_m=10.0)
        k, tours = minimum_chargers_energy_constrained(
            [1], positions, DEPOT, 1.0, lambda v: 0.0, model
        )
        assert k is None and tours is None

    @pytest.mark.parametrize("ceiling", [0, -3])
    def test_non_positive_ceiling_rejected(self, ceiling):
        positions = {0: Point(40, 40), 1: Point(60, 60)}
        model = MCVEnergyModel(battery_j=1e9)
        with pytest.raises(ValueError, match="max_chargers"):
            minimum_chargers_energy_constrained(
                [0, 1], positions, DEPOT, 1.0, lambda v: 1.0, model,
                max_chargers=ceiling,
            )

    def test_empty_nodes(self):
        model = MCVEnergyModel(battery_j=1.0)
        k, tours = minimum_chargers_energy_constrained(
            [], {}, DEPOT, 1.0, lambda v: 0.0, model
        )
        assert k == 0
        assert tours == []

    def test_bigger_battery_never_more_vehicles(self):
        positions = random_positions(6, 18)
        service = lambda v: 300.0
        small = MCVEnergyModel(battery_j=25_000.0)
        large = MCVEnergyModel(battery_j=250_000.0)
        k_small, _ = minimum_chargers_energy_constrained(
            list(positions), positions, DEPOT, 1.0, service, small
        )
        k_large, _ = minimum_chargers_energy_constrained(
            list(positions), positions, DEPOT, 1.0, service, large
        )
        assert k_large <= k_small