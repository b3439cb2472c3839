"""Tests for the exact DSPP solve (repro.core.dspp)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dspp import DSPPInfeasibleError, solve_dspp
from repro.core.instance import DSPPInstance


class TestBasicSolve:
    def test_demand_constraint_met_every_period(self, small_instance, small_demand, small_prices):
        solution = solve_dspp(small_instance, small_demand, small_prices)
        coeff = small_instance.demand_coefficients
        for t in range(small_demand.shape[1]):
            served = (coeff * solution.trajectory.states[t]).sum(axis=0)
            assert np.all(served >= small_demand[:, t] - 1e-5)

    def test_trajectory_consistent(self, small_instance, small_demand, small_prices):
        solution = solve_dspp(small_instance, small_demand, small_prices)
        # Trajectory construction itself validates the state equation;
        # additionally the first state must equal x0 + u0.
        assert solution.trajectory.states[0] == pytest.approx(
            small_instance.initial_state + solution.trajectory.controls[0]
        )

    def test_objective_matches_cost_audit(self, small_instance, small_demand, small_prices):
        solution = solve_dspp(small_instance, small_demand, small_prices)
        assert solution.objective == pytest.approx(solution.costs.total)

    def test_states_nonnegative(self, small_instance, small_demand, small_prices):
        solution = solve_dspp(small_instance, small_demand, small_prices)
        assert np.all(solution.trajectory.states >= 0)

    def test_first_control_shape(self, small_instance, small_demand, small_prices):
        solution = solve_dspp(small_instance, small_demand, small_prices)
        assert solution.first_control.shape == (2, 2)


class TestOptimalityStructure:
    def test_prefers_cheaper_datacenter(self):
        # Symmetric SLA, dc1 twice as expensive: all load must go to dc0.
        instance = DSPPInstance(
            datacenters=("cheap", "dear"),
            locations=("v",),
            sla_coefficients=np.array([[0.1], [0.1]]),
            reconfiguration_weights=np.array([0.01, 0.01]),
            capacities=np.full(2, np.inf),
            initial_state=np.zeros((2, 1)),
        )
        solution = solve_dspp(
            instance, np.full((1, 4), 100.0), np.tile([[1.0], [2.0]], (1, 4))
        )
        servers = solution.trajectory.servers_per_datacenter()[-1]
        assert servers[0] > 9.0
        assert servers[1] == pytest.approx(0.0, abs=1e-3)

    def test_capacity_forces_spill(self):
        instance = DSPPInstance(
            datacenters=("cheap", "dear"),
            locations=("v",),
            sla_coefficients=np.array([[0.1], [0.1]]),
            reconfiguration_weights=np.array([0.01, 0.01]),
            capacities=np.array([5.0, np.inf]),
            initial_state=np.zeros((2, 1)),
        )
        solution = solve_dspp(
            instance, np.full((1, 3), 100.0), np.tile([[1.0], [2.0]], (1, 3))
        )
        servers = solution.trajectory.servers_per_datacenter()[-1]
        assert servers[0] == pytest.approx(5.0, abs=1e-4)
        assert servers[1] == pytest.approx(5.0, abs=1e-3)

    def test_binding_capacity_has_positive_dual(self):
        instance = DSPPInstance(
            datacenters=("cheap", "dear"),
            locations=("v",),
            sla_coefficients=np.array([[0.1], [0.1]]),
            reconfiguration_weights=np.array([0.01, 0.01]),
            capacities=np.array([5.0, np.inf]),
            initial_state=np.zeros((2, 1)),
        )
        solution = solve_dspp(
            instance, np.full((1, 3), 100.0), np.tile([[1.0], [2.0]], (1, 3))
        )
        assert solution.capacity_duals[-1, 0] > 1e-4
        assert solution.capacity_duals[-1, 1] == pytest.approx(0.0, abs=1e-6)

    def test_reconfiguration_weight_slows_ramp_down(self):
        # Demand drops sharply; heavier c must leave more servers behind.
        demand = np.concatenate([np.full((1, 2), 100.0), np.full((1, 4), 10.0)], axis=1)
        prices = np.ones((1, 6))

        def _solve(c):
            instance = DSPPInstance(
                datacenters=("dc",),
                locations=("v",),
                sla_coefficients=np.array([[0.1]]),
                reconfiguration_weights=np.array([c]),
                capacities=np.array([np.inf]),
                initial_state=np.array([[10.0]]),
            )
            return solve_dspp(instance, demand, prices)

        light = _solve(0.01).trajectory.states[3, 0, 0]
        heavy = _solve(5.0).trajectory.states[3, 0, 0]
        assert heavy > light


class TestInfeasibility:
    def test_demand_over_capacity_raises(self, small_instance):
        demand = np.full((2, 3), 1e5)
        prices = np.ones((2, 3))
        with pytest.raises(DSPPInfeasibleError):
            solve_dspp(small_instance, demand, prices)

    def test_elastic_mode_stays_solvable(self, small_instance):
        demand = np.full((2, 3), 1e5)
        prices = np.ones((2, 3))
        solution = solve_dspp(
            small_instance, demand, prices, demand_slack_penalty=100.0
        )
        assert solution.demand_slack.sum() > 0
        # Capacity should be saturated before slack is used.
        per_dc = solution.trajectory.servers_per_datacenter()[-1]
        assert per_dc == pytest.approx(small_instance.capacities, rel=1e-3)


class TestElastic:
    def test_zero_slack_when_feasible(self, small_instance, small_demand, small_prices):
        solution = solve_dspp(
            small_instance, small_demand, small_prices, demand_slack_penalty=1e4
        )
        assert solution.demand_slack.sum() == pytest.approx(0.0, abs=1e-4)

    def test_objective_includes_penalty(self, small_instance):
        demand = np.full((2, 2), 1e5)
        prices = np.ones((2, 2))
        solution = solve_dspp(
            small_instance, demand, prices, demand_slack_penalty=50.0
        )
        assert solution.objective == pytest.approx(
            solution.costs.total + 50.0 * solution.demand_slack.sum(), rel=1e-6
        )

