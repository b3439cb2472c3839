"""Tests for the integer-in-the-loop MPC controller."""

from __future__ import annotations

import numpy as np
import pytest

from repro.control.integer_mpc import IntegerMPCController
from repro.control.loop import run_closed_loop
from repro.control.mpc import MPCConfig, MPCController
from repro.core.instance import DSPPInstance
from repro.prediction.naive import LastValuePredictor
from repro.prediction.oracle import OraclePredictor
from repro.simulation.scenario import build_small_scenario


@pytest.fixture
def instance():
    return DSPPInstance(
        datacenters=("dc0", "dc1"),
        locations=("v0", "v1"),
        sla_coefficients=np.array([[0.05, 0.08], [0.08, 0.05]]),
        reconfiguration_weights=np.array([0.5, 0.5]),
        capacities=np.array([100.0, 100.0]),
        initial_state=np.zeros((2, 2)),
    )


def _traces(K=10, seed=0):
    rng = np.random.default_rng(seed)
    demand = 100.0 * (1.0 + 0.3 * np.sin(2 * np.pi * np.arange(K) / 12.0))
    demand = np.vstack([demand, demand * 0.8])
    prices = np.vstack(
        [np.ones(K), 1.2 + 0.2 * np.sin(2 * np.pi * np.arange(K) / 8.0)]
    )
    return demand, prices


class TestIntegerMPC:
    def test_states_are_integral(self, instance):
        demand, prices = _traces()
        controller = IntegerMPCController(
            instance,
            OraclePredictor(demand),
            OraclePredictor(prices),
            MPCConfig(window=3),
        )
        result = run_closed_loop(controller, demand, prices)
        states = result.trajectory.states
        assert np.allclose(states, np.round(states), atol=1e-9)

    def test_demand_still_served(self, instance):
        demand, prices = _traces()
        controller = IntegerMPCController(
            instance,
            OraclePredictor(demand),
            OraclePredictor(prices),
            MPCConfig(window=3),
        )
        result = run_closed_loop(controller, demand, prices)
        # Integer rounding only ever adds capacity relative to the plan,
        # and the oracle plan covers realized demand exactly.
        assert result.total_unmet_demand == pytest.approx(0.0, abs=1e-6)

    def test_capacities_respected(self, instance):
        demand, prices = _traces()
        controller = IntegerMPCController(
            instance,
            OraclePredictor(demand),
            OraclePredictor(prices),
            MPCConfig(window=3),
        )
        result = run_closed_loop(controller, demand, prices)
        per_dc = result.trajectory.states.sum(axis=2)
        assert np.all(per_dc <= instance.capacities[None, :] + 1e-9)

    def test_cost_premium_over_continuous_is_small(self, instance):
        demand, prices = _traces()
        continuous = MPCController(
            instance,
            OraclePredictor(demand),
            OraclePredictor(prices),
            MPCConfig(window=3),
        )
        integral = IntegerMPCController(
            instance,
            OraclePredictor(demand),
            OraclePredictor(prices),
            MPCConfig(window=3),
        )
        base = run_closed_loop(continuous, demand, prices)
        rounded = run_closed_loop(integral, demand, prices)
        assert rounded.total_cost >= base.total_cost - 1e-6
        # ~10 servers per pair: rounding overhead must stay moderate.
        assert rounded.total_cost <= base.total_cost * 1.30

    def test_state_persists_between_steps(self, instance):
        demand, prices = _traces()
        controller = IntegerMPCController(
            instance,
            OraclePredictor(demand),
            OraclePredictor(prices),
            MPCConfig(window=2),
        )
        first = controller.step(demand[:, 0], prices[:, 0])
        assert controller.state == pytest.approx(first.new_state)
        second = controller.step(demand[:, 1], prices[:, 1])
        assert second.new_state == pytest.approx(
            first.new_state + second.applied_control
        )

    def test_imputation_flags_match_continuous_controller(self):
        scenario = build_small_scenario(num_periods=6, seed=1)
        demand = scenario.demand.copy()
        demand[0, 2] = np.nan
        steps = {}
        for cls in (MPCController, IntegerMPCController):
            controller = cls(
                scenario.instance,
                LastValuePredictor(scenario.instance.num_locations),
                LastValuePredictor(scenario.instance.num_datacenters),
                MPCConfig(window=2, imputation="carry_forward"),
            )
            steps[cls] = [
                controller.step(demand[:, k], scenario.prices[:, k]) for k in range(4)
            ]
        for continuous, integral in zip(steps[MPCController], steps[IntegerMPCController]):
            if continuous.imputed_demand is None:
                assert integral.imputed_demand is None
            else:
                np.testing.assert_array_equal(
                    integral.imputed_demand, continuous.imputed_demand
                )
            assert integral.imputed_prices is None and continuous.imputed_prices is None
        np.testing.assert_array_equal(
            steps[IntegerMPCController][2].imputed_demand, [True, False, False]
        )
