"""Tests for the control package (horizon, mpc, loop)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.control.horizon import effective_horizon, forecast_window
from repro.control.loop import run_closed_loop
from repro.control.mpc import MPCConfig, MPCController
from repro.core.instance import DSPPInstance
from repro.prediction.naive import LastValuePredictor
from repro.prediction.oracle import OraclePredictor


@pytest.fixture
def single_pair_instance():
    return DSPPInstance(
        datacenters=("dc",),
        locations=("v",),
        sla_coefficients=np.array([[0.1]]),
        reconfiguration_weights=np.array([1.0]),
        capacities=np.array([np.inf]),
        initial_state=np.array([[10.0]]),
    )


class TestEffectiveHorizon:
    def test_infinite_run(self):
        assert effective_horizon(5, 100, None) == 5

    def test_clamped_near_the_end(self):
        assert effective_horizon(5, 8, 10) == 2

    def test_zero_when_done(self):
        assert effective_horizon(5, 10, 10) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            effective_horizon(0, 0, None)
        with pytest.raises(ValueError):
            effective_horizon(1, -1, None)


class TestForecastWindow:
    def test_plain_slice(self):
        truth = np.arange(10, dtype=float).reshape(1, 10)
        window = forecast_window(truth, 3, 4)
        assert window[0] == pytest.approx([3.0, 4.0, 5.0, 6.0])

    def test_extends_last_column(self):
        truth = np.arange(4, dtype=float).reshape(1, 4)
        window = forecast_window(truth, 2, 5)
        assert window[0] == pytest.approx([2.0, 3.0, 3.0, 3.0, 3.0])

    def test_validation(self):
        truth = np.ones((1, 3))
        with pytest.raises(ValueError):
            forecast_window(truth, -1, 2)
        with pytest.raises(ValueError):
            forecast_window(truth, 0, 0)
        with pytest.raises(ValueError):
            forecast_window(np.empty((1, 0)), 0, 1)


class TestMPCConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MPCConfig(window=0)
        with pytest.raises(ValueError):
            MPCConfig(slack_penalty=0.0)


class TestMPCController:
    def test_dimension_checks(self, single_pair_instance):
        with pytest.raises(ValueError, match="demand predictor"):
            MPCController(
                single_pair_instance, LastValuePredictor(2), LastValuePredictor(1)
            )
        with pytest.raises(ValueError, match="price predictor"):
            MPCController(
                single_pair_instance, LastValuePredictor(1), LastValuePredictor(2)
            )

    def test_step_applies_only_first_move(self, single_pair_instance):
        demand = np.full((1, 10), 200.0)
        prices = np.ones((1, 10))
        controller = MPCController(
            single_pair_instance,
            OraclePredictor(demand),
            OraclePredictor(prices),
            MPCConfig(window=4),
        )
        step = controller.step(demand[:, 0], prices[:, 0])
        assert step.new_state == pytest.approx(
            single_pair_instance.initial_state + step.applied_control
        )
        assert controller.state == pytest.approx(step.new_state)
        assert controller.period == 1

    def test_tracks_rising_demand(self, single_pair_instance):
        demand = np.linspace(100.0, 400.0, 8).reshape(1, 8)
        prices = np.ones((1, 8))
        controller = MPCController(
            single_pair_instance,
            OraclePredictor(demand),
            OraclePredictor(prices),
            MPCConfig(window=3),
        )
        states = []
        for k in range(6):
            states.append(controller.step(demand[:, k], prices[:, k]).new_state[0, 0])
        assert states == sorted(states)

    def test_set_capacities(self, single_pair_instance):
        controller = MPCController(
            single_pair_instance, LastValuePredictor(1), LastValuePredictor(1)
        )
        controller.set_capacities(np.array([42.0]))
        assert controller.instance.capacities[0] == 42.0

    def test_reset(self, single_pair_instance):
        demand = np.full((1, 5), 100.0)
        prices = np.ones((1, 5))
        controller = MPCController(
            single_pair_instance,
            OraclePredictor(demand),
            OraclePredictor(prices),
        )
        controller.step(demand[:, 0], prices[:, 0])
        controller.reset()
        assert controller.period == 0
        assert controller.state == pytest.approx(single_pair_instance.initial_state)
        assert controller.demand_predictor.num_observations == 0

    def test_horizon_override(self, single_pair_instance):
        demand = np.full((1, 5), 100.0)
        prices = np.ones((1, 5))
        controller = MPCController(
            single_pair_instance,
            OraclePredictor(demand),
            OraclePredictor(prices),
            MPCConfig(window=4),
        )
        step = controller.step(demand[:, 0], prices[:, 0], horizon=2)
        assert step.predicted_demand.shape == (1, 2)

    def test_invalid_horizon(self, single_pair_instance):
        controller = MPCController(
            single_pair_instance, LastValuePredictor(1), LastValuePredictor(1)
        )
        with pytest.raises(ValueError):
            controller.step(np.array([1.0]), np.array([1.0]), horizon=0)


class TestClosedLoop:
    def test_oracle_constant_demand_has_no_unmet(self, single_pair_instance):
        demand = np.full((1, 8), 150.0)
        prices = np.ones((1, 8))
        controller = MPCController(
            single_pair_instance,
            OraclePredictor(demand),
            OraclePredictor(prices),
            MPCConfig(window=2),
        )
        result = run_closed_loop(controller, demand, prices)
        assert result.total_unmet_demand == pytest.approx(0.0, abs=1e-5)
        assert result.sla_violation_periods == 0

    def test_costs_match_manual_audit(self, single_pair_instance):
        demand = np.full((1, 6), 150.0)
        prices = np.linspace(1.0, 2.0, 6).reshape(1, 6)
        controller = MPCController(
            single_pair_instance,
            OraclePredictor(demand),
            OraclePredictor(prices),
            MPCConfig(window=2),
        )
        result = run_closed_loop(controller, demand, prices)
        states = result.trajectory.states
        controls = result.trajectory.controls
        manual_alloc = sum(
            float(states[t].sum(axis=1) @ prices[:, t + 1]) for t in range(5)
        )
        manual_recon = sum(float((controls[t] ** 2).sum()) for t in range(5))
        assert result.costs.allocation_total == pytest.approx(manual_alloc)
        assert result.costs.reconfiguration_total == pytest.approx(manual_recon)

    def test_lastvalue_lags_step_up(self, single_pair_instance):
        demand = np.concatenate(
            [np.full((1, 3), 100.0), np.full((1, 3), 300.0)], axis=1
        )
        prices = np.ones((1, 6))
        controller = MPCController(
            single_pair_instance,
            LastValuePredictor(1),
            LastValuePredictor(1),
            MPCConfig(window=2),
        )
        result = run_closed_loop(controller, demand, prices)
        # The step from 100 -> 300 happens at period 3; a persistence
        # forecaster cannot see it coming, so that period has unmet demand.
        assert result.unmet_demand[2, 0] > 0
        assert result.sla_violation_periods >= 1

    def test_shape_validation(self, single_pair_instance):
        controller = MPCController(
            single_pair_instance, LastValuePredictor(1), LastValuePredictor(1)
        )
        with pytest.raises(ValueError, match="demand"):
            run_closed_loop(controller, np.ones((2, 5)), np.ones((1, 5)))
        with pytest.raises(ValueError, match="prices"):
            run_closed_loop(controller, np.ones((1, 5)), np.ones((1, 4)))
        with pytest.raises(ValueError, match="at least 2"):
            run_closed_loop(controller, np.ones((1, 1)), np.ones((1, 1)))

    def test_number_of_steps(self, single_pair_instance):
        demand = np.full((1, 7), 120.0)
        prices = np.ones((1, 7))
        controller = MPCController(
            single_pair_instance,
            OraclePredictor(demand),
            OraclePredictor(prices),
        )
        result = run_closed_loop(controller, demand, prices)
        assert result.trajectory.num_steps == 6
        assert len(result.steps) == 6

    def test_elastic_controller_survives_infeasible_forecast(self):
        # Tiny capacity: hard-constrained MPC would raise, elastic runs.
        instance = DSPPInstance(
            datacenters=("dc",),
            locations=("v",),
            sla_coefficients=np.array([[0.1]]),
            reconfiguration_weights=np.array([1.0]),
            capacities=np.array([3.0]),
            initial_state=np.zeros((1, 1)),
        )
        demand = np.full((1, 5), 500.0)
        prices = np.ones((1, 5))
        controller = MPCController(
            instance,
            OraclePredictor(demand),
            OraclePredictor(prices),
            MPCConfig(window=2, slack_penalty=10.0),
        )
        result = run_closed_loop(controller, demand, prices)
        assert result.total_unmet_demand > 0
        assert np.all(result.trajectory.states[:, 0, 0] <= 3.0 + 1e-6)


class TestStructureFingerprintCaching:
    def test_reusing_workspace_hashes_structure_once(self, monkeypatch):
        """A receding-horizon run on the controller's workspace must hash
        the structure-relevant arrays exactly once: ``with_initial_state``
        propagates the memoized key, so advancing the state every period
        never re-invokes ``_compute_structure_key``."""
        calls = {"n": 0}
        original = DSPPInstance._compute_structure_key

        def counting(self):
            calls["n"] += 1
            return original(self)

        monkeypatch.setattr(DSPPInstance, "_compute_structure_key", counting)

        instance = DSPPInstance(
            datacenters=("a", "b"),
            locations=("v0", "v1", "v2"),
            sla_coefficients=np.array(
                [[0.1, 0.12, 0.2], [0.15, 0.1, 0.11]]
            ),
            reconfiguration_weights=np.array([1.0, 1.5]),
            capacities=np.array([np.inf, np.inf]),
            initial_state=np.zeros((2, 3)),
        )
        demand = np.full((3, 8), 30.0)
        prices = np.ones((2, 8))
        controller = MPCController(
            instance,
            OraclePredictor(demand),
            OraclePredictor(prices),
            MPCConfig(window=3),
        )
        run_closed_loop(controller, demand, prices)
        assert calls["n"] == 1

    def test_derived_instances_share_the_memoized_key(self):
        instance = DSPPInstance(
            datacenters=("a",),
            locations=("v",),
            sla_coefficients=np.array([[0.1]]),
            reconfiguration_weights=np.array([1.0]),
            capacities=np.array([np.inf]),
            initial_state=np.zeros((1, 1)),
        )
        key = instance.structure_key()
        derived = instance.with_initial_state(np.ones((1, 1)))
        assert derived.structure_key() is key
        quota = instance.with_capacities(np.array([5.0]))
        assert quota.structure_key() is key
