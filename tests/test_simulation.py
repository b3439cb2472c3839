"""Tests for the simulation package (scenario, monitoring, metrics, engine)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.control.loop import run_closed_loop
from repro.control.mpc import MPCConfig, MPCController
from repro.prediction.oracle import OraclePredictor
from repro.simulation.engine import SimulationEngine
from repro.simulation.metrics import MetricsCollector
from repro.simulation.monitoring import MonitoringModule
from repro.simulation.scenario import (
    build_paper_scenario,
    build_small_scenario,
)


class TestMonitoring:
    def test_record_and_history(self):
        monitor = MonitoringModule(num_locations=2, num_datacenters=3)
        monitor.record([1.0, 2.0], [0.1, 0.2, 0.3])
        monitor.record([3.0, 4.0], [0.4, 0.5, 0.6])
        assert len(monitor) == 2
        assert monitor.demand_history() == pytest.approx(
            np.array([[1.0, 3.0], [2.0, 4.0]])
        )
        assert monitor.price_history().shape == (3, 2)
        assert monitor.latest.period == 1

    def test_empty_histories(self):
        monitor = MonitoringModule(1, 1)
        assert monitor.demand_history().shape == (1, 0)
        with pytest.raises(LookupError):
            monitor.latest

    def test_validation(self):
        monitor = MonitoringModule(2, 1)
        with pytest.raises(ValueError, match="demand"):
            monitor.record([1.0], [1.0])
        with pytest.raises(ValueError, match="prices"):
            monitor.record([1.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="nonnegative"):
            monitor.record([-1.0, 1.0], [1.0])
        with pytest.raises(ValueError):
            MonitoringModule(0, 1)

    def test_record_copies_inputs(self):
        monitor = MonitoringModule(2, 1)
        demand = np.array([1.0, 2.0])
        monitor.record(demand, [0.5])
        demand[0] = 99.0  # mutating the caller's array must not leak in
        assert monitor.latest.demand == pytest.approx([1.0, 2.0])

    def test_periods_count_from_zero(self):
        monitor = MonitoringModule(1, 1)
        observations = [monitor.record([float(k)], [1.0]) for k in range(3)]
        assert [o.period for o in observations] == [0, 1, 2]
        assert monitor.latest.period == 2

    def test_matrix_inputs_are_flattened(self):
        monitor = MonitoringModule(2, 2)
        monitor.record(np.array([[1.0], [2.0]]), np.array([[3.0, 4.0]]))
        assert monitor.demand_history()[:, 0] == pytest.approx([1.0, 2.0])
        assert monitor.price_history()[:, 0] == pytest.approx([3.0, 4.0])

    def test_empty_price_history_shape(self):
        monitor = MonitoringModule(2, 3)
        assert monitor.price_history().shape == (3, 0)


class TestMetrics:
    def test_summary_aggregation(self):
        collector = MetricsCollector()
        allocation = np.array([[2.0], [3.0]])
        control = np.array([[1.0], [-1.0]])
        prices = np.array([2.0, 1.0])
        weights = np.array([1.0, 2.0])
        collector.record_period(allocation, control, prices, weights, unserved=1.5)
        summary = collector.summary()
        assert summary.total_allocation_cost == pytest.approx(2 * 2 + 3 * 1)
        assert summary.total_reconfiguration_cost == pytest.approx(1 + 2)
        assert summary.total_reconfiguration_magnitude == pytest.approx(2.0)
        assert summary.total_unserved_demand == pytest.approx(1.5)
        assert summary.periods == 1

    def test_latency_weighting(self):
        collector = MetricsCollector()
        allocation = np.ones((1, 2))
        control = np.zeros((1, 2))
        assignment = np.array([[3.0, 1.0]])
        latency = np.array([[10.0, 50.0]])
        collector.record_period(
            allocation,
            control,
            np.ones(1),
            np.ones(1),
            assignment=assignment,
            latency=latency,
        )
        summary = collector.summary()
        assert summary.mean_latency_ms == pytest.approx((3 * 10 + 1 * 50) / 4)

    def test_no_latency_is_nan(self):
        collector = MetricsCollector()
        collector.record_period(np.ones((1, 1)), np.zeros((1, 1)), np.ones(1), np.ones(1))
        assert np.isnan(collector.summary().mean_latency_ms)


class TestSmallScenario:
    def test_structure(self):
        scenario = build_small_scenario(num_periods=6)
        assert scenario.num_periods == 6
        assert scenario.demand.shape[0] == scenario.instance.num_locations
        assert scenario.prices.shape[0] == scenario.instance.num_datacenters
        assert np.isfinite(scenario.instance.sla_coefficients).all()

    def test_reproducible(self):
        a = build_small_scenario(seed=4)
        b = build_small_scenario(seed=4)
        assert a.demand == pytest.approx(b.demand)
        assert a.prices == pytest.approx(b.prices)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_small_scenario(num_periods=1)


class TestPaperScenario:
    @pytest.fixture(scope="class")
    def scenario(self):
        return build_paper_scenario(num_periods=6, total_peak_rate=500.0, seed=1)

    def test_paper_dimensions(self, scenario):
        assert scenario.instance.num_datacenters == 4
        assert scenario.instance.num_locations == 24
        assert scenario.instance.capacities == pytest.approx(np.full(4, 2000.0))

    def test_every_pair_feasible_under_default_sla(self, scenario):
        assert np.isfinite(scenario.instance.sla_coefficients).all()

    def test_sla_coefficients_distance_sensitive(self, scenario):
        # The spread between easiest and hardest pair should be material.
        a = scenario.instance.sla_coefficients
        assert a.max() / a.min() > 1.2

    def test_wholesale_traces_exposed(self, scenario):
        assert set(scenario.wholesale_traces) == {
            "san_jose_ca",
            "houston_tx",
            "atlanta_ga",
            "chicago_il",
        }

    def test_deterministic_demand_mode(self):
        scenario = build_paper_scenario(
            num_periods=4, total_peak_rate=500.0, stochastic_demand=False, seed=1
        )
        again = build_paper_scenario(
            num_periods=4, total_peak_rate=500.0, stochastic_demand=False, seed=1
        )
        assert scenario.demand == pytest.approx(again.demand)


class TestEngine:
    def test_engine_agrees_with_closed_loop_costs(self):
        scenario = build_small_scenario(num_periods=8, seed=2)
        controller_a = MPCController(
            scenario.instance,
            OraclePredictor(scenario.demand),
            OraclePredictor(scenario.prices),
            MPCConfig(window=3),
        )
        controller_b = MPCController(
            scenario.instance,
            OraclePredictor(scenario.demand),
            OraclePredictor(scenario.prices),
            MPCConfig(window=3),
        )
        engine = SimulationEngine(scenario, controller_a)
        engine_result = engine.run()
        loop_result = run_closed_loop(controller_b, scenario.demand, scenario.prices)
        # One period kernel underneath, and the router never feeds back
        # into control: the two runs agree exactly.
        assert engine_result.summary.total_cost == loop_result.total_cost
        assert np.array_equal(engine_result.states, loop_result.trajectory.states)
        assert np.array_equal(
            engine_result.controls, loop_result.trajectory.controls
        )

    def test_engine_records_monitoring(self):
        scenario = build_small_scenario(num_periods=5)
        controller = MPCController(
            scenario.instance,
            OraclePredictor(scenario.demand),
            OraclePredictor(scenario.prices),
            MPCConfig(window=2),
        )
        result = SimulationEngine(scenario, controller).run()
        assert len(result.monitoring) == 4
        assert len(result.routing) == 4

    def test_engine_sla_holds_with_oracle(self):
        scenario = build_small_scenario(num_periods=8, seed=3)
        controller = MPCController(
            scenario.instance,
            OraclePredictor(scenario.demand),
            OraclePredictor(scenario.prices),
            MPCConfig(window=3),
        )
        result = SimulationEngine(scenario, controller).run()
        assert result.summary.total_unserved_demand == pytest.approx(0.0, abs=1e-6)
        assert result.summary.sla_violation_periods == 0
        assert result.summary.mean_latency_ms <= scenario.sla.max_latency

    def test_engine_rejects_mismatched_controller(self):
        scenario = build_small_scenario(num_periods=4)
        other = build_small_scenario(num_periods=4, num_datacenters=3)
        controller = MPCController(
            other.instance,
            OraclePredictor(other.demand),
            OraclePredictor(other.prices),
        )
        with pytest.raises(ValueError):
            SimulationEngine(scenario, controller)
