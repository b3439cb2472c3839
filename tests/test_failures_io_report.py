"""Tests for failure injection, scenario persistence, and the report
generator."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.control.loop import ClosedLoop
from repro.control.mpc import MPCConfig, MPCController
from repro.core.instance import DSPPInstance
from repro.io import load_scenario, save_scenario
from repro.prediction.ar import ARPredictor
from repro.prediction.ensemble import BestRecentEnsemble
from repro.prediction.holt_winters import HoltWintersPredictor
from repro.prediction.naive import LastValuePredictor, SeasonalNaivePredictor
from repro.prediction.oracle import OraclePredictor
from repro.report import ReportOptions, _markdown_table
from repro.simulation.failures import (
    OutageEvent,
    capacity_schedule,
    run_closed_loop_with_failures,
)
from repro.simulation.scenario import build_paper_scenario, build_small_scenario


class TestOutageEvent:
    def test_validation(self):
        with pytest.raises(ValueError):
            OutageEvent(0, 0, duration=0)
        with pytest.raises(ValueError):
            OutageEvent(0, 0, 1, remaining_fraction=1.0)
        with pytest.raises(ValueError):
            OutageEvent(-1, 0, 1)

    def test_activity_window(self):
        event = OutageEvent(0, start_period=3, duration=2)
        assert not event.is_active(2)
        assert event.is_active(3)
        assert event.is_active(4)
        assert not event.is_active(5)


class TestCapacitySchedule:
    def test_applies_fraction(self):
        schedule = capacity_schedule(
            np.array([100.0, 50.0]),
            5,
            [OutageEvent(0, 1, 2, remaining_fraction=0.25)],
        )
        assert schedule[0] == pytest.approx([100.0, 50.0])
        assert schedule[1] == pytest.approx([25.0, 50.0])
        assert schedule[2] == pytest.approx([25.0, 50.0])
        assert schedule[3] == pytest.approx([100.0, 50.0])

    def test_overlapping_events_compound(self):
        schedule = capacity_schedule(
            np.array([100.0]),
            3,
            [
                OutageEvent(0, 0, 3, remaining_fraction=0.5),
                OutageEvent(0, 1, 1, remaining_fraction=0.5),
            ],
        )
        assert schedule[1, 0] == pytest.approx(25.0)

    def test_unknown_datacenter(self):
        with pytest.raises(IndexError):
            capacity_schedule(np.array([1.0]), 2, [OutageEvent(3, 0, 1)])

    def test_outage_truncated_at_schedule_end(self):
        # Duration runs past the schedule: every period from start on is hit.
        schedule = capacity_schedule(
            np.array([100.0]), 4, [OutageEvent(0, 2, 10, remaining_fraction=0.5)]
        )
        assert schedule[:, 0] == pytest.approx([100.0, 100.0, 50.0, 50.0])

    def test_outage_entirely_after_schedule_is_noop(self):
        schedule = capacity_schedule(
            np.array([100.0]), 3, [OutageEvent(0, 5, 2, remaining_fraction=0.0)]
        )
        assert schedule == pytest.approx(np.full((3, 1), 100.0))

    def test_outage_at_period_zero_and_exact_last_period(self):
        schedule = capacity_schedule(
            np.array([100.0]),
            4,
            [
                OutageEvent(0, 0, 1, remaining_fraction=0.0),
                OutageEvent(0, 3, 1, remaining_fraction=0.25),
            ],
        )
        assert schedule[:, 0] == pytest.approx([0.0, 100.0, 100.0, 25.0])

    def test_zero_periods_gives_empty_schedule(self):
        schedule = capacity_schedule(np.array([100.0, 50.0]), 0, [OutageEvent(0, 0, 1)])
        assert schedule.shape == (0, 2)


class TestFailureLoop:
    @pytest.fixture
    def setup(self):
        instance = DSPPInstance(
            datacenters=("a", "b"),
            locations=("v",),
            sla_coefficients=np.array([[0.1], [0.1]]),
            reconfiguration_weights=np.array([0.5, 0.5]),
            capacities=np.array([30.0, 30.0]),
            initial_state=np.zeros((2, 1)),
        )
        K = 10
        demand = np.full((1, K), 150.0)
        prices = np.vstack([np.ones(K), 1.5 * np.ones(K)])  # a cheaper
        return instance, demand, prices

    def _controller(self, instance, demand, prices):
        return MPCController(
            instance,
            OraclePredictor(demand),
            OraclePredictor(prices),
            MPCConfig(window=3, slack_penalty=50.0),
        )

    def test_no_outage_matches_plain_loop_service(self, setup):
        instance, demand, prices = setup
        result = run_closed_loop_with_failures(
            self._controller(instance, demand, prices), demand, prices, []
        )
        assert result.total_unmet_demand == pytest.approx(0.0, abs=1e-5)

    def test_outage_moves_load_to_survivor(self, setup):
        instance, demand, prices = setup
        outage = OutageEvent(0, start_period=4, duration=3, remaining_fraction=0.0)
        result = run_closed_loop_with_failures(
            self._controller(instance, demand, prices), demand, prices, [outage]
        )
        servers = result.servers_per_datacenter()  # (K-1, L)
        # During the outage (serving periods 4..6) DC a holds nothing and
        # DC b carries the demand it can.
        assert servers[3, 0] == pytest.approx(0.0, abs=1e-6)
        assert servers[4, 0] == pytest.approx(0.0, abs=1e-6)
        assert servers[3, 1] > 10.0
        # After recovery, load starts migrating back to the cheap site
        # (gradually — the quadratic penalty damps the return).
        assert servers[-1, 0] > servers[5, 0]
        assert servers[-1, 0] > servers[-2, 0] - 1e-9

    def test_full_outage_of_both_sites_reports_unmet(self, setup):
        instance, demand, prices = setup
        outages = [
            OutageEvent(0, 4, 2, remaining_fraction=0.0),
            OutageEvent(1, 4, 2, remaining_fraction=0.0),
        ]
        result = run_closed_loop_with_failures(
            self._controller(instance, demand, prices), demand, prices, outages
        )
        assert result.unmet_demand[3].sum() > 100.0

    def test_partial_outage_degrades_gracefully(self, setup):
        instance, demand, prices = setup
        outage = OutageEvent(0, 4, 2, remaining_fraction=0.5)
        result = run_closed_loop_with_failures(
            self._controller(instance, demand, prices), demand, prices, [outage]
        )
        servers = result.servers_per_datacenter()
        assert servers[3, 0] <= 15.0 + 1e-6  # half of 30

    def test_rejects_bad_demand_shape(self, setup):
        instance, demand, prices = setup
        controller = self._controller(instance, demand, prices)
        with pytest.raises(ValueError, match=r"demand must be \(1, K\)"):
            run_closed_loop_with_failures(
                controller, np.vstack([demand, demand]), prices, []
            )

    def test_rejects_mismatched_prices(self, setup):
        instance, demand, prices = setup
        controller = self._controller(instance, demand, prices)
        with pytest.raises(ValueError, match="prices must be"):
            run_closed_loop_with_failures(controller, demand, prices[:, :-1], [])

    @pytest.mark.parametrize("shape", [(7, 2), (10, 3), (10,), (2, 10)])
    def test_closed_loop_rejects_mismatched_capacity_schedule(self, setup, shape):
        """A schedule that is not ``(K, L)`` fails at construction, before
        any period has run or fed a predictor."""
        instance, demand, prices = setup
        controller = self._controller(instance, demand, prices)
        with pytest.raises(ValueError, match=r"capacities must be \(10, 2\)"):
            ClosedLoop(controller, demand, prices, capacities=np.full(shape, 30.0))
        assert controller.period == 0

    def test_full_outage_evicts_stranded_servers(self, setup):
        # Servers standing at a fully failed site must not survive into the
        # planned state: during the outage the failed DC's row is (near) zero.
        instance, demand, prices = setup
        outage = OutageEvent(0, 3, 3, remaining_fraction=0.0)
        result = run_closed_loop_with_failures(
            self._controller(instance, demand, prices), demand, prices, [outage]
        )
        states = result.trajectory.states
        assert states[1, 0].sum() > 1.0  # DC 0 carries load before the outage
        for k in (2, 3, 4):  # planned periods k+1 in the outage window
            assert states[k, 0].sum() == pytest.approx(0.0, abs=1e-6)

    def test_capacity_recovers_after_outage(self, setup):
        instance, demand, prices = setup
        outage = OutageEvent(0, 3, 2, remaining_fraction=0.0)
        result = run_closed_loop_with_failures(
            self._controller(instance, demand, prices), demand, prices, [outage]
        )
        # After recovery the cheap DC is used again and demand is met.
        assert result.trajectory.states[-1, 0].sum() > 1.0
        assert result.unmet_demand[-1].sum() == pytest.approx(0.0, abs=1e-5)


def _predictor_factories():
    """Each predictor family as ``make(truth) -> Predictor``."""
    return {
        "last_value": lambda truth: LastValuePredictor(truth.shape[0]),
        "seasonal_naive": lambda truth: SeasonalNaivePredictor(
            truth.shape[0], season_length=4
        ),
        "ar": lambda truth: ARPredictor(truth.shape[0], order=2),
        "holt_winters": lambda truth: HoltWintersPredictor(
            truth.shape[0], season_length=4
        ),
        "best_recent": lambda truth: BestRecentEnsemble(
            [
                LastValuePredictor(truth.shape[0]),
                SeasonalNaivePredictor(truth.shape[0], season_length=4),
            ]
        ),
        "oracle": OraclePredictor,
    }


class TestFailureLoopKeepsHistory:
    """Capacity changes must not reset the controller's history."""

    OUTAGE = OutageEvent(0, start_period=4, duration=3, remaining_fraction=0.0)

    def _run(self, scenario, demand_predictor, price_predictor, **config):
        controller = MPCController(
            scenario.instance,
            demand_predictor,
            price_predictor,
            MPCConfig(window=3, slack_penalty=1e3, **config),
        )
        return run_closed_loop_with_failures(
            controller, scenario.demand, scenario.prices, [self.OUTAGE]
        )

    def test_steps_carry_their_period(self):
        scenario = build_small_scenario(num_periods=10, seed=4)
        instance = scenario.instance
        result = self._run(
            scenario,
            LastValuePredictor(instance.num_locations),
            LastValuePredictor(instance.num_datacenters),
        )
        assert [step.period for step in result.steps] == list(range(9))

    def test_carry_forward_repairs_nan_after_first_period(self):
        scenario = build_small_scenario(num_periods=10, seed=4)
        instance = scenario.instance
        demand = scenario.demand.copy()
        demand[1, 5] = np.nan  # inside the outage window
        broken = replace(scenario, demand=demand)
        result = self._run(
            broken,
            LastValuePredictor(instance.num_locations),
            LastValuePredictor(instance.num_datacenters),
            imputation="carry_forward",
        )
        step = result.steps[5]
        assert step.imputed_demand is not None
        assert step.imputed_demand.tolist() == [False, True, False]
        assert np.array_equal(step.predicted_demand[1], np.full(3, demand[1, 4]))
        assert np.isfinite(result.trajectory.states).all()

    def test_cold_solves_match_reset_and_refeed_loop(self):
        """Keeping the history changes nothing: the run is bitwise that of a
        loop which resets the predictors and re-feeds the observed history
        every period, its solver workspace carrying on in both."""
        scenario = build_small_scenario(num_periods=12, seed=7)
        instance = scenario.instance
        demand, prices = scenario.demand, scenario.prices

        def controller():
            return MPCController(
                instance,
                ARPredictor(instance.num_locations, order=2),
                ARPredictor(instance.num_datacenters, order=2),
                MPCConfig(window=3, slack_penalty=1e3),
            )

        result = run_closed_loop_with_failures(
            controller(), demand, prices, [self.OUTAGE]
        )
        reference = controller()
        schedule = capacity_schedule(instance.capacities, 12, [self.OUTAGE])
        states = [instance.initial_state]
        for k in range(11):
            capacity = np.maximum(schedule[k + 1], 1e-9)
            reference.set_capacities(capacity)
            state = reference.state
            for l in range(instance.num_datacenters):
                used = instance.server_size * state[l].sum()
                if used > capacity[l] + 1e-9:
                    state[l] *= capacity[l] / used
            reference.demand_predictor.reset()
            reference.price_predictor.reset()
            reference.state = state
            reference.demand_predictor.observe_history(demand[:, :k])
            reference.price_predictor.observe_history(prices[:, :k])
            step = reference.step(demand[:, k], prices[:, k], horizon=min(3, 11 - k))
            assert np.array_equal(step.predicted_demand, result.steps[k].predicted_demand)
            states.append(step.new_state)
            served = (instance.demand_coefficients * step.new_state).sum(axis=0)
            unmet = np.maximum(demand[:, k + 1] - served, 0.0)
            assert np.array_equal(unmet, result.unmet_demand[k])
        assert np.array_equal(np.stack(states[1:]), result.trajectory.states)
        assert np.array_equal(np.diff(np.stack(states), axis=0), result.trajectory.controls)

    @pytest.mark.parametrize(
        "family",
        ["last_value", "seasonal_naive", "ar", "holt_winters", "best_recent", "oracle"],
    )
    def test_forecasts_equal_reset_and_refeed(self, family):
        """Each forecast equals that of a predictor reset and re-fed the
        whole observed history, as a loop that resets every period sees."""
        scenario = build_small_scenario(num_periods=14, seed=6)
        make = _predictor_factories()[family]
        result = self._run(scenario, make(scenario.demand), make(scenario.prices))
        assert len(result.steps) == 13
        for truth, forecasts in (
            (scenario.demand, [s.predicted_demand for s in result.steps]),
            (scenario.prices, [s.predicted_prices for s in result.steps]),
        ):
            reference = make(truth)
            for k, forecast in enumerate(forecasts):
                reference.reset()
                reference.observe_history(truth[:, :k])
                reference.observe(truth[:, k])
                assert np.array_equal(
                    reference.predict(forecast.shape[1]), forecast
                ), f"{family} forecast differs at period {k}"


class TestScenarioIO:
    def test_round_trip_small(self, tmp_path):
        scenario = build_small_scenario(num_periods=6, seed=3)
        path = tmp_path / "scenario.npz"
        save_scenario(path, scenario)
        loaded = load_scenario(path)
        assert loaded.instance.datacenters == scenario.instance.datacenters
        assert loaded.instance.sla_coefficients == pytest.approx(
            scenario.instance.sla_coefficients
        )
        assert loaded.demand == pytest.approx(scenario.demand)
        assert loaded.prices == pytest.approx(scenario.prices)
        assert loaded.sla.max_latency == scenario.sla.max_latency
        assert loaded.vm_type.name == scenario.vm_type.name

    def test_round_trip_paper_with_wholesale(self, tmp_path):
        scenario = build_paper_scenario(num_periods=4, total_peak_rate=300.0)
        path = tmp_path / "paper.npz"
        save_scenario(path, scenario)
        loaded = load_scenario(path)
        assert set(loaded.wholesale_traces) == set(scenario.wholesale_traces)
        for label in scenario.wholesale_traces:
            assert loaded.wholesale_traces[label].prices == pytest.approx(
                scenario.wholesale_traces[label].prices
            )

    def test_loaded_scenario_is_runnable(self, tmp_path):
        from repro.control.loop import run_closed_loop

        scenario = build_small_scenario(num_periods=6, seed=1)
        path = tmp_path / "scenario.npz"
        save_scenario(path, scenario)
        loaded = load_scenario(path)
        controller = MPCController(
            loaded.instance,
            OraclePredictor(loaded.demand),
            OraclePredictor(loaded.prices),
            MPCConfig(window=2),
        )
        result = run_closed_loop(controller, loaded.demand, loaded.prices)
        assert result.total_cost > 0

    def test_bad_archive_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, a=np.ones(3))
        with pytest.raises(ValueError, match="not a scenario"):
            load_scenario(path)


class TestReport:
    def test_markdown_table_rendering(self):
        from repro.experiments.common import FigureResult

        result = FigureResult(
            figure="figX",
            title="demo",
            x_label="k",
            x=np.array([1, 2, 3]),
            series={"y": np.array([1.5, 2.5, 3.5])},
        )
        table = _markdown_table(result, max_rows=2)
        assert "| k | y |" in table
        assert "1.500" in table
        assert "more rows omitted" in table

    def test_report_options_defaults(self):
        options = ReportOptions()
        assert options.quick is True
