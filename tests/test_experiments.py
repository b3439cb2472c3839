"""Smoke + shape tests for the figure-reproduction harnesses.

Heavy sweeps run in the benchmark suite; these tests run each harness on
reduced parameters and assert structural sanity plus the cheap shape
checks.  The full-parameter shape checks are asserted by the benches.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.common import (
    FigureResult,
    format_figure,
    is_mostly_decreasing,
    is_mostly_increasing,
)
from repro.experiments.fig3_prices import run_fig3
from repro.experiments.fig4_demand_tracking import run_fig4
from repro.experiments.fig5_price_response import run_fig5
from repro.experiments.fig6_horizon_smoothing import run_fig6
from repro.experiments.fig7_convergence import run_fig7
from repro.experiments.fig8_horizon_convergence import run_fig8
from repro.experiments.fig9_horizon_cost_volatile import run_fig9, volatile_traces
from repro.experiments.fig10_horizon_cost_constant import run_fig10


class TestCommon:
    def test_series_length_validated(self):
        with pytest.raises(ValueError, match="points"):
            FigureResult(
                figure="x",
                title="t",
                x_label="x",
                x=np.arange(3),
                series={"bad": np.arange(4)},
            )

    def test_failed_checks_listed(self):
        result = FigureResult(
            figure="x",
            title="t",
            x_label="x",
            x=np.arange(2),
            series={"s": np.arange(2)},
            checks={"good": True, "bad": False},
        )
        assert not result.all_checks_pass
        assert result.failed_checks() == ["bad"]

    def test_format_contains_all_series(self):
        result = FigureResult(
            figure="figX",
            title="demo",
            x_label="k",
            x=np.array([1, 2]),
            series={"alpha": np.array([1.0, 2.0]), "beta": np.array([3.0, 4.0])},
            checks={"ok": True},
            notes="hello",
        )
        text = format_figure(result)
        assert "alpha" in text and "beta" in text
        assert "[PASS] ok" in text
        assert "hello" in text

    def test_trend_helpers(self):
        assert is_mostly_decreasing(np.array([5.0, 4.0, 4.1, 3.0]), tolerance=0.2)
        assert not is_mostly_decreasing(np.array([1.0, 2.0, 3.0]))
        assert is_mostly_increasing(np.array([1.0, 2.0, 3.0]))


class TestFig3:
    def test_full_run_passes_checks(self):
        result = run_fig3()
        assert result.all_checks_pass, result.failed_checks()
        assert set(result.series) == {
            "san_jose_ca",
            "dallas_tx",
            "atlanta_ga",
            "chicago_il",
        }
        assert result.x.shape == (24,)


class TestFig4:
    def test_full_run_passes_checks(self):
        result = run_fig4()
        assert result.all_checks_pass, result.notes

    def test_series_aligned(self):
        result = run_fig4(num_hours=12)
        for series in result.series.values():
            assert series.shape == result.x.shape


class TestFig5:
    def test_full_run_passes_checks(self):
        result = run_fig5()
        assert result.all_checks_pass, result.notes

    def test_servers_nonnegative(self):
        result = run_fig5(num_hours=12)
        for name, series in result.series.items():
            if name.startswith("servers_"):
                assert np.all(series >= -1e-9)


class TestFig6:
    def test_reduced_run_shape(self):
        result = run_fig6(horizons=(1, 6, 12), num_hours=24)
        assert result.x.tolist() == [1, 6, 12]
        assert result.series["peak_step_change"][-1] <= result.series["peak_step_change"][0]


class TestFig7:
    def test_reduced_run_structure(self):
        """The paper's shape on a reduced run: iterations grow with the
        number of players and with a tighter bottleneck."""
        result = run_fig7(max_players=6, bottlenecks=(100.0, 300.0))
        assert set(result.series) == {"capacity_100", "capacity_300"}
        assert np.all(result.series["capacity_100"] >= 1)
        assert result.all_checks_pass, result.notes


class TestFig8:
    def test_reduced_run_structure(self):
        """The paper's shape on a reduced run: iterations fall with the
        horizon."""
        result = run_fig8(horizons=(1, 2, 3, 6, 7, 8))
        assert result.series["iterations"].shape == (6,)
        assert np.all(result.series["cost_per_period"] > 0)
        assert result.all_checks_pass, result.notes


class TestFig9:
    def test_volatile_traces_properties(self, rng):
        demand, prices = volatile_traces(48, 2, 3, rng)
        assert demand.shape == (2, 48)
        assert prices.shape == (3, 48)
        assert np.all(demand > 0)
        assert np.all(prices > 0)
        # Meaningful volatility: coefficient of variation above 10%.
        cv = demand.std(axis=1) / demand.mean(axis=1)
        assert np.all(cv > 0.1)

    def test_reduced_run_structure(self):
        result = run_fig9(horizons=(1, 2, 4), num_periods=24, num_seeds=1)
        assert result.series["effective_cost"].shape == (3,)
        assert np.all(result.series["effective_cost"] > 0)

    def test_full_run_passes_checks(self):
        """The paper's shape: a U in the horizon, optimum at a short window."""
        result = run_fig9()
        assert result.all_checks_pass, result.notes
        effective = result.series["effective_cost"]
        assert int(result.x[int(np.argmin(effective))]) <= 3


class TestFig10:
    def test_full_run_passes_checks(self):
        result = run_fig10()
        assert result.all_checks_pass, result.notes

    def test_cost_monotone_non_increasing(self):
        result = run_fig10(horizons=(1, 2, 4, 8))
        costs = result.series["effective_cost"]
        assert np.all(np.diff(costs) <= 1e-6)
