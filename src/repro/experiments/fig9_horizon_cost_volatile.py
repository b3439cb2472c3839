"""Figure 9: long prediction horizons hurt under volatile inputs.

"When both demand and resource prices are highly volatile, a simple
prediction scheme (AR in our case) is not accurate and hence a long
prediction horizon will actually hurt the algorithm performance.  In
particular, setting K = 2 achieves lowest cost for this scenario."

Reproduced in closed loop: volatile demand and price traces, the paper's
AR predictor, horizon sweep.  The scored quantity is the *effective* cost
— realized allocation + reconfiguration cost plus the SLA-shortfall
penalty — since an allocation built on a wrong long-range forecast fails
in both directions (pays for unneeded servers, misses needed ones).

Shape checks: the best horizon is small (< the largest swept), and the
longest horizon is measurably worse than the best.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.control.loop import run_closed_loop
from repro.control.mpc import MPCConfig, MPCController
from repro.core.instance import DSPPInstance
from repro.experiments.common import FigureResult
from repro.experiments.runner import run_sweep
from repro.prediction.ar import ARPredictor
from repro.queueing.sla import sla_coefficient

__all__ = ["volatile_traces", "run_fig9"]


def volatile_traces(
    num_periods: int,
    num_locations: int,
    num_datacenters: int,
    rng: np.random.Generator,
    demand_level: float = 100.0,
    demand_volatility: float = 0.35,
    price_level: float = 1.0,
    price_volatility: float = 0.35,
    diurnal_amplitude: float = 0.6,
) -> tuple[np.ndarray, np.ndarray]:
    """Volatile demand/price traces: a predictable diurnal base modulated
    by a mean-reverting geometric random walk.

    The mix matters for the Figure 9 shape: the diurnal component rewards
    *some* look-ahead (a myopic controller keeps arriving late to the
    daily ramps), while the walk punishes *long* look-ahead (AR forecasts
    of the noise degrade with lead time) — together they produce the
    U-shaped cost-vs-horizon curve with a short optimum.

    Returns:
        ``(demand, prices)`` of shapes ``(V, K)`` and ``(L, K)``.
    """
    hours = np.arange(num_periods, dtype=float)

    def _walk(rows: int, level: float, volatility: float, amplitude: float) -> np.ndarray:
        base = 1.0 + amplitude * np.sin(2.0 * np.pi * hours / 24.0)
        values = np.empty((rows, num_periods))
        state = np.ones(rows)
        for k in range(num_periods):
            shock = rng.normal(scale=volatility, size=rows)
            state = state * np.exp(shock) * (1.0 / np.maximum(state, 1e-9)) ** 0.2
            state = np.clip(state, 0.3, 4.0)
            values[:, k] = level * base[k] * state
        return values

    return (
        _walk(num_locations, demand_level, demand_volatility, diurnal_amplitude),
        _walk(num_datacenters, price_level, price_volatility, 0.3),
    )


@dataclass(frozen=True)
class _Fig9TaskSpec:
    """One (trial, horizon) cell of the fig9 sweep — fully self-contained
    so :func:`~repro.experiments.runner.run_sweep` can ship it to a worker
    process."""

    trial_seed: int
    window: int
    num_periods: int
    num_datacenters: int
    num_locations: int
    service_rate: float
    max_latency_ms: float
    reconfiguration_weight: float
    slack_penalty: float
    ar_order: int


def _run_fig9_task(spec: _Fig9TaskSpec) -> tuple[float, float, float]:
    """Run one closed loop; returns (effective cost, holding, shortfall).

    Traces are regenerated from ``trial_seed`` inside the task, so every
    cell of a trial sees bit-identical demand/price paths regardless of
    which process runs it.
    """
    rng = np.random.default_rng(spec.trial_seed)
    demand, prices = volatile_traces(
        spec.num_periods, spec.num_locations, spec.num_datacenters, rng
    )
    a = sla_coefficient(20.0, spec.max_latency_ms, spec.service_rate)
    coefficients = np.full((spec.num_datacenters, spec.num_locations), a)
    start = demand[:, 0] / spec.num_datacenters
    initial = a * np.tile(start[None, :], (spec.num_datacenters, 1))
    instance = DSPPInstance(
        datacenters=tuple(f"dc{i}" for i in range(spec.num_datacenters)),
        locations=tuple(f"v{i}" for i in range(spec.num_locations)),
        sla_coefficients=coefficients,
        reconfiguration_weights=np.full(
            spec.num_datacenters, float(spec.reconfiguration_weight)
        ),
        capacities=np.full(spec.num_datacenters, np.inf),
        initial_state=initial,
    )
    controller = MPCController(
        instance,
        ARPredictor(spec.num_locations, order=spec.ar_order),
        ARPredictor(spec.num_datacenters, order=spec.ar_order),
        MPCConfig(window=spec.window, slack_penalty=spec.slack_penalty),
    )
    result = run_closed_loop(controller, demand, prices)
    cost = result.total_cost + spec.slack_penalty * result.total_unmet_demand
    return cost, result.costs.total, result.total_unmet_demand


def run_fig9(
    horizons: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 8, 10),
    num_periods: int = 48,
    num_datacenters: int = 2,
    num_locations: int = 2,
    service_rate: float = 10.0,
    max_latency_ms: float = 150.0,
    reconfiguration_weight: float = 20.0,
    slack_penalty: float = 50.0,
    ar_order: int = 2,
    num_seeds: int = 3,
    seed: int = 0,
    jobs: int | None = None,
) -> FigureResult:
    """Closed-loop horizon sweep under volatile inputs with AR prediction.

    Costs are averaged over ``num_seeds`` independent trace realizations
    to damp single-path noise (the paper notes it ran "many experiments").

    Args:
        jobs: worker processes for the (trial, horizon) sweep (``None``/1:
            serial, 0: one per CPU).  Results are bitwise identical for
            every value — see :mod:`repro.experiments.runner`.

    Returns:
        x = horizon; series = mean effective cost, its components.
    """
    specs = [
        _Fig9TaskSpec(
            trial_seed=seed + trial,
            window=window,
            num_periods=num_periods,
            num_datacenters=num_datacenters,
            num_locations=num_locations,
            service_rate=service_rate,
            max_latency_ms=max_latency_ms,
            reconfiguration_weight=reconfiguration_weight,
            slack_penalty=slack_penalty,
            ar_order=ar_order,
        )
        for trial in range(num_seeds)
        for window in horizons
    ]
    outcomes = run_sweep(_run_fig9_task, specs, jobs=jobs)

    effective = np.zeros(len(horizons))
    holding = np.zeros(len(horizons))
    shortfall = np.zeros(len(horizons))
    # Accumulate in spec order (trial-major), matching the historical
    # serial double loop exactly — float sums are order-sensitive.
    for position, (cost, hold, short) in enumerate(outcomes):
        index = position % len(horizons)
        effective[index] += cost / num_seeds
        holding[index] += hold / num_seeds
        shortfall[index] += short / num_seeds

    best_index = int(np.argmin(effective))
    checks = {
        "best horizon is short (not the longest)": best_index < len(horizons) - 1,
        "longest horizon worse than the best": bool(
            effective[-1] > effective[best_index] * 1.02
        ),
    }
    return FigureResult(
        figure="fig9",
        title="Impact of prediction-horizon length on cost (volatile demand & price)",
        x_label="horizon",
        x=np.array(horizons),
        series={
            "effective_cost": effective,
            "allocation_plus_reconf": holding,
            "unmet_demand": shortfall,
        },
        checks=checks,
        notes=(
            f"AR({ar_order}) predictor, {num_seeds} seeds; best horizon = "
            f"{horizons[best_index]} (paper: K=2)"
        ),
    )
