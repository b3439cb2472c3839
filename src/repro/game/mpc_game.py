"""The W-MPC game in closed loop (Definition 2, run over time).

Definition 2 defines equilibrium over strategies computed the MPC way:
every control period each SP solves a ``W``-step window from the current
state, and only the first move is played.  This module runs that process
*dynamically*: per period, a few coordination rounds of Algorithm 2
(sub-problem solve → dual report → quota update) followed by every SP
applying its first move simultaneously, then the world advances.

The static :func:`repro.game.best_response.compute_equilibrium` solves
one full horizon to its fixed point; this loop is the deployable version —
quotas renegotiated every period with only ``coordination_rounds`` of
message exchange, states carried forward, prediction windows sliding.

The whole horizon runs on a single persistent
:class:`~repro.experiments.pool.ProviderPool`: provider instances ship
to their (fixed) worker shards once, and only states, forecast windows
and quota rows cross the process boundary afterwards — so each
provider's warm workspace survives both the rounds within a period and
the period-to-period window slide.  Results are bitwise identical at
any ``jobs`` count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.control.horizon import effective_horizon, forecast_window
from repro.experiments.pool import PoolSettings, ProviderPool
from repro.game.players import ServiceProvider
from repro.prediction.base import Predictor
from repro.solvers.dual import QuotaCoordinator
from repro.solvers.qp import QPSettings

__all__ = [
    "PredictorFactory",
    "MPCGameConfig",
    "MPCGamePeriod",
    "MPCGameResult",
    "run_mpc_game",
]

# Factory building one (demand, price) predictor pair per provider index.
PredictorFactory = Callable[[int, ServiceProvider], tuple[Predictor, Predictor]]


@dataclass(frozen=True)
class MPCGameConfig:
    """Closed-loop game parameters.

    Attributes:
        window: each SP's prediction window ``W``.  Definition 2 allows
            per-SP windows ``W^i`` but Theorem 1's optimality needs a
            common one — pass a single int for the common case, or a
            tuple of per-provider windows to study the heterogeneous
            setting (the paper's future-work "differences in rationality"
            remark).
        coordination_rounds: Algorithm 2 rounds run *within* each control
            period before moves are committed.
        step_size: the coordinator's dual-ascent step.
        slack_penalty: per-unit shortfall penalty in the sub-problems.
        qp_settings: solver settings.
        predictor_factory: optional factory
            ``(provider_index, provider) -> (demand_predictor,
            price_predictor)``.  When set, each SP forecasts its windows
            from realized observations (the deployable configuration);
            when ``None``, windows are read from the providers' own
            future trajectories (oracle — isolates the game dynamics).

    Each provider keeps one warm :class:`~repro.core.dspp.DSPPWorkspace`
    for the whole horizon.  Between rounds only the quota bounds move and
    between periods only the state/window vectors move, so almost every
    solve after a provider's first is a vector-only ``update()`` against
    its cached factorization (the structure rebuilds only when the window
    shrinks near the end of the horizon).  See ``docs/PERFORMANCE.md``.
    """

    window: int | tuple[int, ...] = 3
    coordination_rounds: int = 4
    step_size: float = 1.0
    slack_penalty: float = 1e3
    qp_settings: QPSettings | None = None
    predictor_factory: PredictorFactory | None = None

    def __post_init__(self) -> None:
        windows = (
            (self.window,) if isinstance(self.window, int) else tuple(self.window)
        )
        if any(w < 1 for w in windows):
            raise ValueError("every window must be >= 1")
        if self.coordination_rounds < 1:
            raise ValueError("coordination_rounds must be >= 1")
        if self.slack_penalty <= 0:
            raise ValueError("slack_penalty must be positive")

    def window_for(self, provider_index: int, num_providers: int) -> int:
        """The window provider ``provider_index`` plans with.

        Raises:
            ValueError: if per-provider windows were given but their count
                does not match the population size.
        """
        if isinstance(self.window, int):
            return self.window
        windows = tuple(self.window)
        if len(windows) != num_providers:
            raise ValueError(
                f"{len(windows)} windows configured for {num_providers} providers"
            )
        return windows[provider_index]

    def pool_settings(self) -> PoolSettings:
        """The per-worker solver configuration this config induces."""
        return PoolSettings(
            qp_settings=self.qp_settings, slack_penalty=self.slack_penalty
        )


@dataclass(frozen=True)
class MPCGamePeriod:
    """One control period's outcome.

    Attributes:
        period: zero-based period index.
        quotas: quota matrix after coordination, shape ``(N, L)``.
        states: post-move allocation of each SP, shape ``(N, L, V)``.
        capacity_used: aggregate size-weighted servers per DC, shape
            ``(L,)``.
    """

    period: int
    quotas: np.ndarray
    states: np.ndarray
    capacity_used: np.ndarray


@dataclass
class MPCGameResult:
    """Outcome of a closed-loop game run.

    Attributes:
        provider_costs: realized cost per SP (holding at realized prices +
            quadratic reconfiguration), shape ``(N,)``.
        total_cost: their sum.
        total_shortfall: realized unmet demand over the run (per the SPs'
            own SLA coefficients).
        capacity_violation: worst aggregate overshoot of any DC's physical
            capacity over the run (should be ~0: quotas always sum to the
            capacity and every sub-problem respects its quota).
        periods: per-period records.
    """

    provider_costs: np.ndarray
    total_cost: float
    total_shortfall: float
    capacity_violation: float
    periods: list[MPCGamePeriod] = field(default_factory=list)


def run_mpc_game(
    providers: list[ServiceProvider],
    capacity: np.ndarray,
    config: MPCGameConfig | None = None,
    jobs: int | None = None,
) -> MPCGameResult:
    """Run the W-MPC game over the providers' demand/price trajectories.

    Oracle forecasts (each SP's own future demand/prices, as carried by
    its :class:`ServiceProvider`) isolate the *game* dynamics from
    prediction error; period ``k`` windows cover periods ``k+1..k+W``.

    Args:
        providers: the SPs (shared data centers, shared horizon ``K``).
        capacity: physical per-DC capacity, shape ``(L,)``.
        config: loop parameters.
        jobs: worker processes to shard each round's solves across
            (``None``/``1``: inline; ``0``: one per CPU).  One pool is
            held for the whole horizon; results are bitwise identical at
            any job count.

    Returns:
        The :class:`MPCGameResult`.

    Raises:
        ValueError: on inconsistent providers.
    """
    if not providers:
        raise ValueError("need at least one provider")
    horizons = {p.horizon for p in providers}
    if len(horizons) != 1:
        raise ValueError(f"providers disagree on horizon: {sorted(horizons)}")
    K = horizons.pop()
    if K < 2:
        raise ValueError("need at least 2 periods to run a closed loop")
    cfg = config or MPCGameConfig()
    capacity = np.asarray(capacity, dtype=float)
    N = len(providers)
    L = providers[0].instance.num_datacenters
    V = providers[0].instance.num_locations

    coordinator = QuotaCoordinator(capacity, N, step_size=cfg.step_size)
    states = [p.instance.initial_state.copy() for p in providers]
    realized_costs = np.zeros(N)
    shortfall = 0.0
    worst_violation = 0.0
    records: list[MPCGamePeriod] = []

    predictors: list[tuple[Predictor, Predictor] | None] = [None] * N
    if cfg.predictor_factory is not None:
        predictors = [
            cfg.predictor_factory(i, provider)
            for i, provider in enumerate(providers)
        ]

    num_steps = K - 1
    with ProviderPool(providers, jobs=jobs, settings=cfg.pool_settings()) as pool:
        for k in range(num_steps):
            # Feed this period's observation to every predicting SP once.
            for i, provider in enumerate(providers):
                if predictors[i] is not None:
                    demand_predictor, price_predictor = predictors[i]
                    demand_predictor.observe(provider.demand[:, k])
                    price_predictor.observe(provider.prices[:, k])

            # Forecast every SP's window once per period: ``predict`` is
            # pure, so the rounds within a period all see the same window.
            demand_windows: list[np.ndarray] = []
            price_windows: list[np.ndarray] = []
            for i, provider in enumerate(providers):
                window = effective_horizon(cfg.window_for(i, N), k, num_steps)
                if predictors[i] is not None:
                    demand_predictor, price_predictor = predictors[i]
                    demand_windows.append(demand_predictor.predict(window))
                    price_windows.append(price_predictor.predict(window))
                else:
                    demand_windows.append(
                        forecast_window(provider.demand, k + 1, window)
                    )
                    price_windows.append(
                        forecast_window(provider.prices, k + 1, window)
                    )
            pool.set_problems(
                states=states, demands=demand_windows, prices=price_windows
            )

            quotas = coordinator.quotas.copy()
            for _ in range(cfg.coordination_rounds):
                round_result = pool.run_round(quotas)
                quotas = coordinator.update(round_result.duals).quotas

            # Everyone commits the first move of their final-round plan.
            controls = pool.first_controls()
            new_states = np.empty((N, L, V))
            for i, provider in enumerate(providers):
                control = controls[i]
                new_state = np.maximum(states[i] + control, 0.0)
                realized_price = provider.prices[:, k + 1]
                holding = float(new_state.sum(axis=1) @ realized_price)
                recon = float(
                    provider.instance.reconfiguration_weights
                    @ (control**2).sum(axis=1)
                )
                realized_costs[i] += holding + recon
                coeff = provider.instance.demand_coefficients
                served = (coeff * new_state).sum(axis=0)
                shortfall += float(
                    np.maximum(provider.demand[:, k + 1] - served, 0.0).sum()
                )
                states[i] = new_state
                new_states[i] = new_state

            used = np.zeros(L)
            for i, provider in enumerate(providers):
                used += provider.instance.server_size * new_states[i].sum(axis=1)
            worst_violation = max(worst_violation, float(np.max(used - capacity)))
            records.append(
                MPCGamePeriod(
                    period=k,
                    quotas=quotas.copy(),
                    states=new_states,
                    capacity_used=used,
                )
            )

    return MPCGameResult(
        provider_costs=realized_costs,
        total_cost=float(realized_costs.sum()),
        total_shortfall=shortfall,
        capacity_violation=worst_violation,
        periods=records,
    )
