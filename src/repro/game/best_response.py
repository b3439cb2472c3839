"""Algorithm 2: iterative best response with dual quota coordination.

Each iteration:

1. every SP ``i`` solves its private DSPP against its current capacity
   quota ``C_i`` (line 4) — in *elastic* mode, because early quotas can be
   below an SP's demand and the hard problem would be infeasible;
2. each SP reports the dual variables ``lambda^{il}`` of its capacity
   constraints (line 5);
3. the coordinator raises each quota along its dual and renormalizes so
   per-DC quotas sum to the physical capacity (lines 7–8);
4. the process stops when the total cost changes by less than a factor
   ``epsilon`` between iterations (line 10; the paper uses 0.05).

The fixed point is a W-MPC Nash equilibrium: no SP can lower its cost by
deviating within the capacity left by the others (verified separately in
:mod:`repro.game.equilibrium`).

The per-provider solves inside a round are independent, so each round
fans out through a :class:`~repro.experiments.pool.ProviderPool` — a
persistent, provider-affine worker pool whose warm workspaces survive
the whole coordination run.  Pass ``jobs`` to shard across processes;
results are bitwise identical at any job count (the
``sharded_equilibrium_equals_serial`` check in :mod:`repro.verify`
enforces this).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.dspp import DSPPSolution
from repro.experiments.pool import PoolSettings, ProviderPool, RoundResult
from repro.game.players import ServiceProvider
from repro.solvers.dual import QuotaCoordinator
from repro.solvers.qp import QPSettings

__all__ = ["BestResponseConfig", "BestResponseResult", "compute_equilibrium"]


@dataclass(frozen=True)
class BestResponseConfig:
    """Algorithm 2 parameters.

    Attributes:
        epsilon: relative cost-change convergence threshold (paper: 0.05).
        step_size: the coordinator's dual ascent step ``alpha``.
        max_iterations: hard stop.
        slack_penalty: per-unit demand-shortfall penalty in each SP's
            elastic sub-problem; must dominate any plausible server price
            so shortfall is a last resort.
        qp_settings: solver settings for the sub-problems.

    Each provider keeps one :class:`~repro.core.dspp.DSPPWorkspace` for the
    whole coordination run.  Quota updates only move the capacity bounds,
    so every round after the first is a vector-only ``update()`` against
    the cached factorization.  See ``docs/PERFORMANCE.md``.
    """

    epsilon: float = 0.05
    step_size: float = 1.0
    max_iterations: int = 200
    slack_penalty: float = 1e3
    qp_settings: QPSettings | None = None

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.slack_penalty <= 0:
            raise ValueError("slack_penalty must be positive")

    def pool_settings(self) -> PoolSettings:
        """The per-worker solver configuration this config induces."""
        return PoolSettings(
            qp_settings=self.qp_settings, slack_penalty=self.slack_penalty
        )


@dataclass
class BestResponseResult:
    """Outcome of Algorithm 2.

    Attributes:
        converged: whether the cost stabilized within ``epsilon``.
        iterations: coordination rounds performed.
        provider_costs: final per-SP objective (including slack penalties).
        total_cost: sum of provider costs (the quantity whose convergence
            is tested).
        solutions: final per-SP DSPP solutions.
        quotas: final quota matrix, shape ``(N, L)``.
        cost_history: total cost after each iteration.
        total_shortfall: final unmet demand across SPs (should be ~0 at a
            meaningful equilibrium — nonzero means physical capacity cannot
            cover aggregate demand at all).
    """

    converged: bool
    iterations: int
    provider_costs: np.ndarray
    total_cost: float
    solutions: list[DSPPSolution]
    quotas: np.ndarray
    cost_history: list[float] = field(default_factory=list)
    total_shortfall: float = 0.0


def _validate_population(providers: list[ServiceProvider]) -> None:
    if not providers:
        raise ValueError("need at least one provider")
    horizons = {p.horizon for p in providers}
    if len(horizons) != 1:
        raise ValueError(f"providers disagree on horizon: {sorted(horizons)}")
    dc_sets = {p.instance.datacenters for p in providers}
    if len(dc_sets) != 1:
        raise ValueError("providers must share the same data centers")


def compute_equilibrium(
    providers: list[ServiceProvider],
    capacity: np.ndarray,
    config: BestResponseConfig | None = None,
    initial_quotas: np.ndarray | None = None,
    jobs: int | None = None,
    pool: ProviderPool | None = None,
) -> BestResponseResult:
    """Run Algorithm 2 to a (near-)equilibrium.

    Args:
        providers: the competing SPs (all sharing the same data centers,
            horizon and site ordering).
        capacity: physical per-DC capacity vector, shape ``(L,)``; this is
            what the quotas always sum to.
        config: algorithm parameters.
        initial_quotas: optional starting quota matrix, shape ``(N, L)``
            with per-DC columns summing to ``capacity`` (default: equal
            split).  Biased starts are how
            :mod:`repro.game.anarchy` explores the equilibrium set.
        jobs: worker processes to shard the per-round solves across
            (``None``/``1``: inline, no subprocess; ``0``: one per CPU).
            Results are bitwise identical at any job count.
        pool: an already-open :class:`~repro.experiments.pool.ProviderPool`
            over these providers to run the rounds on.  The caller keeps
            ownership (the pool is left open), ``jobs`` is ignored, and
            the pool's own :class:`~repro.experiments.pool.PoolSettings`
            win over the solver fields of ``config`` — this is how
            :func:`~repro.game.mpc_game.run_mpc_game` keeps one pool warm
            across every period of the horizon.

    Returns:
        The :class:`BestResponseResult`.

    Raises:
        ValueError: on inconsistent providers or a non-positive capacity.
    """
    _validate_population(providers)
    capacity = np.asarray(capacity, dtype=float)

    cfg = config or BestResponseConfig()
    coordinator = QuotaCoordinator(
        capacity, len(providers), step_size=cfg.step_size
    )
    if initial_quotas is not None:
        coordinator.set_quotas(np.asarray(initial_quotas, dtype=float))
    quotas = coordinator.quotas.copy()

    owns_pool = pool is None
    if pool is None:
        pool = ProviderPool(providers, jobs=jobs, settings=cfg.pool_settings())
    elif pool.num_providers != len(providers):
        raise ValueError(
            f"pool holds {pool.num_providers} providers, got {len(providers)}"
        )
    try:
        previous_total = np.inf
        cost_history: list[float] = []
        converged = False
        round_result: RoundResult | None = None
        iteration = 0
        for iteration in range(1, cfg.max_iterations + 1):
            round_result = pool.run_round(quotas)
            total = float(round_result.costs.sum())
            cost_history.append(total)
            if np.isfinite(previous_total) and abs(
                total - previous_total
            ) <= cfg.epsilon * abs(previous_total):
                converged = True
                break
            previous_total = total
            quotas = coordinator.update(round_result.duals).quotas
        assert round_result is not None
        solutions = pool.solutions()
    finally:
        if owns_pool:
            pool.close()

    return BestResponseResult(
        converged=converged,
        iterations=iteration,
        provider_costs=round_result.costs.copy(),
        total_cost=float(round_result.costs.sum()),
        solutions=solutions,
        quotas=quotas.copy(),
        cost_history=cost_history,
        total_shortfall=float(round_result.shortfalls.sum()),
    )
