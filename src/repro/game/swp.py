"""The Social Welfare Problem (SWP) — the benchmark of Definition 3.

SWP minimizes the *sum* of all SPs' objectives subject to the shared
physical capacity constraint ``sum_i s^i sum_v x^{iv}_k <= C`` — i.e. what
a single benevolent planner controlling every provider would do.  Theorem 1
states the best Nash equilibrium attains exactly this optimum (PoS = 1).

The joint problem is assembled as one sparse QP: per-provider blocks built
by :func:`repro.core.matrices.build_stacked_qp` (with their private
capacity rows disabled), glued with coupled capacity rows made of the
providers' capacity rows side by side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.core.matrices import build_stacked_qp
from repro.core.state import Trajectory
from repro.core.costs import total_cost
from repro.game.players import ServiceProvider
from repro.solvers.qp import QPSettings, QPStatus, solve_qp

__all__ = ["SWPSolution", "SWPInfeasibleError", "solve_swp"]


@dataclass(frozen=True)
class SWPSolution:
    """Solution of the social welfare problem.

    Attributes:
        trajectories: per-provider optimal trajectories.
        provider_costs: each provider's objective at the social optimum
            (including its share of any shortfall penalty).
        total_cost: the social optimum ``sum_i J^i``.
        total_shortfall: unmet demand (elastic mode only; 0 when hard).
        iterations: QP iterations.
    """

    trajectories: list[Trajectory]
    provider_costs: np.ndarray
    total_cost: float
    total_shortfall: float
    iterations: int


class SWPInfeasibleError(RuntimeError):
    """Aggregate demand cannot be served within the physical capacities."""


def solve_swp(
    providers: list[ServiceProvider],
    capacity: np.ndarray,
    slack_penalty: float | None = None,
    settings: QPSettings | None = None,
) -> SWPSolution:
    """Solve the SWP exactly as one joint QP.

    Args:
        providers: the SPs (same data centers and horizon).
        capacity: physical per-DC capacity, shape ``(L,)``.
        slack_penalty: if given, allow demand shortfall at this per-unit
            penalty (use the same value as the game config when comparing
            against :func:`repro.game.best_response.compute_equilibrium`).
        settings: QP solver settings.

    Returns:
        The :class:`SWPSolution`.

    Raises:
        SWPInfeasibleError: hard-constrained and infeasible.
        ValueError: on inconsistent providers.
    """
    if not providers:
        raise ValueError("need at least one provider")
    horizons = {p.horizon for p in providers}
    if len(horizons) != 1:
        raise ValueError(f"providers disagree on horizon: {sorted(horizons)}")
    T = horizons.pop()
    L = providers[0].instance.num_datacenters
    capacity = np.asarray(capacity, dtype=float)
    if capacity.shape != (L,):
        raise ValueError(f"capacity must be ({L},), got {capacity.shape}")

    # Per-provider blocks with private capacity rows neutralized (inf).
    blocks = []
    for provider in providers:
        relaxed = provider.instance.with_capacities(np.full(L, np.inf))
        blocks.append(
            build_stacked_qp(
                relaxed,
                provider.demand,
                provider.prices,
                demand_slack_penalty=slack_penalty,
            )
        )

    P = sp.block_diag([b.P for b in blocks], format="csc")
    q = np.concatenate([b.q for b in blocks])
    A_private = sp.block_diag([b.A for b in blocks], format="csc")
    l_private = np.concatenate([b.l for b in blocks])
    u_private = np.concatenate([b.u for b in blocks])

    # Coupled capacity rows: sum_i s^i * sum_v x^i_t[l, v] <= C_l, i.e.
    # every provider's own capacity rows side by side.
    coupling = sp.hstack([b.A[b.blocks.capacity_rows()] for b in blocks], format="csc")
    A = sp.vstack([A_private, coupling], format="csc")
    l_vec = np.concatenate([l_private, np.full(T * L, -np.inf)])
    u_vec = np.concatenate([u_private, np.tile(capacity, T)])

    qp = solve_qp(P, q, A, l_vec, u_vec, settings=settings)
    if qp.status is QPStatus.PRIMAL_INFEASIBLE:
        raise SWPInfeasibleError(
            "SWP infeasible: aggregate demand exceeds physical capacity"
        )
    if qp.status is not QPStatus.OPTIMAL:
        raise RuntimeError(f"SWP solve failed with status {qp.status.value}")

    trajectories: list[Trajectory] = []
    provider_costs = np.empty(len(providers))
    total_shortfall = 0.0
    offsets = np.cumsum([0] + [b.q.size for b in blocks])
    for i, (provider, block) in enumerate(zip(providers, blocks)):
        z = qp.x[offsets[i] : offsets[i + 1]]
        states, controls, slack = block.blocks.unstack(z)
        states = np.maximum(states, 0.0)
        prev = np.concatenate(
            [provider.instance.initial_state[None], states[:-1]], axis=0
        )
        controls = states - prev
        trajectory = Trajectory(
            initial_state=provider.instance.initial_state.copy(),
            states=states,
            controls=controls,
        )
        trajectories.append(trajectory)
        audit = total_cost(
            states,
            controls,
            provider.prices,
            provider.instance.reconfiguration_weights,
        )
        penalty = (slack_penalty or 0.0) * float(np.maximum(slack, 0.0).sum())
        provider_costs[i] = audit.total + penalty
        total_shortfall += float(np.maximum(slack, 0.0).sum())

    return SWPSolution(
        trajectories=trajectories,
        provider_costs=provider_costs,
        total_cost=float(provider_costs.sum()),
        total_shortfall=total_shortfall,
        iterations=qp.iterations,
    )
