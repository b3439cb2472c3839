"""The closed-loop period kernel: MPC controller vs. realized demand and prices.

:class:`ClosedLoop` is the one implementation of an Algorithm 1 period over
the Fig. 2 architecture: observe → clamp the horizon → plan → apply
``u_{k|k}`` → record ``x_{k+1}``/``u_k``.  Its optional parts are a
capacity schedule (outages, see
:func:`repro.simulation.failures.run_closed_loop_with_failures`), a routed
part (monitoring, request routers and metrics, see
:class:`repro.simulation.engine.SimulationEngine`) and a plan hook (the
degradation ladder of :class:`repro.service.PlacementService`).  The
kernel never resets the controller: predictor histories, the warm solver
workspace and the imputation history carry on across capacity changes.

The controller sees only past observations (through its predictors); the
loop scores each applied move against the *realized* next-period demand and
price — so prediction error shows up as either over-provisioning cost or
SLA shortfall, exactly the trade-off Figures 9/10 explore.

Period convention: at period ``k`` the controller observes ``(D_k, p_k)``,
moves to ``x_{k+1}``, and that allocation serves the realized demand
``D_{k+1}`` at realized prices ``p_{k+1}``.  A run over a ``(V, K)`` demand
matrix therefore performs ``K - 1`` control steps.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.control.horizon import effective_horizon
from repro.control.mpc import MPCController, MPCStep
from repro.core.costs import CostBreakdown, total_cost
from repro.core.state import Trajectory

if TYPE_CHECKING:
    from repro.routing.router import RoutingDecision
    from repro.simulation.engine import RoutedPart

__all__ = ["ClosedLoop", "ClosedLoopResult", "run_closed_loop"]

# Tolerance above a site's capacity before its servers count as stranded.
_EVICTION_TOL = 1e-9


@dataclass(frozen=True)
class ClosedLoopResult:
    """Everything a closed-loop run produced.

    Attributes:
        trajectory: realized states/controls over the run.
        costs: realized cost audit (allocation at realized prices +
            reconfiguration).
        unmet_demand: shape ``(K-1, V)`` — positive where the realized
            demand exceeded what the allocation could serve under the SLA
            (prediction shortfall); zero when the SLA was met.
        realized_demand: the ``(V, K)`` demand the run was scored against.
        realized_prices: the ``(L, K)`` prices the run was scored against.
        steps: per-period controller outputs (forecasts, plans).
    """

    trajectory: Trajectory
    costs: CostBreakdown
    unmet_demand: np.ndarray
    realized_demand: np.ndarray
    realized_prices: np.ndarray
    steps: tuple[MPCStep, ...]

    @property
    def total_cost(self) -> float:
        return self.costs.total

    @property
    def total_unmet_demand(self) -> float:
        return float(self.unmet_demand.sum())

    @property
    def sla_violation_periods(self) -> int:
        """Number of periods with any unmet demand."""
        return int(np.any(self.unmet_demand > 1e-9, axis=1).sum())

    def servers_per_datacenter(self) -> np.ndarray:
        """Allocation per data center over time, shape ``(K-1, L)``."""
        return self.trajectory.servers_per_datacenter()


class ClosedLoop:
    """The period kernel and the record of its run.

    Args:
        controller: the MPC controller; its current state is ``x_0``.
        demand: realized demand, shape ``(V, K)``.
        prices: realized per-server prices, shape ``(L, K)``.
        capacities: optional ``(K, L)`` capacity schedule; row ``k + 1``
            holds while period ``k`` plans.
        routed: optional monitoring/router/metrics part.

    Raises:
        ValueError: on shape mismatches.
    """

    def __init__(
        self,
        controller: MPCController,
        demand: np.ndarray,
        prices: np.ndarray,
        capacities: np.ndarray | None = None,
        routed: RoutedPart | None = None,
    ) -> None:
        demand = np.asarray(demand, dtype=float)
        prices = np.asarray(prices, dtype=float)
        V = controller.instance.num_locations
        L = controller.instance.num_datacenters
        if demand.ndim != 2 or demand.shape[0] != V:
            raise ValueError(f"demand must be ({V}, K), got {demand.shape}")
        K = demand.shape[1]
        if prices.shape != (L, K):
            raise ValueError(f"prices must be ({L}, {K}), got {prices.shape}")
        if capacities is not None:
            capacities = np.asarray(capacities, dtype=float)
            if capacities.shape != (K, L):
                raise ValueError(
                    f"capacities must be ({K}, {L}), got {capacities.shape}"
                )
        self.controller, self.demand, self.prices = controller, demand, prices
        self.capacities, self.routed = capacities, routed
        self.initial_state = controller.state
        self.states: list[np.ndarray] = []
        self.controls: list[np.ndarray] = []
        self.decisions: list[RoutingDecision] = []

    @property
    def num_steps(self) -> int:
        """Controllable periods of the run (``K - 1``)."""
        return self.demand.shape[1] - 1

    @property
    def period(self) -> int:
        """Zero-based index of the next period to run."""
        return len(self.states)

    def step(
        self,
        observed_demand: np.ndarray | None = None,
        observed_prices: np.ndarray | None = None,
        plan: Callable[[int], MPCStep] | None = None,
    ) -> MPCStep:
        """Run the next period.

        Args:
            observed_demand: what monitoring reports for ``D_k`` (default:
                the realized demand; the service passes perturbed
                telemetry).
            observed_prices: the same for ``p_k``.
            plan: replacement of ``controller.plan(horizon)`` (the
                service's degradation ladder).
        """
        k, controller, routed = self.period, self.controller, self.routed
        previous = self.states[-1] if self.states else self.initial_state
        if self.capacities is not None:
            self._apply_capacities(self.capacities[k + 1])
        demand = self.demand[:, k] if observed_demand is None else observed_demand
        prices = self.prices[:, k] if observed_prices is None else observed_prices
        if routed is not None:
            observation = routed.monitoring.record(demand, prices)
            demand, prices = observation.demand, observation.prices
        controller.observe(demand, prices)
        horizon = effective_horizon(controller.config.window, k, self.num_steps)
        step = controller.plan(horizon) if plan is None else plan(horizon)
        self.states.append(step.new_state)
        # With a schedule the realized move includes any eviction.
        self.controls.append(
            step.applied_control
            if self.capacities is None
            else step.new_state - previous
        )
        if routed is not None:
            routed.router.update_allocation(step.new_state)
            decision = routed.router.route(self.demand[:, k + 1])
            self.decisions.append(decision)
            routed.metrics.record_period(
                allocation=step.new_state,
                control=step.applied_control,
                prices=self.prices[:, k + 1],
                recon_weights=controller.instance.reconfiguration_weights,
                assignment=decision.assignment,
                latency=decision.latency,
                unserved=float(decision.unserved.sum()),
                sla_violated=not decision.all_sla_satisfied,
            )
        return step

    def _apply_capacities(self, capacities: np.ndarray) -> None:
        """Swap in this period's capacities.  A failed site cannot carry
        yesterday's allocation into the plan: its servers scale down to
        what survives."""
        controller = self.controller
        controller.set_capacities(capacities)
        state = controller.state
        used = controller.instance.server_size * state.sum(axis=1)
        stranded = used > capacities + _EVICTION_TOL
        if stranded.any():
            state[stranded] *= (capacities[stranded] / used[stranded])[:, None]
            controller.state = state

    def run(self) -> tuple[MPCStep, ...]:
        """Run the remaining periods; returns their steps."""
        return tuple(self.step() for _ in range(self.period, self.num_steps))

    def trajectory_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Realized states and controls so far, each ``(k, L, V)``."""
        if not self.states:
            empty = np.empty((0, *self.initial_state.shape))
            return empty, empty.copy()
        return np.stack(self.states), np.stack(self.controls)

    def result(self, steps: tuple[MPCStep, ...]) -> ClosedLoopResult:
        """Score the run against the realized demand and prices."""
        states, controls = self.trajectory_arrays()
        instance = self.controller.instance
        served = (instance.demand_coefficients * states).sum(axis=1)
        return ClosedLoopResult(
            trajectory=Trajectory(self.initial_state, states, controls),
            costs=total_cost(
                states, controls, self.prices[:, 1:], instance.reconfiguration_weights
            ),
            unmet_demand=np.maximum(self.demand[:, 1:].T - served, 0.0),
            realized_demand=self.demand.copy(),
            realized_prices=self.prices.copy(),
            steps=steps,
        )


def run_closed_loop(
    controller: MPCController,
    demand: np.ndarray,
    prices: np.ndarray,
) -> ClosedLoopResult:
    """Drive ``controller`` over realized ``demand``/``prices`` trajectories.

    Args:
        controller: a (fresh or reset) MPC controller.
        demand: realized demand, shape ``(V, K)`` with ``K >= 2``.
        prices: realized per-server prices, shape ``(L, K)``.

    Returns:
        The :class:`ClosedLoopResult`.

    Raises:
        ValueError: on shape mismatches or too-short runs.
        DSPPInfeasibleError: if some period's forecast cannot be served.
    """
    loop = ClosedLoop(controller, demand, prices)
    if loop.num_steps < 1:
        raise ValueError("need at least 2 periods (one observation, one step)")
    return loop.result(loop.run())
