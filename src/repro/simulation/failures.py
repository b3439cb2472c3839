"""Data-center failure injection.

Section III lists "system failure" next to flash crowds as the
unexpected events a dynamic controller must survive.  A failure here is a
temporary capacity collapse at one data center: capacity drops to a
fraction (0 = total outage) for a window of periods, then recovers.  The
failure-aware closed loop is the period kernel
(:class:`repro.control.loop.ClosedLoop`) with a capacity schedule: it feeds
the controller the *current* capacity vector before each decision — the
controller sees outages only as they happen (no failure prediction),
exactly like a monitoring-driven system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.control.loop import ClosedLoop, ClosedLoopResult
from repro.control.mpc import MPCController

__all__ = ["OutageEvent", "capacity_schedule", "run_closed_loop_with_failures"]


@dataclass(frozen=True)
class OutageEvent:
    """One capacity-loss event at a single data center.

    Attributes:
        datacenter_index: which data center fails.
        start_period: first affected control period.
        duration: number of affected periods (>= 1).
        remaining_fraction: capacity retained during the outage (0 for a
            full outage, 0.5 for losing half the machines, ...).
    """

    datacenter_index: int
    start_period: int
    duration: int
    remaining_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.datacenter_index < 0 or self.start_period < 0:
            raise ValueError("indices must be nonnegative")
        if self.duration < 1:
            raise ValueError(f"duration must be >= 1, got {self.duration}")
        if not 0.0 <= self.remaining_fraction < 1.0:
            raise ValueError(
                f"remaining_fraction must be in [0, 1), got {self.remaining_fraction}"
            )

    def is_active(self, period: int) -> bool:
        return self.start_period <= period < self.start_period + self.duration


def capacity_schedule(
    base_capacity: np.ndarray, num_periods: int, outages: list[OutageEvent]
) -> np.ndarray:
    """Materialize the per-period capacity matrix under the outages.

    Args:
        base_capacity: nominal capacities, shape ``(L,)``.
        num_periods: schedule length.
        outages: events to apply (overlapping events at the same DC
            compound multiplicatively).

    Returns:
        Array of shape ``(num_periods, L)``.

    Raises:
        IndexError: if an event names a nonexistent data center.
    """
    base_capacity = np.asarray(base_capacity, dtype=float)
    L = base_capacity.size
    schedule = np.tile(base_capacity, (num_periods, 1))
    for event in outages:
        if event.datacenter_index >= L:
            raise IndexError(
                f"outage at data center {event.datacenter_index} but only {L} exist"
            )
        for period in range(num_periods):
            if event.is_active(period):
                schedule[period, event.datacenter_index] *= event.remaining_fraction
    return schedule


def run_closed_loop_with_failures(
    controller: MPCController,
    demand: np.ndarray,
    prices: np.ndarray,
    outages: list[OutageEvent],
) -> ClosedLoopResult:
    """Closed loop where capacities change under a failure schedule.

    Before each control period the controller's capacity vector is set to
    the schedule's current value — it re-plans against what is actually
    available, but has no advance warning.  Servers stranded at a failed
    site are evicted (state clamped to the surviving capacity) *before*
    the controller plans, modelling the abrupt loss.  Nothing else is
    reset: forecasts, warm starts and carry-forward imputation continue
    across capacity changes.  With no outages this is exactly
    :func:`~repro.control.loop.run_closed_loop`.

    The controller should run in elastic mode
    (:attr:`repro.control.mpc.MPCConfig.slack_penalty`): during a large
    outage the surviving capacity may simply not cover demand.

    Args:
        controller: an MPC controller (fresh or reset).
        demand: realized demand, shape ``(V, K)``.
        prices: realized prices, shape ``(L, K)``.
        outages: the failure schedule.

    Returns:
        A :class:`~repro.control.loop.ClosedLoopResult`; unmet demand now
        includes outage-induced shortfall; controls are the realized moves,
        evictions included.
    """
    schedule = None
    if outages:
        K = np.shape(demand)[-1]
        # A full outage is modelled as an epsilon capacity: the instance
        # requires positive capacities, and epsilon admits no real server.
        schedule = np.maximum(
            capacity_schedule(controller.instance.capacities, K, outages), 1e-9
        )
    loop = ClosedLoop(controller, demand, prices, capacities=schedule)
    return loop.result(loop.run())
