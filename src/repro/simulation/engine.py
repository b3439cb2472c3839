"""The full simulation engine: all four Figure 2 components in the loop.

Per period the engine (1) has the monitoring module record the realized
demand and prices, (2) lets the controller (which embeds the analysis and
prediction module) compute and apply ``u_{k|k}``, (3) pushes the new
allocation to the request router, which (4) splits the *next* period's
realized demand and reports latency/SLA outcomes, all of which feed the
metrics collector.

Steps (1), (3) and (4) are the :class:`RoutedPart`; the engine is the
period kernel :class:`repro.control.loop.ClosedLoop` run with it.  The
router never feeds back into control, so the engine's states are exactly
those of :func:`repro.control.loop.run_closed_loop`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.control.loop import ClosedLoop
from repro.control.mpc import MPCController
from repro.routing.router import RequestRouter, RoutingDecision
from repro.simulation.metrics import MetricsCollector, RunSummary
from repro.simulation.monitoring import MonitoringModule
from repro.simulation.scenario import Scenario

__all__ = ["RoutedPart", "SimulationResult", "SimulationEngine"]


@dataclass(frozen=True)
class RoutedPart:
    """Monitoring, request routers and metrics around the controller.

    Attributes:
        monitoring: records each period's observation.
        router: splits realized demand over the allocation.
        metrics: scores every routed period.
    """

    monitoring: MonitoringModule
    router: RequestRouter
    metrics: MetricsCollector

    @classmethod
    def for_scenario(cls, scenario: Scenario) -> RoutedPart:
        """Fresh components for ``scenario``."""
        instance = scenario.instance
        return cls(
            monitoring=MonitoringModule(
                num_locations=instance.num_locations,
                num_datacenters=instance.num_datacenters,
            ),
            # The SLA policy works in seconds; the topology layer reports ms.
            router=RequestRouter(
                network_latency=scenario.latency.latency_ms * 1e-3,
                demand_coefficients=instance.demand_coefficients,
                service_rate=scenario.sla.service_rate,
                max_latency=scenario.sla.max_latency,
            ),
            metrics=MetricsCollector(),
        )


@dataclass(frozen=True)
class SimulationResult:
    """Everything a full engine run produced.

    Attributes:
        summary: aggregated metrics.
        states: realized allocations ``x_1..x_{K-1}``, shape ``(K-1, L, V)``.
        controls: applied moves, shape ``(K-1, L, V)``.
        routing: per-period routing decisions.
        monitoring: the filled monitoring module (observation history).
    """

    summary: RunSummary
    states: np.ndarray
    controls: np.ndarray
    routing: tuple[RoutingDecision, ...]
    monitoring: MonitoringModule


class SimulationEngine:
    """Glues controller, router, monitoring and metrics over a scenario.

    Args:
        scenario: the setting to run (realized demand/prices inside).
        controller: an MPC controller built over ``scenario.instance``
            (its predictors define the analysis-and-prediction module).
    """

    def __init__(self, scenario: Scenario, controller: MPCController) -> None:
        instance = scenario.instance
        if controller.instance.datacenters != instance.datacenters:
            raise ValueError("controller and scenario disagree on data centers")
        if controller.instance.locations != instance.locations:
            raise ValueError("controller and scenario disagree on locations")
        self.scenario = scenario
        self.controller = controller
        self.routed = RoutedPart.for_scenario(scenario)

    def run(self) -> SimulationResult:
        """Run the whole scenario horizon.

        Returns:
            The :class:`SimulationResult`.
        """
        loop = ClosedLoop(
            self.controller,
            self.scenario.demand,
            self.scenario.prices,
            routed=self.routed,
        )
        loop.run()
        states, controls = loop.trajectory_arrays()
        return SimulationResult(
            summary=self.routed.metrics.summary(),
            states=states,
            controls=controls,
            routing=tuple(loop.decisions),
            monitoring=self.routed.monitoring,
        )
