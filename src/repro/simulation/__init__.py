"""Discrete-time simulation layer (the Figure 2 system architecture).

* :mod:`repro.simulation.scenario` — scenario builder gluing topology,
  workload and pricing into a ready-to-run DSPP setting (including the
  paper's own evaluation setup, :func:`build_paper_scenario`).
* :mod:`repro.simulation.monitoring` — the monitoring module (demand and
  price observation streams).
* :mod:`repro.simulation.metrics` — cost/latency/reconfiguration metric
  collection and summaries.
* :mod:`repro.simulation.engine` — the full closed-loop engine: the
  period kernel with monitoring, request routers and metrics in the loop.
* :mod:`repro.simulation.queue_sim` — event-driven queue simulation that
  validates the analytical M/M/1 layer empirically.
* :mod:`repro.simulation.failures` — data-center outage injection and the
  failure-aware closed loop.
"""

from repro.simulation.scenario import Scenario, build_paper_scenario, build_small_scenario
from repro.simulation.monitoring import MonitoringModule, Observation
from repro.simulation.metrics import MetricsCollector, RunSummary
from repro.simulation.engine import RoutedPart, SimulationEngine, SimulationResult
from repro.simulation.failures import (
    OutageEvent,
    capacity_schedule,
    run_closed_loop_with_failures,
)
from repro.simulation.queue_sim import (
    EmpiricalSLAResult,
    QueueSimResult,
    effective_sample_size,
    simulate_mm1,
    simulate_mmc,
    simulate_split_servers,
    sojourn_mean_ci,
    validate_sla_empirically,
)

__all__ = [
    "Scenario",
    "build_paper_scenario",
    "build_small_scenario",
    "MonitoringModule",
    "Observation",
    "MetricsCollector",
    "RunSummary",
    "RoutedPart",
    "SimulationEngine",
    "SimulationResult",
    "OutageEvent",
    "capacity_schedule",
    "run_closed_loop_with_failures",
    "EmpiricalSLAResult",
    "QueueSimResult",
    "effective_sample_size",
    "sojourn_mean_ci",
    "simulate_mm1",
    "simulate_mmc",
    "simulate_split_servers",
    "validate_sla_empirically",
]
