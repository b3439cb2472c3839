"""The resident placement service: a supervised, restartable control loop.

:class:`PlacementService` runs the same period kernel as
:class:`repro.simulation.engine.SimulationEngine` —
:class:`repro.control.loop.ClosedLoop` with its routed part (monitoring →
controller → router → metrics) — with the degradation ladder as the
kernel's plan hook, and wraps every period in three robustness layers:

1. **Checkpoint/restore** — at configurable period boundaries the full
   controller state is written through :mod:`repro.service.checkpoint`,
   in three parts.  The scenario and config go into the directory's base
   file once.  The new tails of every append-only list (trajectory,
   routing decisions, terminal rungs, degradation log, monitoring
   records, predictor histories, metrics) are appended to the journal.
   A small generation pickles the rest: the solver workspace's true
   state, router allocation, fault-injector RNG and the references to
   the other two parts.  All of it happens inside the one
   :func:`~repro.service.checkpoint.write_checkpoint` call per period.
   ``kill -9`` at any point followed by :meth:`PlacementService.restore`
   resumes a trajectory *bitwise identical* to the uninterrupted run — the
   ``service_crash_recovery`` check in :mod:`repro.verify` fuzzes exactly
   this property.
2. **Degradation ladder** — a misbehaving solve descends
   warm → cold → hold (see :mod:`repro.service.ladder`), each
   transition recorded in the :class:`~repro.service.ladder.DegradationLog`.
3. **Deterministic fault injection** — an optional
   :class:`~repro.service.faults.FaultPlan` perturbs telemetry, squeezes
   deadlines and corrupts checkpoint generations, reproducibly.

``python -m repro serve`` drives this class from the command line; see
``docs/OPERATIONS.md`` for the operational story.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.control.loop import ClosedLoop
from repro.control.mpc import MPCConfig, MPCController, MPCStep
from repro.core.dspp import DSPPInfeasibleError
from repro.prediction.ar import ARPredictor
from repro.prediction.naive import LastValuePredictor
from repro.routing.router import RoutingDecision
from repro.service.checkpoint import CheckpointSeries, load_latest, write_checkpoint
from repro.service.faults import FaultInjector, FaultPlan
from repro.service.ladder import LADDER_RUNGS, DegradationLog, LadderConfig
from repro.simulation.engine import RoutedPart, SimulationResult
from repro.simulation.scenario import Scenario

__all__ = ["PlacementService", "ServiceConfig", "ServiceResult"]

# Exceptions a solve attempt may legitimately die with; anything else is a
# programming error and propagates (the ladder is a numerics supervisor,
# not a bug shield).
_SOLVE_FAILURES = (
    DSPPInfeasibleError,
    FloatingPointError,  # includes repro.sanitize.SanitizeError
    np.linalg.LinAlgError,
    RuntimeError,
)


@dataclass(frozen=True)
class ServiceConfig:
    """Configuration of a resident service run.

    Attributes:
        window: MPC prediction horizon ``W``.
        predictor: forecaster family, ``"last_value"`` or ``"ar"``.
        imputation: telemetry repair policy forwarded to
            :class:`~repro.control.mpc.MPCConfig` (the service defaults to
            ``"carry_forward"`` — one bad sample must not kill the loop).
        slack_penalty: per-unit demand-shortfall penalty of the elastic
            horizon solves (keeps degraded periods feasible).
        ladder: retry budgets and the per-period deadline.
        checkpoint_interval: write a generation every this many periods.
        keep_checkpoints: generations retained on disk.
        throttle_s: sleep this long after each period (operational pacing;
            also what makes mid-run SIGKILL tests deterministic).
    """

    window: int = 3
    predictor: str = "last_value"
    imputation: str = "carry_forward"
    slack_penalty: float = 1e3
    ladder: LadderConfig = LadderConfig()
    checkpoint_interval: int = 1
    keep_checkpoints: int = 3
    throttle_s: float = 0.0

    def __post_init__(self) -> None:
        if self.predictor not in ("last_value", "ar"):
            raise ValueError(
                f"predictor must be 'last_value' or 'ar', got {self.predictor!r}"
            )
        if self.checkpoint_interval < 1:
            raise ValueError(
                f"checkpoint_interval must be >= 1, got {self.checkpoint_interval}"
            )
        if self.keep_checkpoints < 1:
            raise ValueError(
                f"keep_checkpoints must be >= 1, got {self.keep_checkpoints}"
            )
        if self.throttle_s < 0:
            raise ValueError(f"throttle_s must be >= 0, got {self.throttle_s}")


@dataclass(frozen=True)
class ServiceResult(SimulationResult):
    """Everything a completed service run produced: the engine's result
    plus the service's degradation record.

    Attributes:
        terminal_rungs: the ladder rung each period terminated at
            (``"warm"`` everywhere on a fault-free run).
        log: the structured degradation log.
    """

    terminal_rungs: tuple[str, ...]
    log: DegradationLog


def _build_predictor(kind: str, num_series: int) -> LastValuePredictor | ARPredictor:
    if kind == "ar":
        return ARPredictor(num_series)
    return LastValuePredictor(num_series)


class PlacementService:
    """Resident, checkpointed, fault-tolerant placement control loop.

    Args:
        scenario: the setting to run (written into the checkpoint
            directory's base file, so a restore is fully self-contained).
        config: service configuration.
        checkpoint_dir: where generations are written (``None``: the run
            is not checkpointed).
        fault_plan: optional deterministic chaos schedule.
    """

    def __init__(
        self,
        scenario: Scenario,
        config: ServiceConfig | None = None,
        checkpoint_dir: Path | str | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        self.scenario = scenario
        self.config = config or ServiceConfig()
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        instance = scenario.instance
        self.controller = MPCController(
            instance,
            _build_predictor(self.config.predictor, instance.num_locations),
            _build_predictor(self.config.predictor, instance.num_datacenters),
            MPCConfig(
                window=self.config.window,
                slack_penalty=self.config.slack_penalty,
                imputation=self.config.imputation,
            ),
        )
        self.routed = RoutedPart.for_scenario(scenario)
        self.log = DegradationLog()
        self.injector = FaultInjector(fault_plan) if fault_plan is not None else None
        self._terminal_rungs: list[str] = []
        self._loop = self._closed_loop([], [], [])
        self._series = CheckpointSeries()

    def _closed_loop(
        self,
        states: list[np.ndarray],
        controls: list[np.ndarray],
        decisions: list[RoutingDecision],
    ) -> ClosedLoop:
        loop = ClosedLoop(
            self.controller,
            self.scenario.demand,
            self.scenario.prices,
            routed=self.routed,
        )
        loop.states, loop.controls, loop.decisions = states, controls, decisions
        return loop

    # ------------------------------------------------------------------
    # checkpoint / restore

    @property
    def period(self) -> int:
        """Zero-based index of the next period to run."""
        return self._loop.period

    @property
    def num_steps(self) -> int:
        """Controllable periods in the scenario (``K - 1``)."""
        return self.scenario.num_periods - 1

    def _snapshot(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "config": self.config,
            "controller": self.controller,
            "routed": self.routed,
            "injector": self.injector,
            "states": self._loop.states,
            "controls": self._loop.controls,
            "decisions": self._loop.decisions,
            "terminal_rungs": self._terminal_rungs,
            "log": self.log,
        }

    def _base(self) -> dict[str, Any]:
        """The immutable objects, written once per checkpoint directory."""
        return {
            "scenario": self.scenario,
            "config": self.config,
            "instance": self.scenario.instance,
        }

    def _journaled_lists(self) -> dict[str, list[Any]]:
        """Every append-only list the snapshot reaches: checkpoints append
        their new tails to the journal instead of re-pickling them."""
        controller, routed = self.controller, self.routed
        metrics = routed.metrics
        return {
            "states": self._loop.states,
            "controls": self._loop.controls,
            "decisions": self._loop.decisions,
            "terminal_rungs": self._terminal_rungs,
            "log": self.log._events,
            "monitoring": routed.monitoring._records,
            "demand_history": controller.demand_predictor._history,
            "price_history": controller.price_predictor._history,
            "allocation_costs": metrics.allocation_costs,
            "reconfiguration_costs": metrics.reconfiguration_costs,
            "reconfiguration_magnitudes": metrics.reconfiguration_magnitudes,
            "unserved": metrics.unserved,
            "violation_flags": metrics.violation_flags,
        }

    def checkpoint(self) -> Path:
        """Write one generation now; returns the file written.

        Raises:
            RuntimeError: if the service has no checkpoint directory.
        """
        if self.checkpoint_dir is None:
            raise RuntimeError("service was created without a checkpoint_dir")
        path = write_checkpoint(
            self.checkpoint_dir,
            self.period,
            self._snapshot(),
            keep=self.config.keep_checkpoints,
            base=self._base(),
            journal=self._journaled_lists(),
            series=self._series,
        )
        # Fault injection: damage the generation just written (the
        # injector state saved *inside* it predates the damage, so a
        # restored run re-corrupts identically).
        if self.injector is not None and self.injector.corrupts_checkpoint(
            self.period - 1
        ):
            detail = self.injector.corrupt_file(path)
            self.log.record(
                self.period - 1,
                "service",
                "checkpoint_corrupted",
                f"{path.name}: {detail}",
            )
        return path

    @classmethod
    def restore(cls, checkpoint_dir: Path | str) -> "PlacementService":
        """Rebuild a service from the newest loadable generation.

        Corrupt newer generations are skipped loudly (recorded in the
        restored service's degradation log).

        Raises:
            CheckpointNotFoundError: nothing loadable in the directory.
            CheckpointVersionError: incompatible checkpoint format.
        """
        snapshot, path, skipped, series = load_latest(checkpoint_dir)
        service = cls.__new__(cls)
        service.scenario = snapshot["scenario"]
        service.config = snapshot["config"]
        service.checkpoint_dir = Path(checkpoint_dir)
        service.controller = snapshot["controller"]
        service.routed = snapshot["routed"]
        service.injector = snapshot["injector"]
        service._terminal_rungs = snapshot["terminal_rungs"]
        service._loop = service._closed_loop(
            snapshot["states"], snapshot["controls"], snapshot["decisions"]
        )
        service.log = snapshot["log"]
        service._series = series
        for corrupt in skipped:
            service.log.record(
                service.period,
                "service",
                "checkpoint_fallback",
                f"skipped corrupt generation {corrupt.name}",
            )
        service.log.record(
            service.period,
            "service",
            "restored",
            f"resumed at period {service.period} from {path.name}",
        )
        return service

    # ------------------------------------------------------------------
    # the control loop

    def run(self, until: int | None = None) -> ServiceResult | None:
        """Run periods until the scenario ends (or ``until`` is reached).

        Args:
            until: stop after this period index has completed (used by
                crash-recovery tests to abandon a run mid-horizon);
                ``None`` runs to the end.

        Returns:
            The :class:`ServiceResult` when the scenario completed,
            ``None`` when stopped early by ``until``.
        """
        target = self.num_steps if until is None else min(until, self.num_steps)
        while self.period < target:
            self._run_period(self.period)
            boundary = self.period
            if self.checkpoint_dir is not None and (
                boundary % self.config.checkpoint_interval == 0
                or boundary == self.num_steps
            ):
                self.checkpoint()
            if self.config.throttle_s > 0:
                time.sleep(self.config.throttle_s)
        if self.period >= self.num_steps:
            return self.result()
        return None

    def result(self) -> ServiceResult:
        """Assemble the result of the periods completed so far."""
        states, controls = self._loop.trajectory_arrays()
        return ServiceResult(
            summary=self.routed.metrics.summary(),
            states=states,
            controls=controls,
            routing=tuple(self._loop.decisions),
            monitoring=self.routed.monitoring,
            terminal_rungs=tuple(self._terminal_rungs),
            log=self.log,
        )

    def _run_period(self, k: int) -> None:
        seen_demand = self.scenario.demand[:, k]
        seen_prices = self.scenario.prices[:, k]
        if self.injector is not None:
            seen_demand, seen_prices, kinds = self.injector.perturb_observation(
                k, seen_demand, seen_prices
            )
            for kind in kinds:
                self.log.record(k, "service", "fault", kind)
        try:
            step = self._loop.step(seen_demand, seen_prices, self._ladder_solve)
        except Exception as error:
            # A terminal service failure (strict-mode telemetry rejection,
            # carry-forward with no history, a bug): record it before
            # propagating so the operator sees *why* the loop stopped.
            self.log.record(
                k, "service", "error", f"{type(error).__name__}: {error}"
            )
            raise
        if step.imputed_demand is not None or step.imputed_prices is not None:
            repaired = int(
                (0 if step.imputed_demand is None else step.imputed_demand.sum())
                + (0 if step.imputed_prices is None else step.imputed_prices.sum())
            )
            self.log.record(
                k, "service", "imputed", f"carried forward {repaired} entries"
            )

    def _ladder_solve(self, horizon: int) -> MPCStep:
        """Descend the degradation ladder until a rung terminates."""
        k = self.period
        cfg = self.config.ladder
        squeeze = 0 if self.injector is None else self.injector.squeeze_depth(k)
        start = time.monotonic() if cfg.deadline_s is not None else 0.0
        degraded = False
        for rung_index, rung in enumerate(LADDER_RUNGS):
            # The terminal rung performs no solve, so neither a squeeze nor
            # the deadline skips it.
            if rung == "hold":
                step = self.controller.hold(horizon)
                slack = self._hold_slack(step)
                self.log.record(
                    k,
                    "hold",
                    "held",
                    f"placement held; unserved-demand slack {slack:.6g}",
                )
                self._terminal_rungs.append("hold")
                return step
            if rung_index < squeeze:
                self.log.record(
                    k, rung, "timeout", "deadline squeeze (fault injection)"
                )
                degraded = True
                continue
            if cfg.deadline_s is not None and time.monotonic() - start > cfg.deadline_s:
                self.log.record(
                    k, rung, "timeout", f"period deadline {cfg.deadline_s}s exceeded"
                )
                degraded = True
                continue
            for attempt in range(1, cfg.attempts_per_rung + 1):
                try:
                    # solve_dspp raises on every non-OPTIMAL status, so a
                    # returned step is an optimal one.
                    step = self.controller.plan(horizon, cold=rung == "cold")
                except _SOLVE_FAILURES as error:
                    self.log.record(
                        k,
                        rung,
                        "error",
                        f"{type(error).__name__}: {error}",
                        attempt,
                    )
                    degraded = True
                    continue
                if degraded or rung != "warm":
                    self.log.record(
                        k, rung, "accepted", f"recovered at rung {rung!r}", attempt
                    )
                self._terminal_rungs.append(rung)
                return step
        raise AssertionError("unreachable: the hold rung always terminates")

    def _hold_slack(self, step: MPCStep) -> float:
        """Unserved demand implied by holding the previous placement."""
        coeff = self.scenario.instance.demand_coefficients
        served = np.einsum("lv,lv->v", step.new_state, coeff)
        shortfall = np.maximum(step.predicted_demand[:, 0] - served, 0.0)
        return float(shortfall.sum())
