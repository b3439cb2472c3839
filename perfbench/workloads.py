"""The benchmark's workloads, driven through the production APIs.

* ``serve-paper`` runs :class:`PlacementService`, one control period per
  ``run(until=k + 1)``;
* ``game-paper`` runs :func:`run_mpc_game` on a provider pool;
* ``replay-paper`` runs :class:`EventEngine` against a fluid trajectory.

Every workload exposes ``setup(seed)`` (everything a user pays once per
start: input build, construction and the first, cold period; a run
times ``setup_samples`` of them) and
``run_pass(seed, deadline, tracer)`` (one set-up plus one timed pass over
the whole horizon on the inputs of ``seed``).  Inputs are pure functions
of the seed, so a pass repeated on the same seed must reproduce its
quality figures and trajectory digest bitwise.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import shutil
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from layers import ALL_GROUPS, PARENT_GROUPS, Tracer, instrument

# The benchmark's workloads (``BENCHMARK.json``), in the order
# ``--workload all`` runs them.
WORKLOADS = ("serve-paper", "game-paper", "replay-paper")


class DeadlineExceeded(RuntimeError):
    """The run's wall-clock cap expired in the middle of a pass."""


@dataclass
class PassResult:
    """One timed pass over a workload's horizon.

    ``quality`` holds the deterministic guards (``total_cost``,
    ``served_share``, ``sla_met_share``); ``digest`` hashes the trajectory
    so passes can be compared bitwise; ``checks`` lists failed output
    checks.  ``covered_s`` is the part of ``loop_s`` spent inside named
    layer spans (traced passes only).
    """

    setup_s: float
    period_s: list[float]
    loop_s: float
    attempted: int
    failed: int
    quality: dict[str, float] = field(default_factory=dict)
    digest: str = ""
    checks: list[str] = field(default_factory=list)
    covered_s: float = 0.0
    internal_s: float = 0.0
    units: int = 0

    @property
    def complete(self) -> bool:
        """The pass ran to the end of its horizon (its failed periods, if
        any, are counted in ``failed``)."""
        return bool(self.digest)


class Deadline:
    def __init__(self, at: float) -> None:
        self.at = at

    def expired(self) -> bool:
        return time.perf_counter() > self.at

    def check(self) -> None:
        if self.expired():
            raise DeadlineExceeded("wall-clock cap reached")


def pass_seed(seed: int, index: int) -> int:
    """Input seed of pass (or set-up) ``index`` of a run; pass 0 runs the
    seed's own inputs."""
    return seed + 1000 * index


class Workload:
    """What every workload shares: its name, the wall time one pass takes
    on the reference host (it sizes a run from ``--seconds``), the set-ups
    an untraced run times, and the steps a pass attempts."""

    name: str
    nominal_pass_s: float
    setup_samples: int
    steps_per_pass: int
    # Production modules the workload runs; imported before the first
    # timed set-up, so that no set-up pays the one-off import cost.
    modules: tuple[str, ...] = ()

    def preload(self) -> None:
        for module in self.modules:
            importlib.import_module(module)

    def pass_inputs(self, seed: int, index: int, count: int) -> dict[str, Any]:
        """Extra ``run_pass`` arguments of pass ``index`` of ``count``."""
        return {}

    def skipped_pass(self) -> PassResult:
        """A pass the run's wall-clock cap left unrun: every step failed."""
        return PassResult(
            setup_s=float("nan"),
            period_s=[],
            loop_s=0.0,
            attempted=self.steps_per_pass,
            failed=self.steps_per_pass,
        )


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


@contextmanager
def _traced(tracer: Tracer | None, groups: frozenset[str]) -> Iterator[None]:
    if tracer is None:
        yield
        return
    with instrument(tracer, groups):
        yield


def _set_coverage(result: PassResult, tracer: Tracer | None, lo: float, hi: float) -> None:
    if tracer is not None:
        result.covered_s, result.internal_s = tracer.coverage(lo, hi)


# ----------------------------------------------------------------------
# serve-paper


class ServeWorkload(Workload):
    """:class:`PlacementService` on ``build_paper_scenario``, one period per
    call, writing a checkpoint into ``workdir`` every period."""

    name = "serve-paper"
    modules = ("repro.service", "repro.simulation.scenario")

    def __init__(
        self,
        num_periods: int,
        window: int,
        workdir: Path,
        nominal_pass_s: float,
        setup_samples: int,
    ) -> None:
        self.nominal_pass_s = nominal_pass_s
        self.setup_samples = setup_samples
        self.steps_per_pass = num_periods - 1
        self.num_periods = num_periods
        self.window = window
        self.workdir = workdir

    def _start(self, seed: int) -> tuple[float, Any, Any]:
        from repro.service import PlacementService, ServiceConfig
        from repro.simulation.scenario import build_paper_scenario

        shutil.rmtree(self.workdir, ignore_errors=True)
        start = time.perf_counter()
        scenario = build_paper_scenario(num_periods=self.num_periods, seed=seed)
        service = PlacementService(
            scenario, ServiceConfig(window=self.window), checkpoint_dir=self.workdir
        )
        service.run(until=1)
        return time.perf_counter() - start, scenario, service

    def setup(self, seed: int) -> float:
        setup_s, _, _ = self._start(seed)
        return setup_s

    def run_pass(
        self,
        seed: int,
        deadline: Deadline,
        tracer: Tracer | None = None,
        groups: frozenset[str] = ALL_GROUPS,
    ) -> PassResult:
        with _traced(tracer, groups):
            setup_s, scenario, service = self._start(seed)
            num_steps = service.num_steps
            periods: list[float] = []
            loop_start = time.perf_counter()
            try:
                for k in range(1, num_steps):
                    deadline.check()
                    start = time.perf_counter()
                    service.run(until=k + 1)
                    periods.append(time.perf_counter() - start)
            except Exception as error:  # noqa: BLE001 - counted as failed periods
                print(f"{self.name}: period raised {type(error).__name__}: {error}")
            loop_end = time.perf_counter()
            result = PassResult(
                setup_s=setup_s,
                period_s=periods,
                loop_s=loop_end - loop_start,
                attempted=num_steps,
                failed=num_steps - 1 - len(periods),
                units=len(periods),
            )
            _set_coverage(result, tracer, loop_start, loop_end)
        if result.failed:  # a period raised or the cap hit: no outputs to check
            return result
        outcome = service.result()
        result.failed = outcome.terminal_rungs.count("hold")
        summary = outcome.summary
        offered = float(scenario.demand[:, 1 : num_steps + 1].sum())
        result.quality = {
            "total_cost": summary.total_cost,
            "served_share": 1.0 - summary.total_unserved_demand / offered,
            "sla_met_share": 1.0 - summary.sla_violation_periods / summary.periods,
        }
        result.digest = _digest(outcome.states, outcome.controls)
        shutil.rmtree(self.workdir, ignore_errors=True)
        return result


# ----------------------------------------------------------------------
# game-paper


class _StopGame(Exception):
    """Ends a set-up-only game run once its first period completed."""


class _GameClock:
    """Period boundaries of :func:`run_mpc_game`, stamped at the pool.

    Each period starts with exactly one ``set_problems`` call and the run
    ends by closing the pool, so the stamps split the loop into periods
    without touching the loop itself.
    """

    def __init__(self, deadline: Deadline, stop_at_period: int | None = None) -> None:
        self.deadline = deadline
        self.stop_at_period = stop_at_period
        self.stamps: list[float] = []
        self.end: float | None = None

    def pool_class(self) -> type:
        from repro.experiments.pool import ProviderPool

        clock = self

        class ClockedPool(ProviderPool):
            def set_problems(self, *args: Any, **kwargs: Any) -> None:
                clock.stamps.append(time.perf_counter())
                if clock.stop_at_period == len(clock.stamps) - 1:
                    raise _StopGame
                clock.deadline.check()
                super().set_problems(*args, **kwargs)

            def run_round(self, quotas: np.ndarray) -> Any:
                clock.deadline.check()
                return super().run_round(quotas)

            def close(self) -> None:
                if clock.end is None:
                    clock.end = time.perf_counter()
                super().close()

        return ClockedPool

    @contextmanager
    def installed(self) -> Iterator[None]:
        import repro.game.mpc_game as mpc_game

        original = mpc_game.ProviderPool
        mpc_game.ProviderPool = self.pool_class()  # type: ignore[misc]
        try:
            yield
        finally:
            mpc_game.ProviderPool = original  # type: ignore[misc]


def game_population(
    num_providers: int,
    L: int,
    V: int,
    num_periods: int,
    seed: int,
    headroom: float,
) -> tuple[list[Any], np.ndarray]:
    """N providers built like ``run_bench_game._providers``, over a whole
    closed-loop horizon, sharing a capacity ``headroom`` x aggregate peak.

    The population's structure (SLA coefficients and reconfiguration
    weights: ``run_bench_game``'s seed 0; per-location demand levels and
    per-data-center price levels) is drawn from fixed seeds, the same
    for every seed, as ``build_paper_scenario`` keeps its topology;
    ``seed`` draws the demand and price fluctuations.  With the structure
    drawn per seed too, the period times of one 168-period pass varied
    by 9-10% from seed to seed (5-6% with one structure), and ten runs
    spread by the population rather than by the program.

    ``run_bench_game`` sizes capacity at 1.25x peak; over a long horizon
    that pinches some sub-problems into the ADMM iteration cap, so the
    benchmark uses a larger headroom (see ``GAME_HEADROOM``).
    """
    from run_bench_game import _game_instance

    from repro.game.players import ServiceProvider

    providers = []
    hours = np.arange(num_periods, dtype=float)
    for i in range(num_providers):
        levels = np.random.default_rng([0, i])
        noise = np.random.default_rng([seed, i, 1])
        instance = _game_instance(L, V, i, 1.0)
        diurnal = 1.0 + 0.4 * np.sin(2.0 * np.pi * (hours + 3.0 * i) / 24.0)
        demand = 30.0 * diurnal[None, :] * levels.uniform(0.8, 1.2, size=(V, 1))
        demand = np.maximum(demand + noise.normal(scale=1.0, size=(V, num_periods)), 1.0)
        prices = levels.uniform(0.5, 2.0, size=(L, 1)) * diurnal[None, :]
        prices = np.maximum(prices + noise.normal(scale=0.05, size=(L, num_periods)), 0.05)
        providers.append(
            ServiceProvider(name=f"sp{i}", instance=instance, demand=demand, prices=prices)
        )
    peak = sum(float(p.servers_demanded().max()) for p in providers)
    return providers, np.full(L, headroom * peak / L)


class GameWorkload(Workload):
    """:func:`run_mpc_game` on a provider pool over a paper-scale population.

    Timed passes run the pool inline (``jobs=1``): one process, as the
    other workloads.  With worker processes on both vCPUs of a 2-vCPU
    host, every coordination round waited for the slower vCPU, and when
    the host took CPU time from the guest (steal 5-34% of a pass) a run
    slowed by up to 1.7x where an inline run slowed by 1.24x.  The
    pool's worker processes run in the traced run, at ``pool_jobs``.
    """

    name = "game-paper"
    modules = ("repro.game.mpc_game", "repro.game.players", "repro.solvers.qp", "run_bench_game")

    def __init__(
        self,
        num_providers: int,
        L: int,
        V: int,
        window: int,
        rounds: int,
        num_periods: int,
        headroom: float,
        pool_jobs: int,
        nominal_pass_s: float,
        setup_samples: int,
    ) -> None:
        self.nominal_pass_s = nominal_pass_s
        self.setup_samples = setup_samples
        self.steps_per_pass = num_periods - 1
        self.num_providers = num_providers
        self.L = L
        self.V = V
        self.window = window
        self.rounds = rounds
        self.num_periods = num_periods
        self.headroom = headroom
        self.pool_jobs = pool_jobs

    def _config(self) -> Any:
        from repro.game.mpc_game import MPCGameConfig
        from repro.solvers.qp import QPSettings

        return MPCGameConfig(
            window=self.window,
            coordination_rounds=self.rounds,
            qp_settings=QPSettings(early_polish=True),
        )

    def _population(self, seed: int) -> tuple[list[Any], np.ndarray]:
        return game_population(
            self.num_providers, self.L, self.V, self.num_periods, seed, self.headroom
        )

    def setup(self, seed: int) -> float:
        from repro.game.mpc_game import run_mpc_game

        clock = _GameClock(Deadline(float("inf")), stop_at_period=1)
        start = time.perf_counter()
        with clock.installed():
            try:
                providers, capacity = self._population(seed)
                run_mpc_game(providers, capacity, self._config(), jobs=1)
            except _StopGame:
                pass
        return clock.stamps[1] - start

    def run_pass(
        self,
        seed: int,
        deadline: Deadline,
        tracer: Tracer | None = None,
        groups: frozenset[str] = ALL_GROUPS,
        jobs: int = 1,
    ) -> PassResult:
        from repro.game.mpc_game import run_mpc_game

        if tracer is not None and jobs > 1:
            groups = groups & PARENT_GROUPS
        clock = _GameClock(deadline)
        num_steps = self.num_periods - 1
        outcome = None
        start = time.perf_counter()
        with clock.installed(), _traced(tracer, groups):
            try:
                providers, capacity = self._population(seed)
                outcome = run_mpc_game(providers, capacity, self._config(), jobs=jobs)
            except Exception as error:  # noqa: BLE001 - counted as failed periods
                print(f"{self.name}: game raised {type(error).__name__}: {error}")
        stamps = clock.stamps
        end = clock.end if clock.end is not None else time.perf_counter()
        boundaries = stamps[1:] + [end] if outcome is not None else stamps[1:]
        periods = list(np.diff(boundaries)) if len(boundaries) > 1 else []
        result = PassResult(
            setup_s=(stamps[1] - start) if len(stamps) > 1 else float("nan"),
            period_s=[float(p) for p in periods],
            loop_s=(boundaries[-1] - boundaries[0]) if len(boundaries) > 1 else 0.0,
            attempted=num_steps,
            failed=num_steps - 1 - len(periods),
            units=len(periods),
        )
        if len(boundaries) > 1:
            _set_coverage(result, tracer, boundaries[0], boundaries[-1])
        if outcome is None:
            result.failed = max(result.failed, 1)
            return result
        offered = sum(float(p.demand[:, 1:].sum()) for p in providers)
        met = cells = 0
        for k, period in enumerate(outcome.periods):
            for i, provider in enumerate(providers):
                served = (provider.instance.demand_coefficients * period.states[i]).sum(
                    axis=0
                )
                demand = provider.demand[:, k + 1]
                met += int(np.count_nonzero(served >= demand * (1.0 - 1e-9)))
                cells += demand.size
        result.quality = {
            "total_cost": outcome.total_cost,
            "served_share": 1.0 - outcome.total_shortfall / offered,
            "sla_met_share": met / cells,
        }
        result.digest = _digest(
            *[period.quotas for period in outcome.periods],
            *[period.states for period in outcome.periods],
        )
        if outcome.capacity_violation > 1e-6 * float(np.max(capacity)):
            result.checks.append(
                f"capacity_violation {outcome.capacity_violation:.3e} exceeds 1e-6 x capacity"
            )
        return result


# ----------------------------------------------------------------------
# replay-paper


class _ClockedArrivals:
    """Poisson arrivals at the scenario's fluid rates that stamp the start
    of every replayed period (the engine draws location 0 first)."""

    def __init__(self, rates: np.ndarray, tracer: Tracer | None) -> None:
        from repro.events.arrivals import PoissonArrivals

        self.inner = PoissonArrivals(rates)
        self.tracer = tracer
        self.stamps: list[float] = []

    def arrivals(self, seed: int, period: int, location: int, duration: float) -> np.ndarray:
        if location == 0:
            self.stamps.append(time.perf_counter())
        if self.tracer is None:
            return self.inner.arrivals(seed, period, location, duration)
        return self.tracer.span(
            "events.arrivals", self.inner.arrivals, seed, period, location, duration
        )

    def mean_rate(self, period: int, location: int) -> float:
        return self.inner.mean_rate(period, location)


def _period_end_collector(stamps: list[float]) -> Any:
    """A collector whose ``on_start`` marks the end of the last period:
    the engine starts its collectors once every period is replayed."""
    from repro.events.collectors import Collector

    class PeriodEnd(Collector):
        def on_start(self, info: Any) -> None:
            stamps.append(time.perf_counter())

        def on_period(self, batch: Any) -> None:
            pass

    return PeriodEnd()


class ReplayWorkload(Workload):
    """:class:`EventEngine` replaying Poisson requests in-process against a
    ``serve-paper`` trajectory computed at set-up; a pass is one replay."""

    name = "replay-paper"
    modules = (
        "repro.service",
        "repro.simulation.scenario",
        "repro.events.arrivals",
        "repro.events.collectors",
        "repro.events.engine",
    )
    steps_per_pass = 1

    def __init__(
        self,
        num_periods: int,
        window: int,
        requests: float,
        nominal_pass_s: float,
        setup_samples: int,
    ) -> None:
        self.nominal_pass_s = nominal_pass_s
        self.setup_samples = setup_samples
        self.trajectories: dict[int, tuple[float, Any, Any]] = {}
        self.num_periods = num_periods
        self.window = window
        self.requests = requests

    def _start(self, seed: int) -> tuple[float, Any, Any]:
        from repro.service import PlacementService, ServiceConfig
        from repro.simulation.scenario import build_paper_scenario

        start = time.perf_counter()
        scenario = build_paper_scenario(num_periods=self.num_periods, seed=seed)
        fluid = PlacementService(scenario, ServiceConfig(window=self.window)).run()
        assert fluid is not None
        self._engine(scenario, fluid, seed, None)
        return time.perf_counter() - start, scenario, fluid

    def _engine(self, scenario: Any, fluid: Any, seed: int, tracer: Tracer | None) -> Any:
        from repro.events.collectors import LatencyCollector, ThroughputCollector
        from repro.events.engine import EventEngine, ReplayConfig

        process = _ClockedArrivals(scenario.demand, tracer)
        return EventEngine(
            scenario,
            fluid.states,
            ReplayConfig(seed=seed, total_requests=self.requests),
            process=process,
            collectors=(
                _period_end_collector(process.stamps),
                LatencyCollector(),
                ThroughputCollector(),
            ),
        )

    def setup(self, seed: int) -> float:
        """Build the trajectory of ``seed``; the run's replays share them."""
        prepared = self._start(seed)
        self.trajectories[seed] = prepared
        return prepared[0]

    def pass_inputs(self, seed: int, index: int, count: int) -> dict[str, Any]:
        """Replay ``index`` of ``count`` runs on the trajectory of set-up
        ``index * setup_samples // count`` (built here if no set-up made
        it), so each set-up's trajectory serves the replays that follow
        it; replay 0 runs on the seed's own scenario."""
        trajectory_seed = pass_seed(seed, index * self.setup_samples // count)
        if trajectory_seed not in self.trajectories:
            self.setup(trajectory_seed)
        return {"prepared": self.trajectories[trajectory_seed]}

    def run_pass(
        self,
        seed: int,
        deadline: Deadline,
        tracer: Tracer | None = None,
        groups: frozenset[str] = ALL_GROUPS,
        prepared: tuple[float, Any, Any] | None = None,
    ) -> PassResult:
        setup_s, scenario, fluid = prepared or self._start(seed)
        engine = self._engine(scenario, fluid, seed, tracer)
        deadline.check()
        with _traced(tracer, groups & frozenset({"events"})):
            start = time.perf_counter()
            try:
                replay = engine.run(jobs=1)
            except Exception as error:  # noqa: BLE001 - counted as a failed replay
                print(f"{self.name}: replay raised {type(error).__name__}: {error}")
                replay = None
            end = time.perf_counter()
        stamps = engine.process.stamps
        result = PassResult(
            setup_s=setup_s,
            period_s=[float(p) for p in np.diff(stamps)],
            loop_s=end - start,
            attempted=1,
            failed=0 if replay is not None else 1,
            units=0 if replay is None else replay.total_requests,
        )
        _set_coverage(result, tracer, start, end)
        if replay is None:
            return result
        _, latency, throughput = engine.collectors
        stats = latency.location_stats()
        counts = replay.status_counts
        if not np.array_equal(counts[:, 1:].sum(axis=1), counts[:, 0]):
            result.checks.append("request conservation violated in the status counts")
        if not np.array_equal(throughput.per_period(), counts):
            result.checks.append("ThroughputCollector disagrees with the engine's counts")
        if int(stats.arrivals.sum()) != replay.total_requests:
            result.checks.append("LatencyCollector arrivals disagree with the engine")
        measured = int(stats.measured.sum())
        result.quality = {
            "total_cost": fluid.summary.total_cost,
            "served_share": replay.total_served / replay.total_requests,
            "sla_met_share": 1.0 - int(stats.violations.sum()) / measured,
        }
        result.digest = _digest(
            counts, stats.served, stats.violations, fluid.states
        )
        return result


# ----------------------------------------------------------------------


def make(name: str, quick: bool, workdir: Path) -> Workload:
    """The workload ``name`` at full or quick (self-test) size.

    Nominal pass times were measured on a 2-vCPU x86_64 host with one
    BLAS thread; quick passes count as one second each.  Set-up times
    vary with the inputs (on ``serve-paper`` from 0.06 to 0.28 s over 30
    seeds, with the cold first solve), so each workload times as many
    set-ups as fit in about six seconds.
    """
    pool_jobs = min(2, os.cpu_count() or 1)
    if name == "serve-paper":
        if quick:
            return ServeWorkload(13, 6, workdir, nominal_pass_s=1.0, setup_samples=3)
        return ServeWorkload(169, 6, workdir, nominal_pass_s=3.9, setup_samples=40)
    if name == "game-paper":
        if quick:
            return GameWorkload(
                2, 4, 24, 3, 2, 9, GAME_HEADROOM, pool_jobs, nominal_pass_s=1.0, setup_samples=3
            )
        return GameWorkload(
            4, 4, 24, 6, 4, 97, GAME_HEADROOM, pool_jobs, nominal_pass_s=6.5, setup_samples=11
        )
    if name == "replay-paper":
        if quick:
            return ReplayWorkload(7, 6, 2e4, nominal_pass_s=1.0, setup_samples=3)
        return ReplayWorkload(25, 6, 1e6, nominal_pass_s=0.55, setup_samples=13)
    raise ValueError(f"unknown workload {name!r}")


# Capacity over aggregate peak demand of the game population: 1.5x keeps
# every sub-problem of the 168-period horizon converging (1.25x, the
# run_bench_game sizing, stalled the first coordination round).
GAME_HEADROOM = 1.5
