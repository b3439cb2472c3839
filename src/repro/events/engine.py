"""The discrete-event replay engine: requests vs the fluid placement.

:class:`EventEngine` replays individual requests against a placement
trajectory from the closed-loop period kernel
(:class:`~repro.control.loop.ClosedLoop`, through any of its callers:
:class:`~repro.simulation.engine.SimulationEngine`, the resident service,
or :func:`~repro.simulation.failures.run_closed_loop_with_failures` when
outages are scheduled).
Period ``p`` of the scenario is served by the controller's allocation
``states[p - 1]`` — exactly the column alignment of the fluid loop — and
the placement switches at period boundaries, with each period's queues
starting empty (the per-period warmup fraction discards the resulting
cold-start transient from statistics).

Within a period the paper's service model is simulated exactly:

* arrivals per location come from a pluggable
  :class:`~repro.events.arrivals.ArrivalProcess`;
* each request is admitted with the fluid admission probability
  ``min(1, capacity / fluid rate)`` (the event-level counterpart of the
  router's ``servable = min(demand, capacity)``), then routed to a data
  center with probability proportional to the pair capacity
  ``x_lv / a_lv`` — thinning a Poisson stream yields Poisson streams, so
  the per-pair processes match the fluid split;
* the ``ceil(x_lv)`` servers of a pair each run an independent FIFO
  queue with Exp(mu) service; a request picks one uniformly (Bernoulli
  splitting), and waits come from the vectorized ``_lindley_waits``
  kernel applied per server segment;
* a mid-period :class:`~repro.simulation.failures.OutageEvent` strands
  in-flight requests: a request completing in a later period survives
  with probability ``fraction_then / fraction_now`` and is otherwise
  marked ``STRANDED`` (accounted for, but producing no latency sample).

Every random draw comes from ``np.random.default_rng([seed, tag,
period, location])`` — a pure function of the seed material — so period
replays are embarrassingly parallel (:func:`repro.experiments.runner.
run_sweep`) and bitwise identical at any ``jobs`` count.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.events.arrivals import ArrivalProcess, PoissonArrivals, TraceArrivals
from repro.events.collectors import Collector
from repro.events.records import (
    STATUS_DROPPED,
    STATUS_SERVED,
    STATUS_STRANDED,
    PeriodBatch,
    ReplayInfo,
)
from repro.experiments.runner import run_sweep
from repro.simulation.failures import OutageEvent, capacity_schedule

# The event engine is the *consumer* the kernel was factored for: it is
# the repo's single Lindley implementation, shared with queue_sim.
from repro.simulation.queue_sim import _lindley_waits
from repro.simulation.scenario import Scenario

__all__ = ["EventEngine", "ReplayConfig", "ReplayResult"]

# Seed-material tags (disjoint from the arrival-process tags in
# repro.events.arrivals): one stream per randomness purpose and cell.
_TAG_ADMIT = 201
_TAG_DEST = 202
_TAG_SERVICE = 203
_TAG_SERVER = 204
_TAG_STRAND = 205


@dataclass(frozen=True)
class ReplayConfig:
    """Size and seeding of one replay.

    Attributes:
        seed: root seed; every stream derives from it.
        total_requests: target expected request count over the whole
            replay; the period duration is scaled so the process's
            advertised rates produce this many arrivals in expectation.
        period_duration: explicit seconds per period (overrides
            ``total_requests``; mandatory source for trace replay).
        warmup_fraction: leading fraction of each period excluded from
            latency statistics (queues restart empty at every placement
            switch).
        min_allocation: allocations at or below this are treated as
            zero servers (mirrors the router's dust threshold).
    """

    seed: int = 0
    total_requests: float = 100_000.0
    period_duration: float | None = None
    warmup_fraction: float = 0.1
    min_allocation: float = 1e-9

    def __post_init__(self) -> None:
        if self.total_requests <= 0:
            raise ValueError(f"total_requests must be positive, got {self.total_requests}")
        if self.period_duration is not None and self.period_duration <= 0:
            raise ValueError("period_duration must be positive")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        if self.min_allocation <= 0.0:
            raise ValueError("min_allocation must be positive")


@dataclass(frozen=True)
class _ReplaySpec:
    """Everything a period worker needs, picklable and immutable."""

    seed: int
    period_duration: float
    states: np.ndarray  # (K-1, L, V) controller allocations
    capacity_fraction: np.ndarray  # (K, L) outage survival fractions
    rates: np.ndarray  # (V, K) fluid rates (the controller's view)
    coeff: np.ndarray  # (L, V) demand coefficients 1/a_lv
    network_latency: np.ndarray  # (L, V) seconds
    service_rate: float
    max_latency: float
    min_allocation: float
    process: ArrivalProcess


@dataclass(frozen=True)
class _PeriodTask:
    spec: _ReplaySpec
    period: int


@dataclass(frozen=True)
class ReplayResult:
    """Aggregate outcome of one replay.

    Attributes:
        info: the static replay facts (also handed to collectors).
        status_counts: shape ``(periods, 4)`` — arrivals, served,
            dropped, stranded per replayed period.
    """

    info: ReplayInfo
    status_counts: np.ndarray

    @property
    def total_requests(self) -> int:
        return int(self.status_counts[:, 0].sum()) if self.status_counts.size else 0

    @property
    def total_served(self) -> int:
        return int(self.status_counts[:, 1].sum()) if self.status_counts.size else 0

    @property
    def total_dropped(self) -> int:
        return int(self.status_counts[:, 2].sum()) if self.status_counts.size else 0

    @property
    def total_stranded(self) -> int:
        return int(self.status_counts[:, 3].sum()) if self.status_counts.size else 0


def _segmented_lindley(
    arrivals: np.ndarray, services: np.ndarray, segments: np.ndarray
) -> np.ndarray:
    """FIFO waits for many independent single-server queues at once.

    ``segments[i]`` names the queue request ``i`` joins; within a
    segment requests must already be in arrival order.  A stable sort by
    segment id preserves that order, and the vectorized Lindley kernel
    runs once per segment.
    """
    if arrivals.size == 0:
        return np.empty(0)
    order = np.argsort(segments, kind="stable")
    arr_sorted = arrivals[order]
    srv_sorted = services[order]
    seg_sorted = segments[order]
    bounds = np.concatenate(
        [[0], np.flatnonzero(np.diff(seg_sorted)) + 1, [arr_sorted.size]]
    )
    waits_sorted = np.empty_like(arr_sorted)
    for index in range(bounds.size - 1):
        lo, hi = int(bounds[index]), int(bounds[index + 1])
        waits_sorted[lo:hi] = _lindley_waits(arr_sorted[lo:hi], srv_sorted[lo:hi])
    waits = np.empty_like(arrivals)
    waits[order] = waits_sorted
    return waits


def _replay_period(task: _PeriodTask) -> PeriodBatch:
    """Replay one control period; pure function of the task (picklable)."""
    spec = task.spec
    p = task.period
    L, V = spec.coeff.shape
    duration = spec.period_duration
    start = (p - 1) * duration
    frac_now = spec.capacity_fraction[p]
    num_periods = spec.capacity_fraction.shape[0]

    alloc = spec.states[p - 1] * frac_now[:, None]
    live = alloc > spec.min_allocation
    pair_cap = np.where(live, alloc * spec.coeff, 0.0)
    server_counts = np.where(live, np.ceil(alloc - 1e-12), 0.0).astype(np.int64)
    total_cap = pair_cap.sum(axis=0)

    columns: dict[str, list[np.ndarray]] = {
        "arrival": [],
        "location": [],
        "datacenter": [],
        "server": [],
        "service": [],
        "wait": [],
        "sojourn": [],
        "latency": [],
        "status": [],
    }

    for v in range(V):
        offsets = np.asarray(
            spec.process.arrivals(spec.seed, p, v, duration), dtype=float
        )
        n = offsets.size
        if n == 0:
            continue

        fluid_rate = float(spec.rates[v, p])
        cap = float(total_cap[v])
        if cap <= 0.0:
            admit_prob = 0.0
        elif fluid_rate <= 0.0:
            admit_prob = 1.0
        else:
            admit_prob = min(1.0, cap / fluid_rate)

        # One derived stream per purpose; all draws are length n whether
        # or not every request uses them, so the streams never depend on
        # earlier outcomes — the backbone of bitwise reproducibility.
        u_admit = np.random.default_rng([spec.seed, _TAG_ADMIT, p, v]).random(n)
        u_dest = np.random.default_rng([spec.seed, _TAG_DEST, p, v]).random(n)
        raw_service = np.random.default_rng(
            [spec.seed, _TAG_SERVICE, p, v]
        ).standard_exponential(n) / spec.service_rate
        u_server = np.random.default_rng([spec.seed, _TAG_SERVER, p, v]).random(n)
        u_strand = np.random.default_rng([spec.seed, _TAG_STRAND, p, v]).random(n)

        datacenter = np.full(n, -1, dtype=np.int64)
        server = np.full(n, -1, dtype=np.int64)
        service = np.full(n, np.nan)
        wait = np.full(n, np.nan)
        sojourn = np.full(n, np.nan)
        latency = np.full(n, np.nan)
        status = np.full(n, STATUS_DROPPED, dtype=np.int64)

        admit = u_admit < admit_prob
        admit_idx = np.flatnonzero(admit)
        if admit_idx.size:
            weights = pair_cap[:, v] / cap
            cum = np.cumsum(weights)
            cum /= cum[-1]
            dest = np.minimum(
                np.searchsorted(cum, u_dest[admit_idx], side="right"), L - 1
            )
            datacenter[admit_idx] = dest
            counts = server_counts[dest, v]  # >= 1: routed pairs are live
            picked = np.minimum(
                (u_server[admit_idx] * counts).astype(np.int64), counts - 1
            )
            server[admit_idx] = picked
            service[admit_idx] = raw_service[admit_idx]

            max_servers = int(server_counts[:, v].max())
            segment = dest * max(max_servers, 1) + picked
            waits = _segmented_lindley(
                offsets[admit_idx], raw_service[admit_idx], segment
            )
            wait[admit_idx] = waits
            sojourns = waits + raw_service[admit_idx]
            sojourn[admit_idx] = sojourns
            status[admit_idx] = STATUS_SERVED

            # Outage stranding: a request completing in a later period
            # survives with probability fraction_then / fraction_now.
            completion = start + offsets[admit_idx] + sojourns
            comp_period = np.minimum(
                (completion / duration).astype(np.int64) + 1, num_periods - 1
            )
            frac_then = spec.capacity_fraction[comp_period, dest]
            frac_here = frac_now[dest]
            survival = np.clip(
                np.where(frac_here > 0.0, frac_then / np.maximum(frac_here, 1e-300), 0.0),
                0.0,
                1.0,
            )
            stranded = u_strand[admit_idx] >= survival
            status[admit_idx[stranded]] = STATUS_STRANDED
            served_idx = admit_idx[~stranded]
            latency[served_idx] = (
                spec.network_latency[datacenter[served_idx], v] + sojourn[served_idx]
            )

        columns["arrival"].append(start + offsets)
        columns["location"].append(np.full(n, v, dtype=np.int64))
        columns["datacenter"].append(datacenter)
        columns["server"].append(server)
        columns["service"].append(service)
        columns["wait"].append(wait)
        columns["sojourn"].append(sojourn)
        columns["latency"].append(latency)
        columns["status"].append(status)

    if columns["arrival"]:
        merged = {name: np.concatenate(parts) for name, parts in columns.items()}
    else:
        merged = {
            name: np.empty(0, dtype=np.int64)
            if name in ("location", "datacenter", "server", "status")
            else np.empty(0)
            for name in columns
        }
    order = np.lexsort((merged["location"], merged["arrival"]))
    merged = {name: values[order] for name, values in merged.items()}
    return PeriodBatch(
        period=p,
        start_time=start,
        duration=duration,
        server_counts=server_counts,
        **merged,
    )


class EventEngine:
    """Replays requests against a placement trajectory.

    Args:
        scenario: the scenario the trajectory was computed for.
        states: controller allocations, shape ``(K-1, L, V)`` —
            ``SimulationResult.states`` or a failure-aware trajectory.
        config: replay sizing/seeding (default :class:`ReplayConfig`).
        process: arrival process (default: Poisson at the scenario's
            fluid rates — the paper's workload model).
        outages: failure schedule applied *during* replay; allocations
            at a failed site are masked and in-flight requests strand.
        collectors: measurement plugins fed after the replay completes.

    Raises:
        ValueError: on malformed states or an unresolvable duration.
    """

    def __init__(
        self,
        scenario: Scenario,
        states: np.ndarray,
        config: ReplayConfig | None = None,
        process: ArrivalProcess | None = None,
        outages: Sequence[OutageEvent] = (),
        collectors: Sequence[Collector] = (),
    ) -> None:
        self.scenario = scenario
        self.config = config if config is not None else ReplayConfig()
        self.collectors = tuple(collectors)

        K = scenario.num_periods
        L = scenario.instance.num_datacenters
        V = scenario.instance.num_locations
        states = np.asarray(states, dtype=float)
        if states.shape != (K - 1, L, V):
            raise ValueError(
                f"states must be ({K - 1}, {L}, {V}), got {states.shape}"
            )
        if not np.all(np.isfinite(states)) or np.any(states < 0):
            raise ValueError("states must be finite and nonnegative")
        self.states = states

        self.process: ArrivalProcess = (
            process if process is not None else PoissonArrivals(scenario.demand)
        )
        self.outages = tuple(outages)
        # capacity_schedule over unit capacities yields survival fractions.
        self.capacity_fraction = capacity_schedule(np.ones(L), K, list(self.outages))
        self.period_duration = self._resolve_duration(K, V)

    def _resolve_duration(self, num_periods: int, num_locations: int) -> float:
        process = self.process
        if isinstance(process, TraceArrivals):
            configured = self.config.period_duration
            if configured is not None and not np.isclose(
                configured, process.period_duration
            ):
                raise ValueError(
                    "period_duration conflicts with the trace's own binning"
                )
            return float(process.period_duration)
        if self.config.period_duration is not None:
            return float(self.config.period_duration)
        mean_total = sum(
            process.mean_rate(period, location)
            for period in range(1, num_periods)
            for location in range(num_locations)
        )
        if mean_total <= 0.0:
            raise ValueError(
                "cannot size periods: the process advertises zero total rate; "
                "set ReplayConfig.period_duration explicitly"
            )
        return float(self.config.total_requests) / mean_total

    def run(self, jobs: int | None = None) -> ReplayResult:
        """Replay every period and feed the collectors in order.

        Args:
            jobs: worker-count request for
                :func:`repro.experiments.runner.run_sweep`; results are
                bitwise independent of it.
        """
        scenario = self.scenario
        instance = scenario.instance
        spec = _ReplaySpec(
            seed=self.config.seed,
            period_duration=self.period_duration,
            states=self.states,
            capacity_fraction=self.capacity_fraction,
            rates=scenario.demand,
            coeff=instance.demand_coefficients,
            network_latency=scenario.latency.latency_ms * 1e-3,
            service_rate=scenario.sla.service_rate,
            max_latency=scenario.sla.max_latency,
            min_allocation=self.config.min_allocation,
            process=self.process,
        )
        tasks = [_PeriodTask(spec=spec, period=p) for p in range(1, scenario.num_periods)]
        batches = run_sweep(_replay_period, tasks, jobs=jobs)

        status_counts = np.zeros((len(batches), 4), dtype=np.int64)
        for row, batch in enumerate(batches):
            served = batch.num_served
            dropped = batch.num_dropped
            stranded = batch.num_stranded
            if served + dropped + stranded != batch.num_requests:
                raise RuntimeError(
                    f"conservation violated in period {batch.period}: "
                    f"{batch.num_requests} arrivals vs "
                    f"{served}+{dropped}+{stranded} outcomes"
                )
            status_counts[row] = (batch.num_requests, served, dropped, stranded)

        info = ReplayInfo(
            num_periods=scenario.num_periods,
            period_duration=self.period_duration,
            num_datacenters=instance.num_datacenters,
            num_locations=instance.num_locations,
            service_rate=scenario.sla.service_rate,
            max_latency=scenario.sla.max_latency,
            network_latency=scenario.latency.latency_ms * 1e-3,
            warmup_fraction=self.config.warmup_fraction,
            datacenters=tuple(scenario.latency.datacenters),
            locations=tuple(scenario.latency.locations),
            seed=self.config.seed,
        )
        for collector in self.collectors:
            collector.on_start(info)
        for batch in batches:
            for collector in self.collectors:
                collector.on_period(batch)
        for collector in self.collectors:
            collector.on_finish()
        return ReplayResult(info=info, status_counts=status_counts)
