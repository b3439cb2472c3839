"""``python -m repro events`` — request-level replay with hostile scenarios.

Usage::

    python -m repro events --scenario diurnal --requests 1000000
    python -m repro events --scenario flash --scale small --seed 3
    python -m repro events --scenario outage --out calibration.json
    python -m repro events --scenario trace --trace requests.npz

Builds a scenario, runs the MPC control loop to obtain a placement
trajectory, replays the requested number of individual requests against
it under the chosen arrival scenario, and prints measured per-location
latency and SLA violation rates side by side with the fluid M/M/1
predictions.  The controller only ever sees the scenario's fluid rates —
the hostile scenarios (flash crowds, bursty traffic, regional shocks,
outages) hit the *replay*, which is exactly the stress the fluid plan
was never told about.

Scenario kinds:

==========  =========================================================
diurnal     Poisson arrivals at the scenario's diurnal rates (the
            paper's workload model; the calibration baseline).
flash       a mid-horizon flash crowd at one location, invisible to
            the controller.
bursty      2-state MMPP arrivals (same mean, bursty short-term rate).
shock       correlated regional demand shocks (shared lognormal
            multipliers).
outage      a mid-horizon data-center outage: failure-aware fluid
            re-planning plus request-level stranding.
trace       replay of a user-supplied request log (``.npz`` with
            ``times`` and ``locations`` arrays).
==========  =========================================================
"""

from __future__ import annotations

import argparse
import dataclasses
from pathlib import Path

import numpy as np

from repro.control.mpc import MPCConfig, MPCController
from repro.events.arrivals import (
    ArrivalProcess,
    MMPPArrivals,
    PoissonArrivals,
    RegionalShockArrivals,
    TraceArrivals,
    flash_crowd_process,
)
from repro.events.calibration import CalibrationCollector
from repro.events.collectors import LatencyCollector, ThroughputCollector
from repro.events.engine import EventEngine, ReplayConfig
from repro.prediction.naive import LastValuePredictor
from repro.simulation.failures import OutageEvent, run_closed_loop_with_failures
from repro.simulation.scenario import (
    Scenario,
    build_paper_scenario,
    build_small_scenario,
)
from repro.workload.spikes import FlashCrowd

__all__ = ["add_events_parser", "run_events"]

_SCENARIOS = ("diurnal", "flash", "bursty", "shock", "outage", "trace")


def add_events_parser(subparsers: argparse._SubParsersAction) -> None:
    """Register the ``events`` subcommand on the top-level CLI parser."""
    parser = subparsers.add_parser(
        "events",
        help="request-level replay: measured vs fluid-predicted SLA rates",
        description="Replay individual requests against the MPC placement "
        "trajectory under a hostile arrival scenario.",
    )
    parser.add_argument(
        "--scenario",
        choices=_SCENARIOS,
        default="diurnal",
        help="arrival scenario (default: diurnal Poisson)",
    )
    parser.add_argument(
        "--requests",
        type=float,
        default=100_000.0,
        help="target expected request count over the replay",
    )
    parser.add_argument("--seed", type=int, default=0, help="root seed")
    parser.add_argument(
        "--periods", type=int, default=24, help="scenario horizon in periods"
    )
    parser.add_argument(
        "--scale",
        choices=("paper", "small"),
        default="paper",
        help="paper = Section VII setup (4 DCs x 24 cities); small = test scale",
    )
    parser.add_argument(
        "--warmup",
        type=float,
        default=0.1,
        help="fraction of each period excluded from statistics",
    )
    parser.add_argument(
        "--burstiness",
        type=float,
        default=0.8,
        help="MMPP rate swing for --scenario bursty",
    )
    parser.add_argument(
        "--shock-sigma",
        type=float,
        default=0.6,
        help="lognormal shock volatility for --scenario shock",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help=".npz request log with 'times' and 'locations' arrays "
        "(required for --scenario trace)",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write the full calibration report as JSON",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the period sweep (0 = one per CPU); "
        "results are identical at any job count",
    )


def _build_scenario(args: argparse.Namespace) -> Scenario:
    if args.scale == "paper":
        return build_paper_scenario(num_periods=args.periods, seed=args.seed)
    return build_small_scenario(
        num_periods=args.periods,
        num_datacenters=3,
        num_locations=4,
        seed=args.seed,
    )


def _build_process(
    args: argparse.Namespace, scenario: Scenario
) -> tuple[ArrivalProcess, Scenario, list[OutageEvent]]:
    """The arrival process, (possibly re-based) scenario and outages."""
    V = scenario.instance.num_locations
    K = scenario.num_periods
    if args.scenario == "diurnal":
        return PoissonArrivals(rates=scenario.demand), scenario, []
    if args.scenario == "flash":
        # The spike hits the busiest location mid-horizon; the fluid
        # controller keeps planning for the unspiked rates.
        target = int(np.argmax(scenario.demand.sum(axis=1)))
        crowd = FlashCrowd(
            location_index=target,
            start_period=max(1, K // 3),
            peak_multiplier=4.0,
            ramp_periods=1,
            decay_periods=3.0,
        )
        return flash_crowd_process(scenario.demand, [crowd]), scenario, []
    if args.scenario == "bursty":
        process = MMPPArrivals(rates=scenario.demand, burstiness=args.burstiness)
        return process, scenario, []
    if args.scenario == "shock":
        process = RegionalShockArrivals(
            rates=scenario.demand,
            regions=tuple(v % 4 for v in range(V)),
            sigma=args.shock_sigma,
            shock_probability=0.3,
        )
        return process, scenario, []
    if args.scenario == "outage":
        outage = OutageEvent(
            datacenter_index=0,
            start_period=max(1, K // 2),
            duration=max(2, K // 8),
            remaining_fraction=0.0,
        )
        return PoissonArrivals(rates=scenario.demand), scenario, [outage]
    if args.scenario == "trace":
        if args.trace is None:
            raise SystemExit("--scenario trace requires --trace PATH")
        log = np.load(args.trace)
        trace = TraceArrivals.from_request_log(
            times=np.asarray(log["times"], dtype=float),
            locations=np.asarray(log["locations"], dtype=np.int64),
            num_periods=K,
            num_locations=V,
        )
        # Re-base the fluid layer on the trace's empirical rates so the
        # controller plans against the workload it is actually replaying.
        scenario = dataclasses.replace(scenario, demand=trace.rate_matrix())
        return trace, scenario, []
    raise AssertionError(f"unhandled scenario {args.scenario!r}")


def run_events(args: argparse.Namespace) -> int:
    """Execute a parsed ``events`` command; returns the exit code."""
    scenario = _build_scenario(args)
    process, scenario, outages = _build_process(args, scenario)
    instance = scenario.instance
    controller = MPCController(
        instance,
        LastValuePredictor(instance.num_locations),
        LastValuePredictor(instance.num_datacenters),
        MPCConfig(window=3, slack_penalty=100.0),
    )
    states = run_closed_loop_with_failures(
        controller, scenario.demand, scenario.prices, outages
    ).trajectory.states

    calibration = CalibrationCollector()
    latency = LatencyCollector()
    throughput = ThroughputCollector()
    config = ReplayConfig(
        seed=args.seed,
        total_requests=args.requests,
        warmup_fraction=args.warmup,
    )
    engine = EventEngine(
        scenario,
        states,
        config=config,
        process=process,
        outages=outages,
        collectors=(calibration, latency, throughput),
    )
    result = engine.run(jobs=args.jobs)

    print(
        f"scenario={args.scenario} scale={args.scale} periods={scenario.num_periods} "
        f"seed={args.seed} period_duration={engine.period_duration:.4g}s"
    )
    print(
        f"requests={result.total_requests}  served={result.total_served}  "
        f"dropped={result.total_dropped}  stranded={result.total_stranded}"
    )
    print()
    report = calibration.report()
    print(report.format_table())
    if args.out is not None:
        Path(args.out).write_text(report.to_json())
        print(f"\ncalibration report written to {args.out}")
    return 0
