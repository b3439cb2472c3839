"""Control-period benchmark: end-to-end and per-layer metrics of the
placement system on production workloads (see README.md).

Usage (from the repository root)::

    python3 perfbench/run.py                                  # all workloads, untraced + traced
    python3 perfbench/run.py --workload serve-paper --seed 3 --seconds 24 --trace 0
    python3 perfbench/run.py --workload game-paper --trace 1  # per-layer metrics
    python3 perfbench/run.py --quick --workload all --seconds 1   # tiny inputs
    python3 perfbench/run.py --workload serve-paper --seed 5 --seconds 1 --record

An untraced run (``--trace 0``) runs a fixed number of passes over the
workload's horizon, each on other inputs derived from ``--seed``, sized
so they take about ``--seconds`` on the reference host, and sets the
workload up several times between them (``setup_s`` is the median of
those set-ups); it reports the end-to-end metrics.  A traced run
(``--trace 1``) runs half the passes untraced, then repeats pass 0 with
every layer's entry point wrapped (see ``layers.py``) and reports the
per-layer metrics.  Before any number is
printed the outputs are checked (see :func:`gate`); on failure the run
exits 1 and prints no result.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

BLAS runs one thread per process (pool workers included): it is pinned
here, before numpy loads.  With OpenBLAS's default of one thread per
core, solver-bound period times on a 2-vCPU host were set by thread
contention, not by the program.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_JSON = HERE / "reference.json"
DEFAULT_SEED = 0
# Hard wall-clock cap of one workload run, checked between periods (and
# between game rounds): a pass still running then is abandoned.  In a
# later pass its remaining periods count as failed; in pass 0 or a traced
# replica of it the correctness gate fails, as those outputs are checked.
RUN_CAP_S = 150.0
# Relative tolerance of the recorded-cost check.
COST_RTOL = 1e-6


def _require_sources() -> None:
    missing = [p for p in (ROOT / "src" / "repro", ROOT / "benchmarks") if not p.is_dir()]
    if missing:
        sys.stderr.write(
            "perfbench: the program sources are missing "
            f"({', '.join(str(p.relative_to(ROOT)) for p in missing)}); "
            "run from a full checkout of the repository\n"
        )
        raise SystemExit(2)
    for path in (HERE, ROOT / "benchmarks", ROOT / "src"):
        sys.path.insert(0, str(path))


def environment() -> dict[str, object]:
    """The execution environment the numbers were taken in."""
    import ctypes
    import platform

    import numpy
    import scipy

    blas: list[dict[str, object]] = []
    with open("/proc/self/maps") as maps:
        libraries = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in libraries:
        lib = ctypes.CDLL(path)
        entry: dict[str, object] = {"library": Path(path).name}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    config.restype = ctypes.c_char_p
                    entry["threads"] = int(threads())
                    entry["config"] = config().decode()
        blas.append(entry)
    return {
        "nproc": os.cpu_count(),
        "blas_threads_requested": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "blas": blas,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def _load_reference(path: Path) -> dict[str, dict[str, float]]:
    return json.loads(path.read_text()) if path.exists() else {}


def _reference_key(workload: str, quick: bool) -> str:
    return f"{workload}@quick" if quick else workload


def gate(
    workload: str,
    seed: int,
    quick: bool,
    passes: list,
    replicas: list,
    reference: dict[str, dict[str, float]],
    solver_failures: list[str],
) -> list[str]:
    """Output checks; returns the failures (empty: the outputs are correct).

    * pass 0 (the seed's own inputs) completed, and every replica of it
      (the traced pass; for the game also the pass on pool workers)
      reproduces its quality figures and trajectory digest bitwise, so
      tracing is inert and results do not depend on the pool's worker
      count;
    * the workload's own output checks hold on every pass (game: capacity
      respected; replay: request conservation);
    * every OPTIMAL solve of a traced pass passes its KKT certificate, and
      every solve the game ships is OPTIMAL;
    * pass 0's ``total_cost`` matches the value recorded for the seed,
      when one is recorded.
    """
    if not passes or not passes[0].complete:
        return ["pass 0 did not complete, so its outputs could not be checked"]
    first = passes[0]
    failures: list[str] = []
    for replica in replicas:
        if not replica.complete:
            failures.append("a replica of pass 0 did not complete")
        elif replica.quality != first.quality or replica.digest != first.digest:
            failures.append(
                f"a replica of pass 0 differs from it: {replica.quality} vs {first.quality}"
            )
    for p in passes + replicas:
        failures.extend(p.checks)
    failures.extend(solver_failures[:5])
    recorded = reference.get(_reference_key(workload, quick), {}).get(str(seed))
    if recorded is not None:
        cost = first.quality["total_cost"]
        if abs(cost - recorded) > COST_RTOL * abs(recorded):
            failures.append(
                f"total_cost {cost!r} does not match the recorded {recorded!r} for seed {seed}"
            )
    return failures


def _percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def num_passes(bench, seconds: float) -> int:
    """Passes that take about ``seconds`` at the workload's nominal pass time.

    The work of a run is fixed by ``--seconds``, not by the clock, so two
    commits measured with the same settings time the same inputs.
    """
    return max(1, round(seconds / bench.nominal_pass_s))


def _run_passes(
    bench, seed: int, count: int, deadline, last_first: bool = False,
    setups: list[float] | None = None,
) -> list:
    """Passes 0..count-1, returned in index order (run from the last one
    down with ``last_first``, so that pass 0 runs last).  Passes the
    wall-clock cap leaves unrun fail whole.

    With ``setups``, the workload's ``setup_samples`` set-ups are timed
    into it, spread evenly between the passes (set-up *j* before pass
    ``j * count // setup_samples``), so that set-up times meet the same
    host conditions as the passes do.
    """
    from workloads import pass_seed

    indices = list(range(count))
    if last_first:
        indices.reverse()
    passes = {}
    for position, index in enumerate(indices):
        if deadline.expired():
            passes[index] = bench.skipped_pass()
            continue
        while (
            setups is not None
            and len(setups) < bench.setup_samples
            and len(setups) * count < (position + 1) * bench.setup_samples
        ):
            setups.append(bench.setup(pass_seed(seed, len(setups))))
        passes[index] = bench.run_pass(
            pass_seed(seed, index), deadline, **bench.pass_inputs(seed, index, count)
        )
    return [passes[index] for index in sorted(passes)]


def _mean_quality(passes: list, name: str) -> float:
    values = [p.quality[name] for p in passes if p.complete]
    return statistics.fmean(values) if values else float("nan")


def run_untraced(bench, seed: int, seconds: float, deadline) -> tuple[dict, list, list]:
    setups: list[float] = []
    passes = _run_passes(bench, seed, num_passes(bench, seconds), deadline, setups=setups)
    periods = [t for p in passes for t in p.period_s]
    loop_s = sum(p.loop_s for p in passes)
    metrics = {
        "period_ms_p50": (1e3 * _percentile(periods, 50), "ms"),
        "period_ms_p90": (1e3 * _percentile(periods, 90), "ms"),
        "periods_per_s": (len(periods) / loop_s, "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "total_cost": (_mean_quality(passes, "total_cost"), "cost"),
        "served_share": (_mean_quality(passes, "served_share"), "share"),
        "sla_met_share": (_mean_quality(passes, "sla_met_share"), "share"),
    }
    print(
        f"{bench.name}: {len(passes)} pass(es), {len(periods)} timed periods "
        f"(p90 has {len(periods) - int(0.9 * len(periods))} beyond it), "
        f"{loop_s:.2f} s timed, {len(setups)} set-ups {[round(s, 4) for s in setups]}"
    )
    if bench.name == "replay-paper":
        print(f"requests_per_s {requests_per_s(passes):.6g} 1/s")
    return metrics, passes, []


def requests_per_s(passes: list) -> float:
    """Requests replayed per second of replay wall time."""
    loop_s = sum(p.loop_s for p in passes)
    return sum(p.units for p in passes) / loop_s if loop_s > 0 else 0.0


def run_traced(bench, seed: int, seconds: float, deadline) -> tuple[dict, list, list, list[str]]:
    from layers import Tracer
    from workloads import pass_seed

    # Pass 0 runs last, next to its traced replica, so that the tracing
    # overhead compares two runs of the same inputs close in time.
    count = max(1, num_passes(bench, seconds) // 2)
    untraced = _run_passes(bench, seed, count, deadline, last_first=True)
    tracer = Tracer()
    traced = bench.run_pass(
        pass_seed(seed, 0), deadline, tracer=tracer, **bench.pass_inputs(seed, 0, count)
    )
    replicas = [traced]
    pool_tracer = tracer
    if bench.name == "game-paper" and bench.pool_jobs > 1:
        # Timed passes run the pool inline; a further pass of the same
        # inputs runs it on worker processes, traces the pool from the
        # parent, and must reproduce pass 0 bitwise.
        pool_tracer = Tracer()
        replicas.append(
            bench.run_pass(pass_seed(seed, 0), deadline, tracer=pool_tracer, jobs=bench.pool_jobs)
        )
    solver_failures = list(tracer.kkt_failures)
    if bench.name == "game-paper" and tracer.counts["solvers.not_optimal"]:
        # The game ships every sub-problem solve (the service's ladder
        # retries a non-OPTIMAL one instead).
        solver_failures.append(
            f"{tracer.counts['solvers.not_optimal']:.0f} shipped solves were not OPTIMAL"
        )
    return (
        layer_metrics(bench, tracer, pool_tracer, untraced, traced),
        untraced,
        replicas,
        solver_failures,
    )


def layer_metrics(bench, tracer, pool_tracer, untraced: list, traced) -> dict:
    """Per-layer metrics of the traced pass (pool figures from
    ``pool_tracer``, which traced the game's pool on worker processes)."""
    counts = tracer.counts
    solves = counts["solvers.solves"]
    # The traced pass repeats untraced pass 0: same inputs, same periods.
    untraced_s = sum(untraced[0].period_s)
    traced_s = sum(traced.period_s) - traced.internal_s
    # Shares are of the whole traced pass, set-up period included.
    pass_s = traced.setup_s + traced.loop_s
    rounds = pool_tracer.counts["game.rounds"]
    writes = tracer.counts["checkpoint.writes"]
    return {
        "checkpoint.write_ms_p50": (tracer.p50_ms("checkpoint.write"), "ms"),
        "checkpoint.bytes_per_write": (tracer.counts["checkpoint.bytes"] / max(1.0, writes), "bytes"),
        "checkpoint.share": (tracer.total_ms("checkpoint.write") / 1e3 / pass_s, "share"),
        "solvers.setups": (counts["solvers.setups"], "count"),
        "solvers.setup_ms": (tracer.total_ms("solvers.setup"), "ms"),
        "solvers.factorizations": (counts["solvers.factorizations"], "count"),
        "solvers.equilibrations": (counts["solvers.equilibrations"], "count"),
        "solvers.admm_iterations": (counts["solvers.admm_iterations"], "count"),
        "solvers.admm_solves": (counts["solvers.admm_solves"], "count"),
        "solvers.active_set_hit_ratio": (
            (solves - counts["solvers.admm_solves"]) / solves if solves else 0.0,
            "ratio",
        ),
        "solvers.solve_ms_p50": (tracer.p50_ms("solvers.solve"), "ms"),
        "solvers.admm_share": (
            counts["solvers.admm_solve_s"] / pass_s,
            "share",
        ),
        "solvers.kkt_worst": (counts["solvers.kkt_worst"], "ratio"),
        "core.structure_builds": (counts["core.structure_builds"], "count"),
        "core.structure_ms": (tracer.total_ms("core.structure"), "ms"),
        "core.vectors_ms_p50": (tracer.p50_ms("core.vectors"), "ms"),
        "prediction.predict_ms_p50": (tracer.p50_ms("prediction.predict"), "ms"),
        "control.plan_self_ms_p50": (tracer.p50_ms("control.plan", self_only=True), "ms"),
        "routing.route_ms_p50": (tracer.p50_ms("routing.route"), "ms"),
        "simulation.monitoring_ms_p50": (tracer.p50_ms("simulation.monitoring"), "ms"),
        "simulation.metrics_ms_p50": (tracer.p50_ms("simulation.metrics"), "ms"),
        "pool.round_ms_p50": (pool_tracer.p50_ms("pool.round"), "ms"),
        "pool.set_problems_ms_p50": (pool_tracer.p50_ms("pool.set_problems"), "ms"),
        "pool.bytes_per_round": (pool_tracer.counts["pool.bytes"] / max(1.0, rounds), "bytes"),
        "pool.worker_peak_rss_mb": (pool_tracer.worker_peak_rss_mb, "MB"),
        "game.coordinator_ms_p50": (pool_tracer.p50_ms("game.coordinator"), "ms"),
        "game.rounds": (rounds, "count"),
        "events.arrivals_ms": (tracer.total_ms("events.arrivals"), "ms"),
        "events.collectors_ms": (tracer.total_ms("events.collectors"), "ms"),
        "events.engine_self_ms": (
            1e3 * sum(tracer.self_time.get("events.run", ())), "ms"
        ),
        "events.requests": (float(traced.units) if bench.name == "replay-paper" else 0.0, "count"),
        "events.requests_per_s": (
            requests_per_s(untraced) if bench.name == "replay-paper" else 0.0,
            "1/s",
        ),
        "trace.overhead_share": (traced_s / untraced_s - 1.0 if untraced_s else 0.0, "share"),
        "trace.span_coverage": (
            traced.covered_s / max(traced.loop_s - traced.internal_s, 1e-12), "share"
        ),
    }


def run_workload(args: argparse.Namespace) -> int:
    import workloads

    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    bench = workloads.make(args.workload, args.quick, workdir)
    bench.preload()
    deadline = workloads.Deadline(time.perf_counter() + RUN_CAP_S)
    env = environment()
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    solver_failures: list[str] = []
    try:
        if args.trace:
            metrics, passes, replicas, solver_failures = run_traced(
                bench, args.seed, args.seconds, deadline
            )
        else:
            metrics, passes, replicas = run_untraced(bench, args.seed, args.seconds, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reference = _load_reference(args.reference)
    quality = passes[0].quality if passes[0].complete else None
    if args.record:
        if quality is None:
            print("nothing to record: no pass completed", file=sys.stderr)
            return 1
        entry = reference.setdefault(_reference_key(args.workload, args.quick), {})
        entry[str(args.seed)] = quality["total_cost"]
        args.reference.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        print(f"recorded total_cost {quality['total_cost']!r} for seed {args.seed}")
    failures = gate(
        args.workload, args.seed, args.quick, passes, replicas, reference, solver_failures
    )
    if failures:
        for failure in failures:
            print(f"CORRECTNESS GATE FAILED ({args.workload}): {failure}", file=sys.stderr)
        return 1
    recorded = str(args.seed) in reference.get(_reference_key(args.workload, args.quick), {})
    print(f"gate passed (recorded cost {'checked' if recorded else 'not recorded for this seed'})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": True,
        "attempted": sum(p.attempted for p in passes + replicas),
        "failed": sum(p.failed for p in passes + replicas),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, each in its own process."""
    import workloads

    combined: dict[str, object] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--reference", str(args.reference),
            ] + (["--quick"] if args.quick else [])
            print(f"== {name} trace={trace}", flush=True)
            proc = subprocess.run(command, capture_output=True, text=True, timeout=RUN_CAP_S + 60)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace} failed with exit code {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            combined["attempted"] += result["attempted"]  # type: ignore[operator]
            combined["failed"] += result["failed"]  # type: ignore[operator]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}/{metric}"] = value  # type: ignore[index]
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    _require_sources()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=workloads.WORKLOADS + ("all",),
        default="all",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="input seed (default 0)")
    parser.add_argument("--seconds", type=float, default=24.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs (self-test)")
    parser.add_argument("--reference", type=Path, default=REFERENCE_JSON,
                        help="recorded total_cost per workload and seed")
    parser.add_argument("--record", action="store_true",
                        help="record this run's total_cost for its seed")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
