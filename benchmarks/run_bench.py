"""Solver-path benchmark: persistent workspace, KKT backends, cold solves.

Times the MPC hot path at small / paper / large / xlarge / continental
scale:

* **cold** — every receding-horizon step solves on a fresh workspace:
  rebuild the stacked QP, re-equilibrate, re-factorize the KKT system and
  run ADMM from zero;
* **workspace** — the persistent :class:`repro.core.dspp.DSPPWorkspace`
  path: one setup, then vector-only updates against the cached Ruiz
  scaling + KKT factorization, ADMM seeded from the stored iterates;
* **backends** — warm workspace steps under the scale's baseline vs
  candidate ``(kkt_backend, sparsify_columns)`` pair, which differ in one
  setting only (sparse vs banded at the dense scales, banded with column
  sparsification off vs on at xlarge), with the worst per-step objective
  divergence between the two.  Continental runs the sparsified banded
  path alone (a dense reference is intractable there), so its candidate
  is ``null``;
* **sweep** — the deterministic parallel sweep runner on a miniature fig9
  configuration, serial vs two processes, with a bit-identity check.

Every scale entry carries the *same* keys; measurements a scale skips
(the cold path beyond ``large``, where one sparse factorization takes
tens of seconds) are ``null`` rather than absent, so downstream parsers
never need per-scale special cases.  A ``scaling_curve`` section lists
the candidate's warm-step time (the baseline's where a scale has no
candidate) against the problem volume ``L*V*W`` across every scale
benchmarked, continental included.  ``nproc`` records the CPUs the run
could use.

Writes ``BENCH_solver.json`` at the repo root (override with ``--out``).
The cold-vs-workspace comparison solves the identical problem sequence
(the state advances along the cold trajectory); the backend comparison
runs two full closed-loop MPC sequences from the same data.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py                    # full
    PYTHONPATH=src python benchmarks/run_bench.py --quick            # CI smoke
    PYTHONPATH=src python benchmarks/run_bench.py --backend banded \\
        --sparsify on --sla-density 0.5                              # pin one
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

import repro.solvers.qp as _qp
from repro.core.dspp import DSPPWorkspace, solve_dspp
from repro.core.instance import DSPPInstance
from repro.core.matrices import build_qp_structure, build_qp_vectors, build_stacked_qp
from repro.experiments.fig9_horizon_cost_volatile import run_fig9
from repro.solvers.qp import QPProblem, QPSettings

__all__ = ["main"]

# (L, V, W): data centers, locations, MPC window.  "paper" matches the
# source paper's evaluation scale; "continental" is the
# geo-distributed regime the column sparsifier exists for.
SCALES: dict[str, tuple[int, int, int]] = {
    "small": (2, 6, 3),
    "paper": (4, 24, 6),
    "large": (6, 36, 8),
    "xlarge": (8, 64, 12),
    "continental": (32, 512, 24),
}

# Fraction of (l, v) pairs with a finite SLA coefficient.  Continental
# deployments are sparse by construction — most locations can only be
# served within their SLA by a handful of nearby centers.
SCALE_DENSITY: dict[str, float] = {
    "small": 1.0,
    "paper": 1.0,
    "large": 1.0,
    "xlarge": 0.25,
    "continental": 0.06,
}

# The baseline and candidate (kkt_backend, sparsify_columns) pairs each
# scale compares on its warm path; the two differ in one setting.
SCALE_COMPARISON: dict[str, tuple[tuple[str, str], tuple[str, str] | None]] = {
    "small": (("sparse", "off"), ("banded", "off")),
    "paper": (("sparse", "off"), ("banded", "off")),
    "large": (("sparse", "off"), ("banded", "off")),
    # Column pruning alone, once the pair grid is mostly unusable.
    "xlarge": (("banded", "off"), ("banded", "on")),
    # A dense reference is intractable here (a 16384-wide block per
    # period), so the sparsified banded path runs alone.
    "continental": (("banded", "on"), None),
}

# Scales where the cold (rebuild-everything) path is impractically slow:
# one sparse factorization at xlarge takes tens of seconds.
_SKIP_COLD = frozenset({"xlarge", "continental"})

# Continental warm steps are seconds each; fewer suffice for a stable mean.
_CONTINENTAL_STEPS = 6


def _instance(
    L: int, V: int, seed: int, usable_density: float = 1.0
) -> DSPPInstance:
    rng = np.random.default_rng(seed)
    sla = rng.uniform(0.05, 0.2, size=(L, V))
    if usable_density < 1.0:
        pruned = rng.random(size=(L, V)) >= usable_density
        # Instance validation requires every location servable.
        for v in range(V):
            if pruned[:, v].all():
                pruned[int(rng.integers(0, L)), v] = False
        sla = np.where(pruned, np.inf, sla)
    return DSPPInstance(
        datacenters=tuple(f"d{i}" for i in range(L)),
        locations=tuple(f"v{i}" for i in range(V)),
        sla_coefficients=sla,
        reconfiguration_weights=rng.uniform(0.5, 2.0, size=L),
        capacities=np.full(L, 1e5),
        initial_state=np.zeros((L, V)),
    )


def _observations(
    L: int, V: int, num_steps: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Smoothly varying demand/price streams (MPC-realistic: consecutive
    periods are similar, which is what iterate reuse exploits)."""
    rng = np.random.default_rng(seed)
    hours = np.arange(num_steps, dtype=float)
    diurnal = 1.0 + 0.4 * np.sin(2.0 * np.pi * hours / 24.0)
    demand = 30.0 * diurnal[None, :] * rng.uniform(0.8, 1.2, size=(V, 1))
    demand = demand + rng.normal(scale=1.0, size=(V, num_steps))
    demand = np.maximum(demand, 1.0)
    prices = rng.uniform(0.5, 2.0, size=(L, 1)) * diurnal[None, :]
    prices = np.maximum(prices + rng.normal(scale=0.05, size=(L, num_steps)), 0.05)
    return demand, prices


def _scale_steps(name: str, num_steps: int) -> int:
    return min(num_steps, _CONTINENTAL_STEPS) if name == "continental" else num_steps


def _null_scale_entry(name: str, num_steps: int) -> dict[str, object]:
    """The uniform per-scale schema, every measurement nulled out."""
    L, V, W = SCALES[name]
    return {
        "L": L,
        "V": V,
        "window": W,
        "num_steps": _scale_steps(name, num_steps),
        "usable_density": SCALE_DENSITY[name],
        "cold_step_ms": None,
        "warm_step_ms": None,
        "speedup": None,
        "max_objective_rel_diff": None,
        "solutions_match": None,
        "backends": None,
    }


def bench_mpc(name: str, num_steps: int, seed: int = 0) -> dict[str, object]:
    """Cold vs workspace re-solves over one receding-horizon sequence.

    Both paths solve the *identical* problem at every step (the state is
    advanced with the cold solution), so the per-step objectives are
    directly comparable: two eps-optimal answers to the same QP.  The two
    differ in one setting only: cold solves each period on a fresh
    workspace (rebuild + re-equilibrate + re-factorize, ADMM from zero),
    warm keeps one workspace across the sequence.
    """
    L, V, W = SCALES[name]
    instance = _instance(L, V, seed, usable_density=SCALE_DENSITY[name])
    demand, prices = _observations(L, V, num_steps + W, seed + 1)
    workspace = DSPPWorkspace()
    state = instance.initial_state
    cold_times: list[float] = []
    warm_times: list[float] = []
    objective_rel_diff: list[float] = []
    for k in range(num_steps):
        instance_now = instance.with_initial_state(state)
        window_demand = demand[:, k : k + W]
        window_prices = prices[:, k : k + W]
        start = time.perf_counter()
        cold = solve_dspp(instance_now, window_demand, window_prices)
        cold_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        warm = solve_dspp(
            instance_now, window_demand, window_prices, workspace=workspace
        )
        warm_times.append(time.perf_counter() - start)
        denom = max(abs(cold.objective), 1e-12)
        objective_rel_diff.append(abs(warm.objective - cold.objective) / denom)
        state = np.maximum(state + cold.first_control, 0.0)
    # Step 0 pays setup on both paths; the re-solve comparison starts at 1.
    cold_ms = 1e3 * float(np.mean(cold_times[1:]))
    warm_ms = 1e3 * float(np.mean(warm_times[1:]))
    worst_objective = float(np.max(objective_rel_diff))
    return {
        "cold_step_ms": round(cold_ms, 3),
        "warm_step_ms": round(warm_ms, 3),
        "speedup": round(cold_ms / warm_ms, 2),
        "max_objective_rel_diff": worst_objective,
        "solutions_match": bool(worst_objective <= 1e-5),
    }


def _warm_backend_loop(
    name: str, num_steps: int, backend: str, sparsify: str = "auto", seed: int = 0
) -> tuple[float, np.ndarray]:
    """One closed-loop MPC sequence through a persistent workspace.

    Returns the mean per-step wall time (step 0, which pays setup and the
    full first solve, is excluded) and the per-step objectives.
    """
    L, V, W = SCALES[name]
    instance = _instance(L, V, seed, usable_density=SCALE_DENSITY[name])
    demand, prices = _observations(L, V, num_steps + W, seed + 1)
    workspace = DSPPWorkspace()
    settings = QPSettings(
        early_polish=True, kkt_backend=backend, sparsify_columns=sparsify
    )
    current = instance
    times: list[float] = []
    objectives: list[float] = []
    for k in range(num_steps):
        start = time.perf_counter()
        solution = solve_dspp(
            current,
            demand[:, k : k + W],
            prices[:, k : k + W],
            settings=settings,
            workspace=workspace,
        )
        if k > 0:
            times.append(time.perf_counter() - start)
        objectives.append(solution.objective)
        current = current.with_initial_state(solution.trajectory.states[0])
    return float(np.mean(times)), np.asarray(objectives)


def bench_backends(name: str, num_steps: int, seed: int = 0) -> dict[str, object]:
    """Warm-step comparison of the scale's baseline vs candidate backend.

    Both loops consume the same instance and observation streams; each
    advances along its own closed-loop trajectory (the trajectories agree
    to solver tolerance, which the objective divergence column certifies).
    A scale without a candidate times its baseline alone and nulls the
    comparison columns.
    """
    (base_backend, base_sparsify), candidate = SCALE_COMPARISON[name]
    base_s, base_obj = _warm_backend_loop(
        name, num_steps, base_backend, base_sparsify, seed
    )
    result: dict[str, object] = {
        "baseline": {
            "backend": base_backend,
            "sparsify": base_sparsify,
            "warm_step_ms": round(1e3 * base_s, 3),
        },
        "candidate": None,
        "speedup": None,
        "max_objective_rel_diff": None,
        "solutions_match": None,
    }
    if candidate is None:
        return result
    cand_backend, cand_sparsify = candidate
    cand_s, cand_obj = _warm_backend_loop(
        name, num_steps, cand_backend, cand_sparsify, seed
    )
    worst = float(
        np.max(np.abs(base_obj - cand_obj) / np.maximum(np.abs(base_obj), 1e-12))
    )
    result.update(
        candidate={
            "backend": cand_backend,
            "sparsify": cand_sparsify,
            "warm_step_ms": round(1e3 * cand_s, 3),
        },
        speedup=round(base_s / cand_s, 2),
        max_objective_rel_diff=worst,
        solutions_match=bool(worst <= 1e-9),
    )
    return result


def bench_ruiz(repeats: int, seed: int = 0) -> dict[str, object]:
    """Time Ruiz equilibration at paper scale, dense vs pruned layout.

    The dense figure tracks the data-array rewrite of the equilibrator;
    the pruned figure shows the additional win from running it over the
    sparsified column space (an xlarge-density paper-scale instance).
    """
    L, V, W = SCALES["paper"]
    instance = _instance(L, V, seed)
    rng = np.random.default_rng(seed + 1)
    demand = rng.uniform(10.0, 60.0, size=(V, W))
    prices = rng.uniform(0.5, 2.0, size=(L, W))
    stacked = build_stacked_qp(instance, demand, prices)
    problem = QPProblem.build(stacked.P, stacked.q, stacked.A, stacked.l, stacked.u)
    iterations = 10
    start = time.perf_counter()
    for _ in range(repeats):
        _qp._ruiz_equilibrate(problem, iterations)
    elapsed = time.perf_counter() - start

    pruned_instance = _instance(L, V, seed + 2, usable_density=0.25)
    structure = build_qp_structure(pruned_instance, W, elastic=False, sparsify=True)
    q, l, u = build_qp_vectors(structure, pruned_instance, demand, prices)
    pruned_problem = QPProblem.build(structure.P, q, structure.A, l, u)
    start = time.perf_counter()
    for _ in range(repeats):
        _qp._ruiz_equilibrate(pruned_problem, iterations)
    pruned_elapsed = time.perf_counter() - start
    return {
        "n": problem.num_variables,
        "m": problem.num_constraints,
        "n_pruned": pruned_problem.num_variables,
        "m_pruned": pruned_problem.num_constraints,
        "repeats": repeats,
        "scaling_iterations": iterations,
        "ms_per_equilibration": round(1e3 * elapsed / repeats, 3),
        "ms_per_equilibration_pruned": round(1e3 * pruned_elapsed / repeats, 3),
    }


def bench_sweep(quick: bool) -> dict[str, object]:
    """Serial vs 2-process fig9 sweep; checks bit-identical output."""
    kwargs = {
        "horizons": (1, 2, 3) if quick else (1, 2, 3, 4),
        "num_periods": 12 if quick else 24,
        "num_seeds": 2,
    }
    start = time.perf_counter()
    serial = run_fig9(jobs=1, **kwargs)
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    parallel = run_fig9(jobs=2, **kwargs)
    parallel_s = time.perf_counter() - start
    identical = all(
        np.array_equal(serial.series[key], parallel.series[key])
        for key in serial.series
    )
    return {
        "config": {k: list(v) if isinstance(v, tuple) else v for k, v in kwargs.items()},
        "serial_s": round(serial_s, 2),
        "parallel_s": round(parallel_s, 2),
        "jobs": 2,
        "bit_identical": bool(identical),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke: fewer steps, small+paper only"
    )
    parser.add_argument(
        "--backend",
        choices=("both", "sparse", "banded"),
        default="both",
        help="KKT backend(s) for the warm comparison: 'both' runs each "
        "scale's baseline-vs-candidate pair (default)",
    )
    parser.add_argument(
        "--sparsify",
        choices=("auto", "on", "off"),
        default="auto",
        help="column sparsification for a pinned --backend run",
    )
    parser.add_argument(
        "--sla-density",
        type=float,
        default=None,
        help="override the usable-pair fraction at every scale (0 < d <= 1)",
    )
    parser.add_argument("--out", default=None, help="output path (default: repo root)")
    args = parser.parse_args(argv)
    if args.sla_density is not None and not 0.0 < args.sla_density <= 1.0:
        parser.error(f"--sla-density must be in (0, 1], got {args.sla_density}")
    if args.sla_density is not None:
        for scale_name in SCALE_DENSITY:
            SCALE_DENSITY[scale_name] = args.sla_density

    out = (
        Path(args.out)
        if args.out is not None
        else Path(__file__).resolve().parent.parent / "BENCH_solver.json"
    )
    num_steps = 8 if args.quick else 24
    scales = ["small", "paper"] if args.quick else list(SCALES)

    results: dict[str, object] = {
        "benchmark": "persistent QP workspace + KKT backends vs cold MPC re-solves",
        "quick": bool(args.quick),
        "backend": args.backend,
        "sparsify": args.sparsify,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "scales": {},
        "scaling_curve": [],
    }
    curve: list[dict[str, object]] = results["scaling_curve"]  # type: ignore[assignment]
    for name in scales:
        L, V, W = SCALES[name]
        steps = _scale_steps(name, num_steps)
        entry = _null_scale_entry(name, num_steps)
        if name in _SKIP_COLD:
            print(f"== mpc {name} ({steps} steps, cold path skipped)")
        else:
            print(f"== mpc {name} ({steps} steps)")
            entry.update(bench_mpc(name, steps))
            print(
                f"   cold {entry['cold_step_ms']} ms/step, "
                f"warm {entry['warm_step_ms']} ms/step, "
                f"speedup {entry['speedup']}x, match={entry['solutions_match']}"
            )
        if args.backend == "both":
            backends = bench_backends(name, steps)
            entry["backends"] = backends
            base = backends["baseline"]
            cand = backends["candidate"]
            line = (
                f"   backends: {base['backend']}/{base['sparsify']} "
                f"{base['warm_step_ms']} ms/step"
            )
            if cand is not None:
                line += (
                    f" vs {cand['backend']}/{cand['sparsify']} "
                    f"{cand['warm_step_ms']} ms/step, "
                    f"speedup {backends['speedup']}x, "
                    f"match={backends['solutions_match']}"
                )
            print(line)
            curve_variant = cand if cand is not None else base
            curve_ms = curve_variant["warm_step_ms"]
        else:
            warm_s, _ = _warm_backend_loop(name, steps, args.backend, args.sparsify)
            variant = {
                "backend": args.backend,
                "sparsify": args.sparsify,
                "warm_step_ms": round(1e3 * warm_s, 3),
            }
            entry["backends"] = {
                "baseline": None,
                "candidate": variant,
                "speedup": None,
                "max_objective_rel_diff": None,
                "solutions_match": None,
            }
            print(f"   {args.backend} warm {variant['warm_step_ms']} ms/step")
            curve_ms = variant["warm_step_ms"]
            curve_variant = variant
        curve.append(
            {
                "scale": name,
                "lvw": L * V * W,
                "backend": curve_variant["backend"],
                "sparsify": curve_variant["sparsify"],
                "usable_density": SCALE_DENSITY[name],
                "warm_step_ms": curve_ms,
            }
        )
        results["scales"][name] = entry  # type: ignore[index]
    print("== ruiz equilibration (paper scale)")
    results["ruiz"] = bench_ruiz(repeats=3 if args.quick else 10)
    print(
        f"   dense {results['ruiz']['ms_per_equilibration']} ms, "  # type: ignore[index]
        f"pruned {results['ruiz']['ms_per_equilibration_pruned']} ms"  # type: ignore[index]
    )
    print("== parallel sweep (fig9 miniature)")
    results["sweep"] = bench_sweep(args.quick)
    print(
        f"   serial {results['sweep']['serial_s']} s, "  # type: ignore[index]
        f"2 procs {results['sweep']['parallel_s']} s, "  # type: ignore[index]
        f"bit_identical={results['sweep']['bit_identical']}"  # type: ignore[index]
    )

    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out}")

    scale_entries = results["scales"]  # type: ignore[assignment]
    paper = scale_entries.get("paper")  # type: ignore[union-attr]
    ok = bool(paper and paper.get("solutions_match") is not False)
    for name, entry in scale_entries.items():  # type: ignore[union-attr]
        backends = entry.get("backends") or {}
        if backends.get("solutions_match") is not None:
            ok = ok and bool(backends["solutions_match"])
            print(f"{name} backend speedup: {backends['speedup']}x")
    if paper and paper.get("speedup") is not None:
        print(f"paper-scale warm speedup: {paper['speedup']}x")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
