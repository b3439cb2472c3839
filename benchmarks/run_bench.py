"""Solver scaling rows: warm closed MPC loops at xlarge and continental scale.

perfbench (``perfbench/run.py``) measures the paper's 4x24, W=6 scale end
to end.  This script adds the two scales beyond it:

* ``xlarge`` — 8 data centers x 64 locations, W=12, 25% usable pairs;
* ``continental`` — 32 x 512, W=24, 6% usable pairs.

Each row runs one closed receding-horizon MPC loop on the production
path: one :class:`repro.core.dspp.DSPPWorkspace` and the default solver
settings.  The zero initial state lets the layout rule
(:func:`repro.core.matrices.prunes_unusable_pairs`) prune the SLA-unusable
pairs' columns, and the backend rule picks the banded KKT backend.  Only the solve is timed; each solve is then
certified with :func:`repro.verify.oracles.check_qp_kkt`.

Per row, ``BENCH_solver.json`` records ``warm_step_ms`` (the mean wall
time of steps 1.., since step 0 pays the set-up and the cold first
solve), ``num_steps``, ``kkt_worst`` (the row's worst scaled KKT
residual), ``max_bound_violation`` (the row's worst absolute bound
violation ``max(l - Ax, Ax - u)``) and ``active_set_builds`` (active-set
systems built over the timed steps, banded and sparse).  The script exits
1 if any solve is not OPTIMAL, fails its certificate or violates a bound
by more than ``MAX_BOUND_VIOLATION``.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import repro.solvers.workspace as workspace_module
from repro.core.dspp import DSPPWorkspace, solve_dspp
from repro.core.instance import DSPPInstance
from repro.solvers.qp import QPStatus
from repro.verify.oracles import check_qp_kkt

__all__ = ["main"]

# name: (L, V, W, usable-pair density, steps).  Most continental locations
# can be served within their SLA by only a handful of nearby centers.
SCALES: dict[str, tuple[int, int, int, float, int]] = {
    "xlarge": (8, 64, 12, 0.25, 24),
    "continental": (32, 512, 24, 0.06, 6),
}

# The workspace's active-set builders, by module attribute name.
ACTIVE_SET_BUILDERS = ("build_banded_active_set_system", "build_active_set_system")

# The tolerance check_qp_kkt certifies against, as in perfbench.
KKT_TOL = 1e-4

# Largest absolute bound violation a shipped solve may have: the limit the
# solver's own certificate applies to every polished point.
MAX_BOUND_VIOLATION = 1e-9


def _instance(L: int, V: int, density: float, seed: int) -> DSPPInstance:
    rng = np.random.default_rng(seed)
    sla = rng.uniform(0.05, 0.2, size=(L, V))
    pruned = rng.random(size=(L, V)) >= density
    # Instance validation requires every location servable.
    for v in range(V):
        if pruned[:, v].all():
            pruned[int(rng.integers(0, L)), v] = False
    return DSPPInstance(
        datacenters=tuple(f"d{i}" for i in range(L)),
        locations=tuple(f"v{i}" for i in range(V)),
        sla_coefficients=np.where(pruned, np.inf, sla),
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


@contextmanager
def _counting_builds() -> Iterator[list[int]]:
    """Count the workspace's active-set builds while the block runs.

    Yields a one-element counter.  The builders are wrapped where the
    workspace looks them up, as perfbench wraps its entry points; a build
    counts whether or not it returns a system.
    """
    counter = [0]
    originals = {name: getattr(workspace_module, name) for name in ACTIVE_SET_BUILDERS}

    def counted(fn: Callable[..., object]) -> Callable[..., object]:
        def wrapper(*args: object, **kwargs: object) -> object:
            counter[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name, fn in originals.items():
        setattr(workspace_module, name, counted(fn))
    try:
        yield counter
    finally:
        for name, fn in originals.items():
            setattr(workspace_module, name, fn)


def bench_row(name: str) -> tuple[dict[str, object], list[str]]:
    """One warm closed MPC loop; returns the row and its failures."""
    L, V, W, density, num_steps = SCALES[name]
    current = _instance(L, V, density, seed=0)
    demand, prices = _observations(L, V, num_steps + W, seed=1)
    workspace = DSPPWorkspace()
    times: list[float] = []
    kkt_worst = 0.0
    max_violation = 0.0
    failures: list[str] = []
    builds = 0
    for k in range(num_steps):
        with _counting_builds() as step_builds:
            start = time.perf_counter()
            solution = solve_dspp(
                current, demand[:, k : k + W], prices[:, k : k + W], workspace=workspace
            )
            elapsed = time.perf_counter() - start
        if k > 0:
            times.append(elapsed)
            builds += step_builds[0]
        qp = solution.qp
        if qp.status is not QPStatus.OPTIMAL:
            failures.append(f"{name} step {k}: status {qp.status.value}")
            continue
        # At tolerance 0 the certificate reports the scaled residual itself.
        findings = check_qp_kkt(workspace._qp.problem, qp, name, tol=0.0)
        residual = findings[0].magnitude if findings else 0.0
        kkt_worst = max(kkt_worst, residual)
        if residual > KKT_TOL:
            failures.append(f"{name} step {k}: {findings[0]}")
        problem = workspace._qp.problem
        ax = problem.A @ qp.x
        violation = float(np.max(np.maximum(problem.l - ax, ax - problem.u), initial=0.0))
        max_violation = max(max_violation, violation)
        if violation > MAX_BOUND_VIOLATION:
            failures.append(f"{name} step {k}: bound violation {violation:.3e}")
        current = current.with_initial_state(solution.trajectory.states[0])
    row = {
        "L": L,
        "V": V,
        "window": W,
        "usable_density": density,
        "num_steps": num_steps,
        "warm_step_ms": round(1e3 * float(np.mean(times)), 3),
        "kkt_worst": kkt_worst,
        "max_bound_violation": max_violation,
        "active_set_builds": builds,
    }
    return row, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="output path (default: repo root)")
    args = parser.parse_args(argv)
    out = (
        Path(args.out)
        if args.out is not None
        else Path(__file__).resolve().parent.parent / "BENCH_solver.json"
    )
    scales: dict[str, object] = {}
    results = {
        "benchmark": "warm closed MPC loop, production solver path, beyond paper scale",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "scales": scales,
    }
    failures: list[str] = []
    for name in SCALES:
        print(f"== {name} ({SCALES[name][4]} steps)")
        row, row_failures = bench_row(name)
        scales[name] = row
        failures += row_failures
        print(
            f"   warm {row['warm_step_ms']} ms/step, kkt_worst {row['kkt_worst']:.3e}, "
            f"max bound violation {row['max_bound_violation']:.3e}, "
            f"active-set builds {row['active_set_builds']}"
        )
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out}")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
