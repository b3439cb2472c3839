"""Solver scaling rows: warm closed MPC loops at xlarge and continental scale.

perfbench (``perfbench/run.py``) measures the paper's 4x24, W=6 scale end
to end.  This script adds the two scales beyond it:

* ``xlarge`` — 8 data centers x 64 locations, W=12, 25% usable pairs;
* ``continental`` — 32 x 512, W=24, 6% usable pairs.

Each row runs one closed receding-horizon MPC loop on the production
path: one :class:`repro.core.dspp.DSPPWorkspace` and the default solver
settings, under which ``"auto"`` resolves to the banded KKT backend over
sparsified columns.  Only the solve is timed; each solve is then
certified with :func:`repro.verify.oracles.check_qp_kkt`.

Per row, ``BENCH_solver.json`` records ``warm_step_ms`` (the mean wall
time of steps 1.., since step 0 pays the set-up and the cold first
solve), ``num_steps`` and ``kkt_worst`` (the row's worst scaled KKT
residual).  The script exits 1 if any solve is not OPTIMAL or fails its
certificate.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py          # both rows
    PYTHONPATH=src python benchmarks/run_bench.py --quick  # xlarge only, 8 steps
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.core.dspp import DSPPWorkspace, solve_dspp
from repro.core.instance import DSPPInstance
from repro.solvers.qp import QPStatus
from repro.verify.oracles import check_qp_kkt

__all__ = ["main"]

# name: (L, V, W, usable-pair density, steps).  Most continental locations
# can be served within their SLA by only a handful of nearby centers.
# Continental steps take seconds each; six give a stable mean.
SCALES: dict[str, tuple[int, int, int, float, int]] = {
    "xlarge": (8, 64, 12, 0.25, 24),
    "continental": (32, 512, 24, 0.06, 6),
}
QUICK_STEPS = 8

# The tolerance check_qp_kkt certifies against, as in perfbench.
KKT_TOL = 1e-4


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


def bench_row(name: str, num_steps: int) -> tuple[dict[str, object], list[str]]:
    """One warm closed MPC loop; returns the row and its failures."""
    L, V, W, density, _ = SCALES[name]
    current = _instance(L, V, density, seed=0)
    demand, prices = _observations(L, V, num_steps + W, seed=1)
    workspace = DSPPWorkspace()
    times: list[float] = []
    kkt_worst = 0.0
    failures: list[str] = []
    for k in range(num_steps):
        start = time.perf_counter()
        solution = solve_dspp(
            current, demand[:, k : k + W], prices[:, k : k + W], workspace=workspace
        )
        elapsed = time.perf_counter() - start
        if k > 0:
            times.append(elapsed)
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
        current = current.with_initial_state(solution.trajectory.states[0])
    row = {
        "L": L,
        "V": V,
        "window": W,
        "usable_density": density,
        "num_steps": num_steps,
        "warm_step_ms": round(1e3 * float(np.mean(times)), 3),
        "kkt_worst": kkt_worst,
    }
    return row, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help=f"xlarge only, {QUICK_STEPS} steps")
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
        "quick": bool(args.quick),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "scales": scales,
    }
    failures: list[str] = []
    for name, (_, _, _, _, steps) in SCALES.items():
        if args.quick and name != "xlarge":
            continue
        num_steps = QUICK_STEPS if args.quick else steps
        print(f"== {name} ({num_steps} steps)")
        row, row_failures = bench_row(name, num_steps)
        scales[name] = row
        failures += row_failures
        print(f"   warm {row['warm_step_ms']} ms/step, kkt_worst {row['kkt_worst']:.3e}")
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out}")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
