"""Best-response game benchmark: warm serial vs provider-sharded pool.

Times Algorithm 2 (iterative best response with dual quota coordination)
and the closed-loop W-MPC game at paper / xlarge / continental scale,
across N ∈ {2, 4, 8} providers:

* **serial warm** — the inline pool at ``jobs=1``: one persistent
  :class:`repro.core.dspp.DSPPWorkspace` per provider, so every round
  after the first is a vector-only quota swap against a cached
  factorization;
* **sharded** — the same warm path fanned across ``jobs=N`` worker
  processes with provider-affine shards (``provider_index % jobs``),
  instances shipped once, only quota rows and dual reports crossing the
  process boundary per round.

Every solve runs on a persistent workspace, so ``speedup`` (warm serial
over sharded) isolates the process-parallelism contribution.  On a
single-core container (``nproc: 1`` in the output) it hovers around 1.0
by construction: the workers time-slice one core.

Correctness column: ``bitwise_identical`` certifies that every tested
``jobs`` count reproduces the ``jobs=1`` equilibrium *bitwise* — quotas,
per-provider costs and full solution trajectories.

Writes ``BENCH_game.json`` at the repo root (override with ``--out``).

Usage::

    PYTHONPATH=src python benchmarks/run_bench_game.py            # full
    PYTHONPATH=src python benchmarks/run_bench_game.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.core.instance import DSPPInstance
from repro.experiments.pool import ProviderPool
from repro.game.best_response import BestResponseConfig, compute_equilibrium
from repro.game.mpc_game import MPCGameConfig, run_mpc_game
from repro.game.players import ServiceProvider

__all__ = ["main"]

# (L, V, W): data centers, locations, game horizon.  The paper scale plus
# the two scaling rows of the solver benchmark (benchmarks/run_bench.py).
SCALES: dict[str, tuple[int, int, int]] = {
    "paper": (4, 24, 6),
    "xlarge": (8, 64, 12),
    "continental": (32, 512, 24),
}

# Fraction of (l, v) pairs with a finite SLA coefficient (continental
# deployments are sparse by construction).
SCALE_DENSITY: dict[str, float] = {
    "paper": 1.0,
    "xlarge": 0.25,
    "continental": 0.06,
}

# Per-scale coordination rounds (fixed, so every variant runs the same
# solve sequence and per-round times are directly comparable).
SCALE_ROUNDS: dict[str, int] = {"paper": 4, "xlarge": 3, "continental": 2}

# Provider counts per scale.  Continental sub-problems are seconds each,
# so the population stays small there.
SCALE_PLAYERS: dict[str, tuple[int, ...]] = {
    "paper": (2, 4, 8),
    "xlarge": (2, 4, 8),
    "continental": (2,),
}

# Worker reply window of the sharded pools.  A continental round takes
# minutes per provider, far past the pool's default 60 s hang detection.
_RECV_TIMEOUT_S = 3600.0

# jobs counts exercised for the bitwise-identity certificate at each N.
def _jobs_grid(num_providers: int) -> tuple[int, ...]:
    return tuple(j for j in (2, 4, 8) if j <= num_providers)


def _game_instance(L: int, V: int, seed: int, usable_density: float) -> DSPPInstance:
    rng = np.random.default_rng(seed)
    sla = rng.uniform(0.05, 0.2, size=(L, V))
    if usable_density < 1.0:
        pruned = rng.random(size=(L, V)) >= usable_density
        for v in range(V):
            if pruned[:, v].all():
                pruned[int(rng.integers(0, L)), v] = False
        sla = np.where(pruned, np.inf, sla)
    return DSPPInstance(
        datacenters=tuple(f"d{i}" for i in range(L)),
        locations=tuple(f"v{i}" for i in range(V)),
        sla_coefficients=sla,
        reconfiguration_weights=rng.uniform(0.5, 2.0, size=L),
        capacities=np.full(L, 1e6),
        initial_state=np.zeros((L, V)),
    )


def _providers(
    scale: str, num_providers: int, seed: int
) -> tuple[list[ServiceProvider], np.ndarray]:
    """A competing population plus a physical capacity that makes the
    quota negotiation bind.

    Capacity is ~25% above aggregate peak demand: enough headroom that
    the elastic slack stays out of play (badly oversubscribed instances
    drive the ADMM toward its iteration cap), but tight enough that the
    equal-split quotas pinch heterogeneous providers and the reported
    duals stay active.
    """
    L, V, W = SCALES[scale]
    providers: list[ServiceProvider] = []
    for i in range(num_providers):
        rng = np.random.default_rng([seed, i])
        instance = _game_instance(L, V, seed * 1000 + i, SCALE_DENSITY[scale])
        hours = np.arange(W, dtype=float)
        diurnal = 1.0 + 0.4 * np.sin(2.0 * np.pi * (hours + 3.0 * i) / 24.0)
        demand = 30.0 * diurnal[None, :] * rng.uniform(0.8, 1.2, size=(V, 1))
        demand = np.maximum(demand + rng.normal(scale=1.0, size=(V, W)), 1.0)
        prices = rng.uniform(0.5, 2.0, size=(L, 1)) * diurnal[None, :]
        prices = np.maximum(prices + rng.normal(scale=0.05, size=(L, W)), 0.05)
        providers.append(
            ServiceProvider(
                name=f"sp{i}", instance=instance, demand=demand, prices=prices
            )
        )
    peak = sum(float(p.servers_demanded().max()) for p in providers)
    capacity = np.full(L, 1.25 * peak / L)
    return providers, capacity


def _equilibrium_config(rounds: int) -> BestResponseConfig:
    # epsilon is effectively unreachable, so every variant runs exactly
    # ``rounds`` rounds — identical solve sequences, comparable times.
    return BestResponseConfig(epsilon=1e-12, max_iterations=rounds)


def _bitwise_equal(a, b) -> bool:
    if a.total_cost != b.total_cost or a.iterations != b.iterations:
        return False
    if not np.array_equal(a.provider_costs, b.provider_costs):
        return False
    if not np.array_equal(a.quotas, b.quotas):
        return False
    return all(
        np.array_equal(sa.trajectory.states, sb.trajectory.states)
        and np.array_equal(sa.capacity_duals, sb.capacity_duals)
        for sa, sb in zip(a.solutions, b.solutions)
    )


def bench_equilibrium(scale: str, num_providers: int, seed: int = 0) -> dict[str, object]:
    """Serial-warm vs sharded Algorithm 2 at one (scale, N)."""
    rounds = SCALE_ROUNDS[scale]
    providers, capacity = _providers(scale, num_providers, seed)
    jobs_grid = _jobs_grid(num_providers)

    warm_config = _equilibrium_config(rounds)
    start = time.perf_counter()
    warm = compute_equilibrium(providers, capacity, warm_config, jobs=1)
    warm_ms = 1e3 * (time.perf_counter() - start) / rounds

    pool_settings = replace(warm_config.pool_settings(), recv_timeout=_RECV_TIMEOUT_S)
    sharded_ms: float | None = None
    bitwise = True
    for jobs in jobs_grid:
        start = time.perf_counter()
        with ProviderPool(providers, jobs=jobs, settings=pool_settings) as pool:
            sharded = compute_equilibrium(providers, capacity, warm_config, pool=pool)
        elapsed_ms = 1e3 * (time.perf_counter() - start) / rounds
        if jobs == max(jobs_grid, default=1):
            sharded_ms = elapsed_ms
        bitwise = bitwise and _bitwise_equal(warm, sharded)

    return {
        "num_providers": num_providers,
        "rounds": rounds,
        "jobs": max(jobs_grid, default=1),
        "jobs_tested": list(jobs_grid),
        "serial_warm_round_ms": round(warm_ms, 2),
        "sharded_round_ms": None if sharded_ms is None else round(sharded_ms, 2),
        "speedup": None if sharded_ms is None else round(warm_ms / sharded_ms, 2),
        "bitwise_identical": bool(bitwise),
    }


def bench_mpc_game(
    scale: str, num_providers: int, num_steps: int, seed: int = 0
) -> dict[str, object]:
    """Warm serial vs pooled closed-loop game over a short horizon.

    Both keep one warm workspace per provider alive across the whole
    horizon; the pooled run fans the providers across worker processes.
    """
    L, V, W = SCALES[scale]
    rounds = 2
    providers, capacity = _providers(scale, num_providers, seed)
    # A closed loop needs a horizon longer than the planning window; reuse
    # the same population but extend the trajectories by tiling.
    horizon = num_steps + 1
    extended = []
    for p in providers:
        reps = int(np.ceil(horizon / p.demand.shape[1]))
        extended.append(
            ServiceProvider(
                name=p.name,
                instance=p.instance,
                demand=np.tile(p.demand, (1, reps))[:, :horizon],
                prices=np.tile(p.prices, (1, reps))[:, :horizon],
            )
        )
    warm_config = MPCGameConfig(window=min(3, W), coordination_rounds=rounds)
    start = time.perf_counter()
    warm = run_mpc_game(extended, capacity, warm_config, jobs=1)
    warm_serial_ms = 1e3 * (time.perf_counter() - start) / num_steps

    start = time.perf_counter()
    pooled = run_mpc_game(extended, capacity, warm_config, jobs=num_providers)
    pooled_ms = 1e3 * (time.perf_counter() - start) / num_steps

    bitwise = warm.total_cost == pooled.total_cost and all(
        np.array_equal(pa.quotas, pb.quotas) and np.array_equal(pa.states, pb.states)
        for pa, pb in zip(warm.periods, pooled.periods)
    )
    return {
        "num_providers": num_providers,
        "num_steps": num_steps,
        "coordination_rounds": rounds,
        "jobs": num_providers,
        "serial_warm_period_ms": round(warm_serial_ms, 2),
        "sharded_period_ms": round(pooled_ms, 2),
        "speedup": round(warm_serial_ms / pooled_ms, 2),
        "bitwise_identical": bool(bitwise),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke: paper scale only, fewer runs"
    )
    parser.add_argument("--out", default=None, help="output path (default: repo root)")
    args = parser.parse_args(argv)
    out = (
        Path(args.out)
        if args.out is not None
        else Path(__file__).resolve().parent.parent / "BENCH_game.json"
    )

    scales = ["paper"] if args.quick else list(SCALES)
    results: dict[str, object] = {
        "benchmark": "provider-sharded best-response pool vs serial game",
        "quick": bool(args.quick),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "note": (
            "speedup is warm serial over sharded (both keep one resident "
            "workspace per provider); on a 1-cpu host sharded workers "
            "time-slice one core, so speedup ~ 1.0"
        ),
        "equilibrium": {},
        "mpc_game": {},
    }

    ok = True
    for scale in scales:
        L, V, W = SCALES[scale]
        players = SCALE_PLAYERS[scale]
        if args.quick:
            players = tuple(n for n in players if n <= 4)
        entries = []
        for n in players:
            print(f"== equilibrium {scale} (L={L} V={V} W={W}) N={n}")
            entry = bench_equilibrium(scale, n)
            entries.append(entry)
            print(
                f"   warm {entry['serial_warm_round_ms']} ms/round, "
                f"sharded(jobs={entry['jobs']}) {entry['sharded_round_ms']} "
                f"ms/round, speedup {entry['speedup']}x, "
                f"bitwise={entry['bitwise_identical']}"
            )
            ok = ok and bool(entry["bitwise_identical"])
        results["equilibrium"][scale] = {  # type: ignore[index]
            "L": L,
            "V": V,
            "window": W,
            "usable_density": SCALE_DENSITY[scale],
            "runs": entries,
        }

    mpc_scales = ["paper"] if args.quick else ["paper", "xlarge"]
    for scale in mpc_scales:
        num_steps = 3 if args.quick else 4
        print(f"== mpc game {scale} N=4 ({num_steps} periods)")
        entry = bench_mpc_game(scale, num_providers=4, num_steps=num_steps)
        results["mpc_game"][scale] = entry  # type: ignore[index]
        print(
            f"   warm {entry['serial_warm_period_ms']} ms/period, "
            f"sharded {entry['sharded_period_ms']} ms/period, "
            f"speedup {entry['speedup']}x, "
            f"bitwise={entry['bitwise_identical']}"
        )
        ok = ok and bool(entry["bitwise_identical"])

    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
