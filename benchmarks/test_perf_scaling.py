"""Performance benchmarks: how the core solves scale with instance size.

Unlike the figure benches (single-shot simulation sweeps) these are true
microbenchmarks — pytest-benchmark runs them repeatedly and reports
stable timing distributions.  They track the three hot paths:

* one full DSPP solve at small / paper / large scale,
* one warm-started receding-horizon re-solve (the MPC inner loop), and
* one best-response round of the game.
"""

import itertools

import numpy as np
import pytest

from repro.core.dspp import DSPPWorkspace, solve_dspp
from repro.core.instance import DSPPInstance
from repro.game.best_response import BestResponseConfig, compute_equilibrium
from repro.game.players import random_providers


def _instance(L, V, seed=0):
    rng = np.random.default_rng(seed)
    return DSPPInstance(
        datacenters=tuple(f"d{i}" for i in range(L)),
        locations=tuple(f"v{i}" for i in range(V)),
        sla_coefficients=rng.uniform(0.05, 0.2, size=(L, V)),
        reconfiguration_weights=rng.uniform(0.5, 2.0, size=L),
        capacities=np.full(L, 1e5),
        initial_state=np.zeros((L, V)),
    )


def _traces(L, V, T, seed=1):
    rng = np.random.default_rng(seed)
    return (
        rng.uniform(10.0, 60.0, size=(V, T)),
        rng.uniform(0.5, 2.0, size=(L, T)),
    )


@pytest.mark.parametrize(
    "L,V,T",
    [(2, 3, 4), (4, 24, 6), (6, 30, 12)],
    ids=["small", "paper-scale", "large"],
)
def test_perf_dspp_solve(benchmark, L, V, T):
    instance = _instance(L, V)
    demand, prices = _traces(L, V, T)
    result = benchmark(solve_dspp, instance, demand, prices)
    assert result.qp.is_optimal


def test_perf_warm_started_resolve(benchmark):
    """The MPC inner loop: re-solve a slightly perturbed horizon on one
    workspace (each call alternates the forecast, so no call repeats the
    previous problem)."""
    instance = _instance(4, 24)
    demand, prices = _traces(4, 24, 6)
    workspace = DSPPWorkspace()
    first = solve_dspp(instance, demand, prices, workspace=workspace)
    assert first.qp.is_optimal
    scales = itertools.cycle((1.01, 1.0))

    def _resolve():
        return solve_dspp(
            instance, demand * next(scales), prices, workspace=workspace
        )

    result = benchmark(_resolve)
    assert result.qp.is_optimal


def test_perf_game_round(benchmark):
    """One full Algorithm 2 run on a small contended game."""
    rng = np.random.default_rng(5)
    latency = rng.uniform(10.0, 60.0, size=(3, 4))
    providers = random_providers(
        4, ("d0", "d1", "d2"), ("v0", "v1", "v2", "v3"),
        latency, 4, rng, demand_scale=80.0,
    )
    capacity = np.array([80.0, 2000.0, 2000.0])
    config = BestResponseConfig(epsilon=0.05, max_iterations=5)
    result = benchmark(compute_equilibrium, providers, capacity, config)
    assert result.total_cost > 0
