"""Tests for the provider-sharded process pool (repro.experiments.pool)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dspp import solve_dspp
from repro.experiments.pool import (
    DeadWorkerError,
    PoolSettings,
    ProviderPool,
    shard_indices,
)
from repro.game.best_response import BestResponseConfig, compute_equilibrium
from repro.game.mpc_game import MPCGameConfig, run_mpc_game
from repro.game.players import random_providers


def _population(num_providers=3, L=2, V=3, horizon=4, seed=11):
    rng = np.random.default_rng(seed)
    providers = random_providers(
        num_providers,
        tuple(f"dc{i}" for i in range(L)),
        tuple(f"v{i}" for i in range(V)),
        rng.uniform(10.0, 60.0, size=(L, V)),
        horizon,
        rng,
        demand_scale=40.0,
    )
    peak = sum(float(p.servers_demanded().max()) for p in providers)
    capacity = np.full(L, 1.2 * peak / L)
    return providers, capacity


class TestShardIndices:
    def test_provider_affine_mapping(self):
        assert shard_indices(5, 2) == [[0, 2, 4], [1, 3]]
        assert shard_indices(3, 3) == [[0], [1], [2]]
        assert shard_indices(2, 1) == [[0, 1]]

    def test_every_provider_owned_exactly_once(self):
        shards = shard_indices(17, 4)
        flat = sorted(i for shard in shards for i in shard)
        assert flat == list(range(17))

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError, match="provider"):
            shard_indices(0, 2)
        with pytest.raises(ValueError, match="worker"):
            shard_indices(2, 0)


class TestPoolLifecycle:
    def test_jobs_clamped_to_provider_count(self):
        providers, _ = _population(num_providers=3)
        with ProviderPool(providers, jobs=8) as pool:
            assert pool.num_jobs == 3
            assert pool.num_providers == 3

    def test_default_jobs_is_inline(self):
        providers, _ = _population(num_providers=2)
        pool = ProviderPool(providers)
        try:
            assert pool.num_jobs == 1
        finally:
            pool.close()

    def test_close_is_idempotent_and_poisons_rounds(self):
        providers, capacity = _population(num_providers=2)
        pool = ProviderPool(providers, jobs=2)
        pool.close()
        pool.close()
        quotas = np.tile(capacity / 2, (2, 1))
        with pytest.raises(RuntimeError, match="closed"):
            pool.run_round(quotas)

    def test_rejects_empty_population(self):
        with pytest.raises(ValueError, match="provider"):
            ProviderPool([])

    def test_settings_validation(self):
        with pytest.raises(ValueError, match="slack_penalty"):
            PoolSettings(slack_penalty=0.0)

    def test_solutions_before_any_round_raises(self):
        providers, _ = _population(num_providers=2)
        with ProviderPool(providers) as pool:
            with pytest.raises(RuntimeError, match="round"):
                pool.solutions()


class TestRoundProtocol:
    def test_round_shape_validation(self):
        providers, capacity = _population(num_providers=2, L=2)
        with ProviderPool(providers) as pool:
            with pytest.raises(ValueError, match="shape"):
                pool.run_round(np.ones((3, 2)))
            with pytest.raises(ValueError, match="shape"):
                pool.run_round(np.ones((2, 3)))

    def test_set_problems_length_validation(self):
        providers, _ = _population(num_providers=2)
        with ProviderPool(providers) as pool:
            with pytest.raises(ValueError, match="states"):
                pool.set_problems(states=[None])

    def test_worker_errors_propagate_to_coordinator(self):
        """A zero quota makes the shard's with_capacities raise; the pool
        must surface that as the original exception type, not hang."""
        providers, capacity = _population(num_providers=2)
        quotas = np.tile(capacity / 2, (2, 1))
        quotas[1, 0] = 0.0
        for jobs in (1, 2):
            with ProviderPool(providers, jobs=jobs) as pool:
                with pytest.raises(ValueError, match="capacit"):
                    pool.run_round(quotas)

    def test_round_reports_match_direct_solves(self):
        providers, capacity = _population(num_providers=3)
        quotas = np.tile(capacity / 3, (3, 1))
        settings = PoolSettings()
        with ProviderPool(providers, jobs=2, settings=settings) as pool:
            result = pool.run_round(quotas)
            controls = pool.first_controls()
        for i, provider in enumerate(providers):
            direct = solve_dspp(
                provider.instance.with_capacities(quotas[i]),
                provider.demand,
                provider.prices,
                demand_slack_penalty=settings.slack_penalty,
            )
            assert result.costs[i] == direct.objective
            assert np.array_equal(
                result.duals[i], direct.capacity_duals.sum(axis=0)
            )
            assert result.shortfalls[i] == float(direct.demand_slack.sum())
            assert np.array_equal(controls[i], direct.first_control)


def _assert_equilibria_identical(a, b):
    assert a.iterations == b.iterations
    assert a.converged == b.converged
    assert a.total_cost == b.total_cost
    assert a.cost_history == b.cost_history
    assert np.array_equal(a.provider_costs, b.provider_costs)
    assert np.array_equal(a.quotas, b.quotas)
    assert a.total_shortfall == b.total_shortfall
    for sa, sb in zip(a.solutions, b.solutions):
        assert np.array_equal(sa.trajectory.states, sb.trajectory.states)
        assert np.array_equal(sa.capacity_duals, sb.capacity_duals)
        assert np.array_equal(sa.demand_slack, sb.demand_slack)


class TestBitwiseIdentity:
    def test_equilibrium_identical_at_any_jobs_count(self):
        providers, capacity = _population(num_providers=4)
        config = BestResponseConfig(epsilon=1e-3, max_iterations=6)
        serial = compute_equilibrium(providers, capacity, config, jobs=1)
        for jobs in (2, 3, 4):
            sharded = compute_equilibrium(
                providers, capacity, config, jobs=jobs
            )
            _assert_equilibria_identical(serial, sharded)

    def test_mpc_game_identical_at_any_jobs_count(self):
        providers, capacity = _population(num_providers=3, horizon=4)
        config = MPCGameConfig(window=2, coordination_rounds=2)
        serial = run_mpc_game(providers, capacity, config, jobs=1)
        for jobs in (2, 3):
            sharded = run_mpc_game(providers, capacity, config, jobs=jobs)
            assert sharded.total_cost == serial.total_cost
            assert np.array_equal(
                sharded.provider_costs, serial.provider_costs
            )
            assert sharded.total_shortfall == serial.total_shortfall
            assert len(sharded.periods) == len(serial.periods)
            for pa, pb in zip(sharded.periods, serial.periods):
                assert np.array_equal(pa.quotas, pb.quotas)
                assert np.array_equal(pa.states, pb.states)
                assert np.array_equal(pa.capacity_used, pb.capacity_used)


class TestCallerOwnedPool:
    def test_compute_equilibrium_leaves_external_pool_open(self):
        providers, capacity = _population(num_providers=3)
        config = BestResponseConfig(epsilon=1e-3, max_iterations=4)
        with ProviderPool(
            providers, jobs=2, settings=config.pool_settings()
        ) as pool:
            first = compute_equilibrium(providers, capacity, config, pool=pool)
            # The pool must survive the call so its warm workspaces can be
            # reused; the repeat run converges to the same equilibrium (to
            # solver tolerance — warm iterates carry history, so this is
            # deliberately not a bitwise comparison).
            second = compute_equilibrium(providers, capacity, config, pool=pool)
        assert second.total_cost == pytest.approx(first.total_cost, rel=1e-4)
        assert second.quotas == pytest.approx(first.quotas, rel=1e-3, abs=1e-6)
        # A fresh self-owned pool at the same jobs count is bitwise equal.
        owned = compute_equilibrium(providers, capacity, config, jobs=2)
        _assert_equilibria_identical(first, owned)

    def test_pool_population_mismatch_rejected(self):
        providers, capacity = _population(num_providers=3)
        config = BestResponseConfig()
        with ProviderPool(providers[:2], settings=config.pool_settings()) as pool:
            with pytest.raises(ValueError, match="pool holds"):
                compute_equilibrium(providers, capacity, config, pool=pool)


class TestWorkerCrashRecovery:
    def test_dead_worker_error_names_worker_and_shard(self):
        """With no respawn budget a killed child fails fast and loudly."""
        providers, capacity = _population(num_providers=4)
        quotas = np.tile(capacity / 4, (4, 1))
        settings = PoolSettings(max_respawns=0, recv_timeout=30.0)
        with ProviderPool(providers, jobs=2, settings=settings) as pool:
            pool.run_round(quotas)
            pid = pool.kill_worker(1)
            with pytest.raises(DeadWorkerError) as excinfo:
                pool.run_round(quotas)
        error = excinfo.value
        assert error.rank == 1
        assert error.pid == pid
        assert error.shard == (1, 3)
        assert "rank=1" in str(error) and "[1, 3]" in str(error)

    def test_round_completes_through_worker_crash(self):
        """A killed child is respawned with its shard and the round's
        reports stay correct (cold workspaces: tolerance, not bitwise)."""
        providers, capacity = _population(num_providers=4)
        quotas = np.tile(capacity / 4, (4, 1))
        settings = PoolSettings(max_respawns=2, respawn_backoff=0.0)
        with ProviderPool(providers, jobs=2, settings=settings) as pool:
            before = pool.run_round(quotas)
            pool.kill_worker(0)
            after = pool.run_round(quotas)
            np.testing.assert_allclose(after.costs, before.costs, rtol=1e-5)
            np.testing.assert_allclose(
                after.duals, before.duals, rtol=1e-4, atol=1e-6
            )

    def test_respawned_worker_keeps_per_period_problem_data(self):
        """set_problems payloads shipped before the crash must be re-shipped
        to the replacement, or it would silently solve the wrong period."""
        providers, capacity = _population(num_providers=2, horizon=4)
        quotas = np.tile(capacity / 2, (2, 1))
        demands = [p.demand * 0.5 for p in providers]
        settings = PoolSettings(max_respawns=1, respawn_backoff=0.0)
        with ProviderPool(providers, jobs=2, settings=settings) as pool:
            pool.set_problems(demands=demands)
            before = pool.run_round(quotas)
            pool.kill_worker(0)
            after = pool.run_round(quotas)
            np.testing.assert_allclose(after.costs, before.costs, rtol=1e-5)

    def test_kill_worker_rejected_inline_and_out_of_range(self):
        providers, _ = _population(num_providers=2)
        pool = ProviderPool(providers, jobs=1)
        with pytest.raises(RuntimeError, match="inline"):
            pool.kill_worker(0)
        pool.close()
        with ProviderPool(providers, jobs=2) as pool:
            with pytest.raises(RuntimeError, match="rank"):
                pool.kill_worker(5)

    def test_crash_settings_validation(self):
        with pytest.raises(ValueError, match="recv_timeout"):
            PoolSettings(recv_timeout=0.0)
        with pytest.raises(ValueError, match="max_respawns"):
            PoolSettings(max_respawns=-1)
        with pytest.raises(ValueError, match="respawn_backoff"):
            PoolSettings(respawn_backoff=-0.5)
