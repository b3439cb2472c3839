"""Tests for the quota coordinator (repro.solvers.dual)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.solvers.dual import QuotaCoordinator


class TestConstruction:
    def test_initial_quotas_are_equal_split(self):
        coordinator = QuotaCoordinator(np.array([90.0, 30.0]), n_providers=3)
        assert coordinator.quotas == pytest.approx(
            np.array([[30.0, 10.0]] * 3)
        )

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="positive"):
            QuotaCoordinator(np.array([0.0]), n_providers=1)

    def test_rejects_zero_providers(self):
        with pytest.raises(ValueError, match="provider"):
            QuotaCoordinator(np.array([1.0]), n_providers=0)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            QuotaCoordinator(np.array([1.0]), 1, mode="other")

    def test_quotas_view_is_readonly(self):
        coordinator = QuotaCoordinator(np.array([10.0]), 2)
        with pytest.raises(ValueError):
            coordinator.quotas[0, 0] = 99.0


class TestUpdate:
    def test_zero_duals_keep_split(self):
        coordinator = QuotaCoordinator(np.array([100.0]), 2)
        update = coordinator.update(np.zeros((2, 1)))
        assert update.quotas == pytest.approx(np.array([[50.0], [50.0]]))
        assert update.max_change == pytest.approx(0.0)

    def test_higher_dual_wins_capacity(self):
        coordinator = QuotaCoordinator(np.array([100.0]), 2, step_size=10.0)
        update = coordinator.update(np.array([[5.0], [1.0]]))
        assert update.quotas[0, 0] > update.quotas[1, 0]
        assert update.quotas[:, 0].sum() == pytest.approx(100.0)

    def test_negative_duals_clipped(self):
        coordinator = QuotaCoordinator(np.array([100.0]), 2)
        update = coordinator.update(np.array([[-5.0], [0.0]]))
        assert update.quotas[:, 0].sum() == pytest.approx(100.0)
        # Clipped negative behaves like zero: equal split preserved.
        assert update.quotas[0, 0] == pytest.approx(50.0)

    def test_shape_mismatch_raises(self):
        coordinator = QuotaCoordinator(np.array([100.0, 50.0]), 2)
        with pytest.raises(ValueError, match="shape"):
            coordinator.update(np.zeros((3, 2)))

    def test_simplex_mode_also_preserves_capacity(self):
        coordinator = QuotaCoordinator(
            np.array([100.0, 40.0]), 3, step_size=5.0, mode="simplex"
        )
        update = coordinator.update(np.abs(np.random.default_rng(0).normal(size=(3, 2))))
        assert update.quotas.sum(axis=0) == pytest.approx([100.0, 40.0])
        assert np.all(update.quotas >= -1e-12)

    def test_reset_restores_equal_split(self):
        coordinator = QuotaCoordinator(np.array([100.0]), 2, step_size=10.0)
        coordinator.update(np.array([[5.0], [0.0]]))
        coordinator.reset()
        assert coordinator.quotas == pytest.approx(np.array([[50.0], [50.0]]))


class TestEdgeCases:
    def test_all_zero_dual_round_renormalizes_without_nan(self):
        """A round where nobody reports scarcity must keep the quota matrix
        finite and capacity-preserving — including when some provider sits
        at an exact-zero quota (column renormalization divides by sums that
        the zero rows do not inflate)."""
        coordinator = QuotaCoordinator(np.array([100.0, 40.0]), 3)
        coordinator.set_quotas(
            np.array([[100.0, 0.0], [0.0, 20.0], [0.0, 20.0]])
        )
        update = coordinator.update(np.zeros((3, 2)))
        assert np.all(np.isfinite(update.quotas))
        assert update.quotas.sum(axis=0) == pytest.approx([100.0, 40.0])
        assert update.quotas == pytest.approx(
            np.array([[100.0, 0.0], [0.0, 20.0], [0.0, 20.0]])
        )
        assert update.max_change == pytest.approx(0.0)

    def test_zero_quota_provider_stays_pinned_under_zero_dual(self):
        """A provider at zero quota that reports no scarcity stays at zero:
        the multiplicative update cannot create share from nothing."""
        coordinator = QuotaCoordinator(np.array([60.0]), 2, step_size=5.0)
        coordinator.set_quotas(np.array([[60.0], [0.0]]))
        for _ in range(3):
            update = coordinator.update(np.array([[2.0], [0.0]]))
        assert update.quotas[1, 0] == pytest.approx(0.0)
        assert update.quotas[0, 0] == pytest.approx(60.0)

    def test_zero_quota_provider_escapes_via_positive_dual(self):
        """The additive ascent term lets a pinned provider claim capacity
        back as soon as it reports a binding constraint."""
        coordinator = QuotaCoordinator(np.array([60.0]), 2, step_size=5.0)
        coordinator.set_quotas(np.array([[60.0], [0.0]]))
        update = coordinator.update(np.array([[0.0], [3.0]]))
        assert update.quotas[1, 0] > 0.0
        assert update.quotas[:, 0].sum() == pytest.approx(60.0)

    def test_single_provider_always_owns_full_capacity(self):
        """With one provider the renormalization is the identity onto the
        physical capacity, whatever the duals say."""
        capacity = np.array([80.0, 20.0, 5.0])
        coordinator = QuotaCoordinator(capacity, 1, step_size=7.0)
        for duals in (np.zeros((1, 3)), np.array([[9.0, 0.0, 123.0]])):
            update = coordinator.update(duals)
            assert update.quotas == pytest.approx(capacity[None, :])

    def test_single_provider_game_reduces_to_plain_solve(self):
        """compute_equilibrium with N=1 is exactly one provider solving its
        own DSPP at the full physical capacity, once per round on one
        workspace."""
        from repro.core.dspp import DSPPWorkspace, solve_dspp
        from repro.game.best_response import (
            BestResponseConfig,
            compute_equilibrium,
        )
        from repro.game.players import random_providers

        rng = np.random.default_rng(7)
        provider = random_providers(
            1,
            ("dc0", "dc1"),
            ("v0", "v1", "v2"),
            rng.uniform(10.0, 60.0, size=(2, 3)),
            horizon=3,
            rng=rng,
        )[0]
        capacity = np.full(2, 1.5 * float(provider.servers_demanded().max()) / 2)
        config = BestResponseConfig()
        result = compute_equilibrium([provider], capacity, config)
        workspace = DSPPWorkspace()
        for _ in range(result.iterations):
            direct = solve_dspp(
                provider.instance.with_capacities(capacity),
                provider.demand,
                provider.prices,
                demand_slack_penalty=config.slack_penalty,
                workspace=workspace,
            )
        assert result.quotas == pytest.approx(capacity[None, :])
        assert result.total_cost == direct.objective
        assert np.array_equal(
            result.solutions[0].trajectory.states, direct.trajectory.states
        )


@settings(max_examples=40, deadline=None)
@given(
    n_providers=st.integers(1, 6),
    n_dcs=st.integers(1, 4),
    step=st.floats(0.01, 20.0),
    seed=st.integers(0, 10_000),
    rounds=st.integers(1, 5),
)
def test_capacity_conservation_invariant(n_providers, n_dcs, step, seed, rounds):
    """Per-DC quotas always sum to the physical capacity, in both modes."""
    rng = np.random.default_rng(seed)
    capacity = rng.uniform(10.0, 500.0, size=n_dcs)
    for mode in ("normalize", "simplex"):
        coordinator = QuotaCoordinator(
            capacity, n_providers, step_size=step, mode=mode
        )
        for _ in range(rounds):
            duals = rng.exponential(scale=3.0, size=(n_providers, n_dcs))
            update = coordinator.update(duals)
            assert update.quotas.sum(axis=0) == pytest.approx(capacity, rel=1e-9)
            assert np.all(update.quotas >= -1e-9)
