"""Column sparsification and its supporting caches.

Covers the contract surface the differentials cannot see directly:
memoization identity on :class:`~repro.core.instance.DSPPInstance`,
fingerprint separation between the dense and reduced layouts, the
``sparsify_columns="on"`` exactness guard, exact zeros in the unstacked
trajectory on both KKT backends, and the equilibration reuse counter.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dspp import DSPPWorkspace, solve_dspp
from repro.core.instance import DSPPInstance
from repro.core.matrices import resolve_sparsify, structure_fingerprint
from repro.solvers.qp import QPSettings


@pytest.fixture
def pruned_instance() -> DSPPInstance:
    """3 data centers x 4 locations with 5 of 12 pairs SLA-unusable."""
    sla = np.array(
        [
            [0.02, np.inf, 0.05, np.inf],
            [np.inf, 0.03, 0.04, 0.02],
            [0.05, 0.02, np.inf, np.inf],
        ]
    )
    state = np.where(np.isfinite(sla), 1.5, 0.0)
    return DSPPInstance(
        datacenters=("dc0", "dc1", "dc2"),
        locations=("v0", "v1", "v2", "v3"),
        sla_coefficients=sla,
        reconfiguration_weights=np.array([1.0, 2.0, 0.5]),
        capacities=np.array([80.0, 120.0, 60.0]),
        initial_state=state,
    )


def _forecasts(instance, horizon, rng):
    demand = rng.uniform(0.5, 1.0, (instance.num_locations, horizon)) * (
        instance.max_supportable_demand()[:, None] / (2 * instance.num_locations)
    )
    prices = rng.uniform(0.5, 2.0, (instance.num_datacenters, horizon))
    return demand, prices


class TestInstanceMemoization:
    def test_demand_coefficients_identity(self, pruned_instance):
        first = pruned_instance.demand_coefficients
        assert pruned_instance.demand_coefficients is first
        assert not first.flags.writeable

    def test_usable_pairs_identity(self, pruned_instance):
        first = pruned_instance.usable_pairs
        assert pruned_instance.usable_pairs is first
        assert not first.flags.writeable
        np.testing.assert_array_equal(
            first, np.isfinite(pruned_instance.sla_coefficients)
        )

    def test_memos_propagate_through_vector_copies(self, pruned_instance):
        coeff = pruned_instance.demand_coefficients
        usable = pruned_instance.usable_pairs
        moved = pruned_instance.with_capacities(pruned_instance.capacities * 1.1)
        assert moved.demand_coefficients is coeff
        assert moved.usable_pairs is usable
        advanced = moved.with_initial_state(moved.initial_state * 0.5)
        assert advanced.demand_coefficients is coeff
        assert advanced.usable_pairs is usable


class TestFingerprintAndResolve:
    def test_fingerprint_separates_layouts(self, pruned_instance):
        dense = structure_fingerprint(pruned_instance, 3, False, sparsify=False)
        reduced = structure_fingerprint(pruned_instance, 3, False, sparsify=True)
        assert dense != reduced

    def test_resolve_modes(self, pruned_instance, small_instance):
        assert resolve_sparsify(pruned_instance, "auto") is True
        assert resolve_sparsify(pruned_instance, "on") is True
        assert resolve_sparsify(pruned_instance, "off") is False
        # All pairs usable: nothing to prune, even when forced on.
        assert resolve_sparsify(small_instance, "auto") is False
        assert resolve_sparsify(small_instance, "on") is False

    def test_on_rejects_nonzero_pruned_state(self, pruned_instance):
        bad_state = pruned_instance.initial_state.copy()
        bad_state[~pruned_instance.usable_pairs] = 0.25
        bad = pruned_instance.with_initial_state(bad_state)
        with pytest.raises(ValueError, match="sparsify"):
            resolve_sparsify(bad, "on")
        # "auto" declines silently instead of raising.
        assert resolve_sparsify(bad, "auto") is False

    def test_solve_surfaces_the_guard(self, pruned_instance, rng):
        bad_state = pruned_instance.initial_state.copy()
        bad_state[~pruned_instance.usable_pairs] = 0.25
        bad = pruned_instance.with_initial_state(bad_state)
        demand, prices = _forecasts(bad, 3, rng)
        with pytest.raises(ValueError, match="sparsify"):
            solve_dspp(bad, demand, prices, settings=QPSettings(sparsify_columns="on"))


@pytest.mark.parametrize("backend", ["sparse", "banded"])
class TestSparsifiedSolutions:
    def test_pruned_pairs_are_exact_zeros(self, pruned_instance, rng, backend):
        demand, prices = _forecasts(pruned_instance, 4, rng)
        solution = solve_dspp(
            pruned_instance,
            demand,
            prices,
            settings=QPSettings(sparsify_columns="on"),
            workspace=DSPPWorkspace(_banded=backend == "banded"),
        )
        unusable = ~pruned_instance.usable_pairs
        assert np.count_nonzero(solution.trajectory.states[:, unusable]) == 0
        assert np.count_nonzero(solution.trajectory.controls[:, unusable]) == 0

    def test_matches_dense_objective(self, pruned_instance, rng, backend):
        demand, prices = _forecasts(pruned_instance, 4, rng)
        dense = solve_dspp(
            pruned_instance,
            demand,
            prices,
            settings=QPSettings(sparsify_columns="off"),
            workspace=DSPPWorkspace(_banded=backend == "banded"),
        )
        reduced = solve_dspp(
            pruned_instance,
            demand,
            prices,
            settings=QPSettings(sparsify_columns="on"),
            workspace=DSPPWorkspace(_banded=backend == "banded"),
        )
        assert reduced.objective == pytest.approx(dense.objective, rel=1e-9, abs=1e-9)


class TestEquilibrationReuse:
    def test_repeat_setup_with_same_matrices_skips_ruiz(self, pruned_instance, rng):
        ws = DSPPWorkspace()
        demand, prices = _forecasts(pruned_instance, 3, rng)
        solve_dspp(pruned_instance, demand, prices, workspace=ws)
        assert ws._qp.num_equilibrations == 1
        # Vector-only updates ride the cached scaling.
        demand2, prices2 = _forecasts(pruned_instance, 3, rng)
        solve_dspp(pruned_instance, demand2, prices2, workspace=ws)
        assert ws._qp.num_equilibrations == 1

    def test_different_structure_reequilibrates(self, pruned_instance, rng):
        ws = DSPPWorkspace()
        demand, prices = _forecasts(pruned_instance, 3, rng)
        solve_dspp(pruned_instance, demand, prices, workspace=ws)
        demand4, prices4 = _forecasts(pruned_instance, 4, rng)
        solve_dspp(pruned_instance, demand4, prices4, workspace=ws)
        assert ws._qp.num_equilibrations == 2
