"""The pruned layout, its rule and its supporting caches.

Covers the contract surface the differentials cannot see directly:
memoization identity on :class:`~repro.core.instance.DSPPInstance`,
fingerprint separation between the full and pruned masks, the layout
rule switching as the state changes, exact zeros in the unstacked
trajectory on both KKT backends, and the equilibration reuse counter.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dspp import DSPPWorkspace, solve_dspp
from repro.core.instance import DSPPInstance
from repro.core.matrices import prunes_unusable_pairs, structure_fingerprint


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
        dense = structure_fingerprint(pruned_instance, 3, False, pruned=False)
        reduced = structure_fingerprint(pruned_instance, 3, False, pruned=True)
        assert dense != reduced

    def test_layout_follows_the_state_across_solves(self, pruned_instance, rng):
        """State at an unusable pair keeps the full mask; once it is zero,
        the next solve sets up again on the pruned mask.  Both match a
        workspace forced onto the full mask."""
        usable = pruned_instance.usable_pairs
        held = pruned_instance.initial_state.copy()
        held[0, 1] = 0.25  # an SLA-unusable pair
        instance = pruned_instance.with_initial_state(held)
        assert not prunes_unusable_pairs(instance)
        workspace, reference = DSPPWorkspace(), DSPPWorkspace(_full_mask=True)
        layouts = []
        for step in range(2):
            demand, prices = _forecasts(instance, 3, rng)
            solution = solve_dspp(instance, demand, prices, workspace=workspace)
            full = solve_dspp(instance, demand, prices, workspace=reference)
            assert solution.objective == pytest.approx(full.objective, rel=1e-9, abs=1e-9)
            layouts.append(workspace._structure.blocks.pairs_per_step)
            advanced = np.where(usable, solution.trajectory.states[0], 0.0)
            instance = instance.with_initial_state(advanced)
            if step == 0:
                assert prunes_unusable_pairs(instance)
        assert layouts == [12, int(usable.sum())]
        assert workspace.num_setups == 2
        assert reference.num_setups == 1


@pytest.mark.parametrize("backend", ["sparse", "banded"])
class TestSparsifiedSolutions:
    def test_pruned_pairs_are_exact_zeros(self, pruned_instance, rng, backend):
        demand, prices = _forecasts(pruned_instance, 4, rng)
        solution = solve_dspp(
            pruned_instance,
            demand,
            prices,
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
            workspace=DSPPWorkspace(_banded=backend == "banded", _full_mask=True),
        )
        reduced = solve_dspp(
            pruned_instance,
            demand,
            prices,
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
