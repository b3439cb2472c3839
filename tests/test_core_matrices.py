"""Tests for the stacked QP assembly (repro.core.matrices)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.matrices import QPBlockView, build_stacked_qp
from repro.core.instance import DSPPInstance


@pytest.fixture
def instance():
    return DSPPInstance(
        datacenters=("dc0", "dc1"),
        locations=("v0", "v1"),
        sla_coefficients=np.array([[0.1, 0.2], [0.2, 0.1]]),
        reconfiguration_weights=np.array([2.0, 3.0]),
        capacities=np.array([40.0, 60.0]),
        initial_state=np.array([[1.0, 0.0], [0.0, 2.0]]),
    )


def _view(L, V, T, elastic=False, mask=None):
    """A layout-only view: the coefficient arrays do not affect indexing."""
    return QPBlockView(
        num_steps=T,
        num_datacenters=L,
        num_locations=V,
        elastic=elastic,
        server_size=1.0,
        demand_coeff=np.ones((L, V)),
        control_hessian=np.ones(L * V),
        active_pairs=np.ones(L * V, dtype=bool) if mask is None else mask,
    )


def _x_column(view, step, datacenter, location):
    """Flat column of ``x_{step+1}[l, v]``: the pair's rank in ``x_slice(step)``."""
    pair = datacenter * view.num_locations + location
    return view.x_slice(step).start + int(np.searchsorted(view.active_indices, pair))


def _u_column(view, step, datacenter, location):
    pair = datacenter * view.num_locations + location
    return view.u_slice(step).start + int(np.searchsorted(view.active_indices, pair))


class TestPairIndexer:
    """Pair indexing of the stacked layout, through :class:`QPBlockView`."""

    def test_layout(self):
        view = _view(2, 3, 4)
        assert view.pairs_per_step == 6
        assert view.num_variables == 48
        # Pair (l, v) sits at rank l * V + v of every full-mask block.
        assert view.active_indices[5] == 1 * 3 + 2
        assert _x_column(view, 0, 0, 0) == 0
        assert _x_column(view, 2, 1, 1) == 2 * 6 + 4
        assert _u_column(view, 0, 0, 0) == 24
        assert view.x_slice() == slice(0, 24)
        assert view.u_slice(3) == slice(42, 48)

    def test_elastic_layout(self):
        view = _view(2, 3, 4, elastic=True)
        assert view.num_variables == 48 + 12
        assert view.slack_slice(0).start == 48
        assert view.slack_slice(3).start + 2 == 48 + 11

    def test_slack_index_requires_elastic(self):
        with pytest.raises(ValueError, match="slack"):
            _view(1, 1, 1).slack_slice(0)

    def test_unstack_roundtrip(self):
        view = _view(2, 2, 3)
        z = np.arange(view.num_variables, dtype=float)
        x, u, w = view.unstack(z)
        assert x.shape == (3, 2, 2)
        assert u.shape == (3, 2, 2)
        assert w == pytest.approx(np.zeros((3, 2)))
        assert x[1, 0, 1] == z[_x_column(view, 1, 0, 1)]
        assert u[2, 1, 0] == z[_u_column(view, 2, 1, 0)]
        # A pruned mask keeps the pair order and scatters exact zeros.
        pruned = _view(2, 2, 3, mask=np.array([True, False, True, True]))
        x, u, _ = pruned.unstack(np.arange(pruned.num_variables, dtype=float))
        assert x[1, 1, 0] == _x_column(pruned, 1, 1, 0) == 4
        assert u[0, 1, 1] == _u_column(pruned, 0, 1, 1) == 9 + 2
        assert x[:, 0, 1].tolist() == u[:, 0, 1].tolist() == [0.0, 0.0, 0.0]


class TestBuildStackedQP:
    def test_dimensions(self, instance):
        demand = np.ones((2, 3))
        prices = np.ones((2, 3))
        stacked = build_stacked_qp(instance, demand, prices)
        T, pairs = 3, 4
        n_vars = 2 * T * pairs
        assert stacked.P.shape == (n_vars, n_vars)
        # dynamics + demand + capacity + nonneg rows
        expected_rows = T * pairs + T * 2 + T * 2 + T * pairs
        assert stacked.A.shape == (expected_rows, n_vars)

    def test_quadratic_block_is_2r(self, instance):
        stacked = build_stacked_qp(instance, np.ones((2, 2)), np.ones((2, 2)))
        diag = stacked.P.diagonal()
        view = stacked.blocks
        assert diag[_x_column(view, 0, 0, 0)] == 0.0
        assert diag[_u_column(view, 0, 0, 0)] == pytest.approx(4.0)  # 2 * c_0
        assert diag[_u_column(view, 1, 1, 1)] == pytest.approx(6.0)  # 2 * c_1

    def test_linear_cost_is_price_per_dc(self, instance):
        prices = np.array([[1.0, 3.0], [2.0, 4.0]])
        stacked = build_stacked_qp(instance, np.ones((2, 2)), prices)
        view = stacked.blocks
        assert stacked.q[_x_column(view, 0, 0, 1)] == 1.0
        assert stacked.q[_x_column(view, 1, 0, 0)] == 3.0
        assert stacked.q[_x_column(view, 1, 1, 1)] == 4.0
        assert stacked.q[_u_column(view, 0, 0, 0)] == 0.0

    def test_dynamics_rhs_carries_initial_state(self, instance):
        stacked = build_stacked_qp(instance, np.ones((2, 2)), np.ones((2, 2)))
        pairs = 4
        assert stacked.l[:pairs] == pytest.approx(instance.initial_state.reshape(-1))
        assert stacked.u[:pairs] == pytest.approx(instance.initial_state.reshape(-1))
        # Later dynamic rows are homogeneous.
        assert stacked.l[pairs : 2 * pairs] == pytest.approx(np.zeros(pairs))

    def test_demand_rows_use_inverse_coefficients(self, instance):
        demand = np.array([[5.0, 6.0], [7.0, 8.0]])
        stacked = build_stacked_qp(instance, demand, np.ones((2, 2)))
        view = stacked.blocks
        row = view.demand_rows(0).start  # (t=0, v=0)
        dense = stacked.A[row].toarray().ravel()
        assert dense[_x_column(view, 0, 0, 0)] == pytest.approx(10.0)
        assert dense[_x_column(view, 0, 1, 0)] == pytest.approx(5.0)
        assert stacked.l[row] == 5.0
        assert stacked.u[row] == np.inf

    def test_unusable_pair_excluded_from_demand_row(self):
        coefficients = np.array([[0.1, np.inf], [0.2, 0.1]])
        instance = DSPPInstance(
            datacenters=("dc0", "dc1"),
            locations=("v0", "v1"),
            sla_coefficients=coefficients,
            reconfiguration_weights=np.ones(2),
            capacities=np.full(2, np.inf),
            initial_state=np.zeros((2, 2)),
        )
        stacked = build_stacked_qp(instance, np.ones((2, 1)), np.ones((2, 1)))
        # The state is zero at the unusable pair, so the layout rule prunes
        # its columns: pair (0, 1) carries no variable at all.
        view = stacked.blocks
        assert view.active_indices.tolist() == [0, 2, 3]
        row = view.demand_rows(0).start + 1  # (t=0, v=1)
        dense = stacked.A[row].toarray().ravel()
        assert np.count_nonzero(dense) == 1
        assert dense[_x_column(view, 0, 1, 1)] == pytest.approx(10.0)

    def test_capacity_rows_scaled_by_server_size(self, instance):
        import dataclasses

        sized = dataclasses.replace(instance, server_size=2.0)
        stacked = build_stacked_qp(sized, np.ones((2, 2)), np.ones((2, 2)))
        view = stacked.blocks
        row = view.capacity_rows(0).start
        dense = stacked.A[row].toarray().ravel()
        assert dense[_x_column(view, 0, 0, 0)] == 2.0
        assert dense[_x_column(view, 0, 0, 1)] == 2.0
        assert stacked.u[row] == 40.0

    def test_elastic_adds_slack_structure(self, instance):
        stacked = build_stacked_qp(
            instance, np.ones((2, 2)), np.ones((2, 2)), demand_slack_penalty=9.0
        )
        view = stacked.blocks
        assert view.elastic
        slack_index = view.slack_slice(0).start
        assert stacked.q[slack_index] == 9.0
        row = view.demand_rows(0).start
        assert stacked.A[row].toarray().ravel()[slack_index] == 1.0

    def test_rejects_bad_penalty(self, instance):
        with pytest.raises(ValueError, match="penalty"):
            build_stacked_qp(
                instance, np.ones((2, 2)), np.ones((2, 2)), demand_slack_penalty=0.0
            )

    def test_rejects_shape_mismatches(self, instance):
        with pytest.raises(ValueError, match="demand"):
            build_stacked_qp(instance, np.ones((3, 2)), np.ones((2, 2)))
        with pytest.raises(ValueError, match="prices"):
            build_stacked_qp(instance, np.ones((2, 2)), np.ones((2, 3)))

    def test_rejects_negative_inputs(self, instance):
        with pytest.raises(ValueError):
            build_stacked_qp(instance, -np.ones((2, 2)), np.ones((2, 2)))
        with pytest.raises(ValueError):
            build_stacked_qp(instance, np.ones((2, 2)), -np.ones((2, 2)))

    def test_capacity_duals_extraction(self, instance):
        stacked = build_stacked_qp(instance, np.ones((2, 2)), np.ones((2, 2)))
        y = np.zeros(stacked.A.shape[0])
        rows = stacked.blocks.capacity_rows(0)
        y[rows.start] = 3.0
        y[rows.start + 1] = -1.0  # clipped
        duals = stacked.capacity_duals(y)
        assert duals.shape == (2, 2)
        assert duals[0, 0] == 3.0
        assert duals[0, 1] == 0.0
