"""Edge-case tests for the QP solver: iteration caps, LP degeneracy
and termination bookkeeping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.solvers.qp import QPSettings, QPStatus, solve_qp


def _hard_qp(seed=0, n=12, m=20):
    """A correlated, ill-conditioned QP that needs real iterations."""
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-2, 2, size=n)
    P = M @ M.T + 1e-4 * np.eye(n)
    q = rng.normal(size=n) * 10.0
    A = rng.normal(size=(m, n))
    x0 = rng.normal(size=n)
    l = A @ x0 - rng.uniform(0.01, 0.5, m)
    u = A @ x0 + rng.uniform(0.01, 0.5, m)
    return P, q, A, l, u


class TestIterationCap:
    def test_max_iterations_status(self):
        P, q, A, l, u = _hard_qp()
        result = solve_qp(P, q, A, l, u, settings=QPSettings(max_iterations=20))
        assert result.status is QPStatus.MAX_ITERATIONS
        # Residuals are reported, not inf (it is a usable approximate point).
        assert np.isfinite(result.primal_residual)
        assert np.isfinite(result.dual_residual)

    def test_more_iterations_reach_optimal(self):
        P, q, A, l, u = _hard_qp()
        result = solve_qp(P, q, A, l, u, settings=QPSettings(max_iterations=20000))
        assert result.is_optimal


class TestLPDegeneracy:
    def test_pure_lp_with_zero_p(self):
        # min c'x over a box is an LP; the ADMM path must still solve it.
        n = 5
        P = np.zeros((n, n))
        q = np.arange(1.0, n + 1.0)
        A = np.eye(n)
        result = solve_qp(P, q, A, np.full(n, -2.0), np.full(n, 3.0))
        assert result.is_optimal
        assert result.x == pytest.approx(np.full(n, -2.0), abs=1e-5)

    def test_lp_with_coupling_row(self):
        # min x0 + 2 x1 s.t. x0 + x1 >= 1, x >= 0 -> (1, 0).
        P = np.zeros((2, 2))
        q = np.array([1.0, 2.0])
        A = np.vstack([np.ones((1, 2)), np.eye(2)])
        l = np.array([1.0, 0.0, 0.0])
        u = np.full(3, np.inf)
        result = solve_qp(P, q, A, l, u)
        assert result.is_optimal
        assert result.x == pytest.approx([1.0, 0.0], abs=1e-5)


class TestDualAccuracy:
    def test_duals_price_the_constraint(self):
        # min x^2 s.t. x >= b: optimal value b^2, dual dV/db = -y = 2b.
        for b in (0.5, 1.0, 2.0):
            result = solve_qp(
                2.0 * np.eye(1), np.zeros(1), np.eye(1), [b], [np.inf]
            )
            assert result.is_optimal
            assert -result.y[0] == pytest.approx(2.0 * b, rel=1e-4)

    def test_equality_dual_matches_lagrangian(self):
        # min 1/2||x||^2 s.t. 1'x = b: x = b/n, y solves x + y*1 = 0.
        n, b = 4, 2.0
        result = solve_qp(
            np.eye(n), np.zeros(n), np.ones((1, n)), [b], [b]
        )
        assert result.is_optimal
        assert result.x == pytest.approx(np.full(n, b / n), abs=1e-5)
        assert result.y[0] == pytest.approx(-b / n, abs=1e-4)


class TestSolutionObject:
    def test_is_optimal_flag(self):
        result = solve_qp(np.eye(1), np.zeros(1), np.eye(1), [0.0], [1.0])
        assert result.is_optimal
        assert result.status is QPStatus.OPTIMAL

    def test_redundant_constraints_tolerated(self):
        # The same row twice (degenerate duals) must not break anything.
        A = np.vstack([np.ones((1, 2)), np.ones((1, 2)), np.eye(2)])
        l = np.array([1.0, 1.0, 0.0, 0.0])
        u = np.full(4, np.inf)
        result = solve_qp(np.eye(2), np.zeros(2), A, l, u)
        assert result.is_optimal
        assert result.x.sum() == pytest.approx(1.0, abs=1e-5)

    def test_fixed_variable_via_equality_box(self):
        result = solve_qp(
            np.eye(2), np.array([5.0, -1.0]), np.eye(2), [2.0, -np.inf], [2.0, np.inf]
        )
        assert result.is_optimal
        assert result.x[0] == pytest.approx(2.0, abs=1e-6)
        assert result.x[1] == pytest.approx(1.0, abs=1e-5)
