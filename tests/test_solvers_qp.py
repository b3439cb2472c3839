"""Tests for the ADMM QP solver (repro.solvers.qp)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize

from repro.solvers.qp import (
    QPProblem,
    QPSettings,
    QPStatus,
    solve_qp,
)


def _reference_solve(P, q, A, l, u, x0=None):
    """Solve with scipy SLSQP for cross-checking."""
    n = q.size
    constraints = []
    finite_u = np.isfinite(u)
    finite_l = np.isfinite(l)
    if finite_u.any():
        constraints.append(
            {"type": "ineq", "fun": lambda x: (u - A @ x)[finite_u]}
        )
    if finite_l.any():
        constraints.append(
            {"type": "ineq", "fun": lambda x: (A @ x - l)[finite_l]}
        )
    start = x0 if x0 is not None else np.zeros(n)
    result = minimize(
        lambda x: 0.5 * x @ P @ x + q @ x,
        start,
        jac=lambda x: P @ x + q,
        constraints=constraints,
        method="SLSQP",
        options={"maxiter": 500, "ftol": 1e-12},
    )
    return result


class TestQPProblem:
    def test_build_symmetrizes_p(self):
        P = np.array([[2.0, 1.0], [0.0, 2.0]])
        problem = QPProblem.build(P, np.zeros(2), np.eye(2), np.zeros(2), np.ones(2))
        dense = problem.P.toarray()
        assert np.allclose(dense, dense.T)
        assert dense[0, 1] == pytest.approx(0.5)

    def test_build_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="columns"):
            QPProblem.build(np.eye(2), np.zeros(2), np.ones((1, 3)), [0.0], [1.0])

    def test_build_rejects_p_shape(self):
        with pytest.raises(ValueError, match="P must be"):
            QPProblem.build(np.eye(3), np.zeros(2), np.eye(2), np.zeros(2), np.ones(2))

    def test_build_rejects_crossed_bounds(self):
        with pytest.raises(ValueError, match="infeasible bounds"):
            QPProblem.build(np.eye(1), np.zeros(1), np.eye(1), [2.0], [1.0])

    def test_build_rejects_bound_length(self):
        with pytest.raises(ValueError, match="row count"):
            QPProblem.build(np.eye(2), np.zeros(2), np.eye(2), [0.0], [1.0, 1.0])

    def test_objective_value(self):
        problem = QPProblem.build(
            2.0 * np.eye(2), np.array([1.0, -1.0]), np.eye(2), np.zeros(2), np.ones(2)
        )
        x = np.array([1.0, 2.0])
        assert problem.objective(x) == pytest.approx(0.5 * 2 * (1 + 4) + 1 - 2)


class TestQPSettings:
    def test_only_the_caller_values_are_settable(self):
        assert [f.name for f in dataclasses.fields(QPSettings)] == [
            "max_iterations",
            "early_polish",
        ]


class TestUnconstrained:
    def test_no_constraints_solves_normal_equations(self):
        P = np.diag([2.0, 4.0])
        q = np.array([-2.0, -8.0])
        solution = solve_qp(P, q, np.zeros((0, 2)), np.zeros(0), np.zeros(0))
        assert solution.is_optimal
        assert solution.x == pytest.approx([1.0, 2.0], abs=1e-5)

    def test_ill_conditioned_minimizer_is_refined(self):
        # One regularized solve of (P + sigma I) x = -q misses stationarity
        # by more than the tolerance (cond(P) = 199); the ADMM iteration,
        # which an unconstrained QP runs like any other, closes the gap.
        P = np.array([[1.0, 0.99], [0.99, 1.0]])
        q = np.array([-1.0, 1.0])
        solution = solve_qp(P, q, np.zeros((0, 2)), np.zeros(0), np.zeros(0))
        assert solution.is_optimal
        assert solution.iterations > 1
        assert solution.x == pytest.approx([100.0, -100.0], rel=1e-6)
        assert solution.dual_residual <= 1e-6 + 1e-6 * 1.0

    @pytest.mark.parametrize(
        "p_diag, q",
        [
            ([0.0, 0.0], [1.0, 1.0]),  # linear objective
            ([2.0, 0.0], [-2.0, 1.0]),  # bounded in x0, linear in x1
        ],
    )
    def test_unbounded_is_dual_infeasible(self, p_diag, q):
        # q outside the range of P: the objective has no minimum.
        solution = solve_qp(
            np.diag(p_diag), q, np.zeros((0, 2)), np.zeros(0), np.zeros(0)
        )
        assert solution.status is QPStatus.DUAL_INFEASIBLE
        assert np.isnan(solution.objective)


class TestSmallProblems:
    def test_simplex_constrained(self):
        P = np.diag([2.0, 4.0, 6.0])
        q = np.array([-1.0, -2.0, 3.0])
        A = np.vstack([np.eye(3), np.ones((1, 3))])
        l = np.array([0.0, 0.0, 0.0, 1.0])
        u = np.array([np.inf, np.inf, np.inf, 1.0])
        solution = solve_qp(P, q, A, l, u)
        assert solution.is_optimal
        assert solution.objective == pytest.approx(-0.75, abs=1e-6)
        assert solution.x.sum() == pytest.approx(1.0, abs=1e-6)
        assert np.all(solution.x >= -1e-8)

    def test_equality_constraint(self):
        P = np.eye(2)
        q = np.zeros(2)
        A = np.array([[1.0, 1.0]])
        solution = solve_qp(P, q, A, [4.0], [4.0])
        assert solution.is_optimal
        assert solution.x == pytest.approx([2.0, 2.0], abs=1e-5)

    def test_active_box_bound(self):
        # min (x-3)^2 with x <= 1 -> x = 1, dual positive.
        P = np.array([[2.0]])
        q = np.array([-6.0])
        solution = solve_qp(P, q, np.eye(1), [-np.inf], [1.0])
        assert solution.is_optimal
        assert solution.x[0] == pytest.approx(1.0, abs=1e-6)
        assert solution.y[0] > 1.0  # gradient balance: 2*1 - 6 + y = 0 -> y = 4

    def test_dual_sign_convention_lower(self):
        # min (x-0)^2 with x >= 1 -> lower bound active, y negative.
        P = np.array([[2.0]])
        q = np.array([0.0])
        solution = solve_qp(P, q, np.eye(1), [1.0], [np.inf])
        assert solution.is_optimal
        assert solution.x[0] == pytest.approx(1.0, abs=1e-6)
        assert solution.y[0] < 0

    def test_sparse_inputs_accepted(self):
        P = sp.csc_matrix(np.eye(3))
        A = sp.csc_matrix(np.eye(3))
        solution = solve_qp(P, -np.ones(3), A, np.zeros(3), np.full(3, 0.5))
        assert solution.is_optimal
        assert solution.x == pytest.approx([0.5, 0.5, 0.5], abs=1e-6)


class TestAgainstScipy:
    @pytest.mark.parametrize("trial", range(10))
    def test_random_inequality_qp(self, trial):
        rng = np.random.default_rng(trial)
        n, m = 6, 10
        M = rng.normal(size=(n, n))
        P = M @ M.T + 0.5 * np.eye(n)
        q = rng.normal(size=n)
        A = rng.normal(size=(m, n))
        x0 = rng.normal(size=n)
        mid = A @ x0
        l = mid - rng.uniform(0.1, 1.0, m)
        u = mid + rng.uniform(0.1, 1.0, m)
        ours = solve_qp(P, q, A, l, u)
        reference = _reference_solve(P, q, A, l, u, x0)
        assert ours.is_optimal
        assert ours.objective == pytest.approx(reference.fun, abs=1e-4, rel=1e-4)

    @pytest.mark.parametrize("trial", range(5))
    def test_random_mixed_equality_qp(self, trial):
        rng = np.random.default_rng(100 + trial)
        n = 5
        M = rng.normal(size=(n, n))
        P = M @ M.T + np.eye(n)
        q = rng.normal(size=n)
        a_eq = rng.normal(size=(1, n))
        x0 = rng.normal(size=n)
        b = float((a_eq @ x0)[0])
        A = np.vstack([a_eq, np.eye(n)])
        l = np.concatenate([[b], x0 - 2.0])
        u = np.concatenate([[b], x0 + 2.0])
        ours = solve_qp(P, q, A, l, u)
        assert ours.is_optimal
        assert float((a_eq @ ours.x)[0]) == pytest.approx(b, abs=1e-5)


class TestScaling:
    def test_badly_scaled_problem_converges(self):
        # Mixed magnitudes that stall unscaled ADMM.
        rng = np.random.default_rng(7)
        n = 8
        scales = 10.0 ** rng.uniform(-3, 3, size=n)
        P = np.diag(scales)
        q = -scales * rng.uniform(0.5, 2.0, size=n)
        A = np.eye(n) * 10.0 ** rng.uniform(-2, 2, size=n)[:, None]
        l = np.zeros(n)
        u = np.full(n, 1e4)
        solution = solve_qp(P, q, A, l, u)
        assert solution.is_optimal


class TestInfeasibility:
    def test_primal_infeasible_detected(self):
        # x <= 1 and x >= 2 simultaneously.
        A = np.array([[1.0], [1.0]])
        solution = solve_qp(np.eye(1), np.zeros(1), A, [-np.inf, 2.0], [1.0, np.inf])
        assert solution.status is QPStatus.PRIMAL_INFEASIBLE

    def test_dual_infeasible_detected(self):
        # Unbounded below: min -x with x >= 0 only.
        solution = solve_qp(
            np.zeros((1, 1)), np.array([-1.0]), np.eye(1), [0.0], [np.inf]
        )
        assert solution.status is QPStatus.DUAL_INFEASIBLE

    def test_infeasible_objective_is_nan(self):
        A = np.array([[1.0], [1.0]])
        solution = solve_qp(np.eye(1), np.zeros(1), A, [-np.inf, 2.0], [1.0, np.inf])
        assert np.isnan(solution.objective)


class TestPolish:
    def test_polish_tightens_residuals(self):
        P = np.diag([2.0, 4.0, 6.0])
        q = np.array([-1.0, -2.0, 3.0])
        A = np.vstack([np.eye(3), np.ones((1, 3))])
        l = np.array([0.0, 0.0, 0.0, 1.0])
        u = np.array([np.inf, np.inf, np.inf, 1.0])
        polished = solve_qp(P, q, A, l, u)
        # Fewer iterations than one residual check: an unpolished ADMM point.
        rough = solve_qp(P, q, A, l, u, settings=QPSettings(max_iterations=5))
        assert polished.is_optimal and polished.polished
        assert rough.status is QPStatus.MAX_ITERATIONS and not rough.polished
        assert polished.primal_residual <= rough.primal_residual + 1e-12
        assert polished.dual_residual <= rough.dual_residual + 1e-9


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 6),
)
def test_solution_satisfies_kkt_on_random_box_qps(seed, n):
    """Property: every returned optimum satisfies bounds and stationarity."""
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(n, n))
    P = M @ M.T + 0.5 * np.eye(n)
    q = rng.normal(size=n)
    A = np.eye(n)
    l = rng.uniform(-2.0, 0.0, n)
    u = l + rng.uniform(0.5, 3.0, n)
    solution = solve_qp(P, q, A, l, u)
    assert solution.is_optimal
    assert np.all(solution.x >= l - 1e-5)
    assert np.all(solution.x <= u + 1e-5)
    stationarity = P @ solution.x + q + A.T @ solution.y
    assert np.max(np.abs(stationarity)) < 1e-4
