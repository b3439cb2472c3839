"""Tests for repro.solvers.kkt (residuals)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.solvers.kkt import KKTResiduals, kkt_residuals
from repro.solvers.qp import QPProblem


def _box_problem():
    # min (x0-2)^2 + (x1-2)^2 s.t. 0 <= x <= 1 (both upper bounds active).
    return QPProblem.build(
        2.0 * np.eye(2), np.array([-4.0, -4.0]), np.eye(2), np.zeros(2), np.ones(2)
    )


class TestResiduals:
    def test_exact_optimum_has_tiny_residuals(self):
        problem = _box_problem()
        x = np.ones(2)
        y = np.array([2.0, 2.0])  # 2x - 4 + y = 0 at x=1
        res = kkt_residuals(problem, x, y)
        assert res.worst < 1e-12

    def test_primal_violation_measured(self):
        problem = _box_problem()
        res = kkt_residuals(problem, np.array([1.5, 0.5]), np.zeros(2))
        assert res.primal == pytest.approx(0.5)

    def test_complementarity_violation_measured(self):
        problem = _box_problem()
        # Positive multiplier on a slack (not active) constraint.
        res = kkt_residuals(problem, np.array([0.5, 0.5]), np.array([2.0, 0.0]))
        assert res.complementarity == pytest.approx(1.0)  # y * (u - ax) = 2 * 0.5

    def test_worst_is_max(self):
        res = KKTResiduals(primal=0.1, dual=0.3, complementarity=0.2)
        assert res.worst == pytest.approx(0.3)
