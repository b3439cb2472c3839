"""Convex optimization machinery used throughout the reproduction.

The DSPP of Section IV-D is a linear-quadratic program.  The paper solves it
with "standard methods" [Boyd & Vandenberghe]; we provide those methods from
scratch:

* :mod:`repro.solvers.qp` — an operator-splitting (ADMM, OSQP-style) solver
  for convex QPs of the form ``min 1/2 x'Px + q'x  s.t.  l <= Ax <= u``.
* :mod:`repro.solvers.workspace` — the persistent ``setup/update/solve``
  workspace behind :func:`~repro.solvers.qp.solve_qp`: cached Ruiz scaling
  and KKT factorization for sequences of same-structure QPs (the MPC and
  best-response hot path).
* :mod:`repro.solvers.kkt` — KKT residuals, the strict optimality
  certificate and the active-set pieces the workspace's polish refines
  ADMM iterates with.
* :mod:`repro.solvers.projections` — the Euclidean projections ADMM relies on.
* :mod:`repro.solvers.dual` — the dual-decomposition quota coordinator used
  by Algorithm 2 (the best-response equilibrium computation).
"""

from repro.solvers.qp import QPProblem, QPSettings, QPSolution, QPStatus, solve_qp
from repro.solvers.workspace import QPWorkspace
from repro.solvers.kkt import kkt_residuals
from repro.solvers.projections import project_box, project_halfspace, project_nonnegative
from repro.solvers.dual import QuotaCoordinator, QuotaUpdate

__all__ = [
    "QPProblem",
    "QPSettings",
    "QPSolution",
    "QPStatus",
    "QPWorkspace",
    "solve_qp",
    "kkt_residuals",
    "project_box",
    "project_halfspace",
    "project_nonnegative",
    "QuotaCoordinator",
    "QuotaUpdate",
]
