"""Operator-splitting convex QP solver (OSQP-style ADMM).

Solves problems of the form::

    minimize    1/2 x' P x + q' x
    subject to  l <= A x <= u

where ``P`` is symmetric positive semidefinite.  Equality constraints are
expressed as rows with ``l == u``.  This is exactly the class the DSPP
linear-quadratic program of Section IV-D belongs to, so this module is the
single numerical engine behind :func:`repro.core.dspp.solve_dspp`, the MPC
controller and the best-response game dynamics.

The implementation follows Stellato et al., "OSQP: an operator splitting
solver for quadratic programs" (2020): a quasi-definite KKT system is
factorized once per value of the step-size vector ``rho`` and reused across
iterations; ``rho`` adapts to balance primal and dual residuals; an
active-set *polish* step refines the ADMM iterate to near machine precision.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.contracts import check_shapes

__all__ = [
    "MatrixLike",
    "VectorLike",
    "QPStatus",
    "QPProblem",
    "QPSolution",
    "QPSettings",
    "solve_qp",
]

# Inputs the solver normalizes itself: dense array-likes or scipy sparse.
MatrixLike = sp.spmatrix | np.ndarray | Sequence[Sequence[float]]
VectorLike = np.ndarray | Sequence[float]

# ADMM tuning (Stellato et al. 2020), fixed for every solve.  Termination
# tests a residual against ``_EPS_ABS + _EPS_REL * scale`` on the original
# problem every ``_CHECK_INTERVAL`` iterations; infeasibility certificates
# use ``_INFEASIBILITY_EPS``.  ``_RHO`` is the initial step size (equality
# rows get ``_EQUALITY_RHO_SCALE`` times it), adapted every
# ``_ADAPTIVE_RHO_INTERVAL`` iterations when the scaled residuals are out of
# balance by more than ``_ADAPTIVE_RHO_TOLERANCE``.  ``_SIGMA`` regularizes
# the KKT system, ``_ALPHA`` relaxes the iteration, and every set-up runs
# ``_SCALING_ITERATIONS`` Ruiz passes.  An early polish is attempted once
# the residuals are within ``_EARLY_POLISH_FACTOR`` of the tolerances.
_EPS_ABS = 1e-6
_EPS_REL = 1e-6
_RHO = 0.1
_SIGMA = 1e-6
_ALPHA = 1.6
_ADAPTIVE_RHO_INTERVAL = 50
_ADAPTIVE_RHO_TOLERANCE = 5.0
_CHECK_INTERVAL = 10
_INFEASIBILITY_EPS = 1e-9
_SCALING_ITERATIONS = 10
_EARLY_POLISH_FACTOR = 1e4
_EQUALITY_RHO_SCALE = 1e3
_RHO_MIN = 1e-6
_RHO_MAX = 1e6


class QPStatus(enum.Enum):
    """Termination status of :func:`solve_qp`."""

    OPTIMAL = "optimal"
    MAX_ITERATIONS = "max_iterations"
    PRIMAL_INFEASIBLE = "primal_infeasible"
    DUAL_INFEASIBLE = "dual_infeasible"


@dataclass(frozen=True)
class QPProblem:
    """Immutable description of a box-constrained convex QP.

    Attributes:
        P: quadratic cost matrix, shape ``(n, n)``; only its symmetric part
            is used, and it must be positive semidefinite.
        q: linear cost vector, shape ``(n,)``.
        A: constraint matrix, shape ``(m, n)``.
        l: lower constraint bounds, shape ``(m,)`` (``-inf`` allowed).
        u: upper constraint bounds, shape ``(m,)`` (``+inf`` allowed).
    """

    P: sp.csc_matrix
    q: np.ndarray
    A: sp.csc_matrix
    l: np.ndarray
    u: np.ndarray

    @staticmethod
    @check_shapes("M:(rows,cols)")
    def build_matrix(M: MatrixLike) -> sp.csc_matrix:
        """Normalize a dense/sparse matrix input to float CSC."""
        return sp.csc_matrix(M, dtype=float)

    @staticmethod
    def build(  # shapeflow: disable=SF004 — validates shapes itself with richer errors
        P: MatrixLike,
        q: VectorLike,
        A: MatrixLike,
        l: VectorLike,
        u: VectorLike,
    ) -> "QPProblem":
        """Validate and normalize raw inputs into a :class:`QPProblem`.

        Accepts dense arrays or sparse matrices; symmetrizes ``P``.

        Raises:
            ValueError: on inconsistent shapes or ``l > u``.
        """
        P = sp.csc_matrix(P, dtype=float)
        A = sp.csc_matrix(A, dtype=float)
        q = np.asarray(q, dtype=float).ravel()
        l = np.asarray(l, dtype=float).ravel()
        u = np.asarray(u, dtype=float).ravel()
        n = q.size
        m = A.shape[0]
        if P.shape != (n, n):
            raise ValueError(f"P must be {n}x{n}, got {P.shape}")
        if A.shape[1] != n:
            raise ValueError(f"A must have {n} columns, got {A.shape[1]}")
        if l.shape != (m,) or u.shape != (m,):
            raise ValueError("l and u must match the row count of A")
        if np.any(l > u):
            raise ValueError("infeasible bounds: some l[i] > u[i]")
        return QPProblem(P=_symmetrize(P), q=q, A=A, l=l, u=u)

    @staticmethod
    @check_shapes("P:(n,n)", "A:(m,n)")
    def build_matrices(
        P: MatrixLike, A: MatrixLike
    ) -> tuple[sp.csc_matrix, sp.csc_matrix]:
        """The ``(P, A)`` pair :meth:`build` stores for valid inputs."""
        return (
            _symmetrize(sp.csc_matrix(P, dtype=float)),
            sp.csc_matrix(A, dtype=float),
        )

    @property
    def num_variables(self) -> int:
        return self.q.size

    @property
    def num_constraints(self) -> int:
        return self.A.shape[0]

    @check_shapes("x:(n,)")
    def objective(self, x: np.ndarray) -> float:
        """Evaluate ``1/2 x'Px + q'x`` at ``x``."""
        return float(0.5 * x @ (self.P @ x) + self.q @ x)


@dataclass
class QPSolution:
    """Result of :func:`solve_qp`.

    Attributes:
        x: primal solution, shape ``(n,)``.
        y: dual solution for the coupled constraint ``l <= Ax <= u``,
            shape ``(m,)``.  Sign convention: ``y[i] > 0`` when the upper
            bound is active, ``y[i] < 0`` when the lower bound is active.
        objective: primal objective value at ``x``.
        status: termination status.
        iterations: number of ADMM iterations performed.
        primal_residual: final ``||Ax - z||_inf``.
        dual_residual: final ``||Px + q + A'y||_inf``.
        polished: whether ``(x, y)`` is a certified active-set KKT point:
            the polish passed :func:`repro.solvers.kkt.certify_kkt_point`
            on the original problem.  ``False`` means ``x``/``y`` are the
            ADMM iterates, at the ADMM tolerances.
    """

    x: np.ndarray
    y: np.ndarray
    objective: float
    status: QPStatus
    iterations: int
    primal_residual: float
    dual_residual: float
    polished: bool = False

    @property
    def is_optimal(self) -> bool:
        return self.status is QPStatus.OPTIMAL


@dataclass(frozen=True)
class QPSettings:
    """The solver options callers vary.

    The ADMM tuning itself (tolerances, step sizes, relaxation, check and
    adaptation intervals, equilibration passes) is fixed by the constants
    at the top of this module; the values are good for the (well-scaled) DSPP
    instances produced by :mod:`repro.core.matrices`, and tests exercise
    much harsher random QPs with them.

    ``max_iterations`` caps the ADMM iterations of one pass.

    ``early_polish`` trades ADMM tail iterations for KKT solves: once the
    residuals reach ``_EARLY_POLISH_FACTOR`` times the target tolerances,
    the active-set polish is attempted and its result *verified* against
    the strict tolerances on the original problem — accepted only if it
    passes, otherwise the iteration continues unchanged.  Accuracy is
    therefore never reduced; only the route to it changes.  On by default,
    for a raw :func:`solve_qp` as for every workspace.  A workspace with it
    on also caches the certified active-set system, which the next solve
    re-solves against the new data before running any ADMM.  Turning it
    off keeps only the crossover after a converged ADMM pass.

    Neither the KKT backend nor the stacked layout is a setting: a
    workspace handed the per-period block structure picks the backend by
    :func:`~repro.solvers.banded.use_banded_backend` (see
    :meth:`repro.solvers.workspace.QPWorkspace.setup`), and the DSPP layer
    picks the layout by :func:`repro.core.matrices.prunes_unusable_pairs`.
    """

    max_iterations: int = 20000
    early_polish: bool = True


@dataclass(frozen=True)
class _Scaling:
    """Ruiz-equilibration scaling of a QP.

    The scaled problem is ``min 1/2 x~' (c D P D) x~ + (c D q)' x~`` subject
    to ``E l <= (E A D) x~ <= E u``; a scaled iterate maps back as
    ``x = D x~``, ``y = E y~ / c``, ``z = z~ / E`` (D, E diagonal).
    """

    d: np.ndarray
    e: np.ndarray
    cost: float

    def __post_init__(self) -> None:
        # Equilibration clamps every scaling away from zero; the unscale
        # maps divide by them, so enforce the invariant at construction.
        assert np.all(self.d > 0.0) and np.all(self.e > 0.0) and self.cost > 0.0

    def unscale_x(self, x_scaled: np.ndarray) -> np.ndarray:
        return self.d * x_scaled

    def unscale_y(self, y_scaled: np.ndarray) -> np.ndarray:
        return self.e * y_scaled / self.cost

    def unscale_z(self, z_scaled: np.ndarray) -> np.ndarray:
        return z_scaled / self.e

    def scale_x(self, x: np.ndarray) -> np.ndarray:
        return x / self.d

    def scale_y(self, y: np.ndarray) -> np.ndarray:
        return self.cost * y / self.e

    def apply(self, problem: QPProblem) -> QPProblem:
        """The scaled problem ``(c D P D, c D q, E A D, E l, E u)``.

        Equilibration builds its result through this method, so applying a
        stored scaling to the original problem reproduces the scaled
        problem bit for bit.
        """
        d, e, cost = self.d, self.e, self.cost
        p_csc = problem.P.tocsc()
        p_cols = np.repeat(np.arange(p_csc.shape[1]), np.diff(p_csc.indptr))
        p_scaled = p_csc.copy()
        p_scaled.data = cost * (d[p_csc.indices] * p_csc.data * d[p_cols])
        a_csc = problem.A.tocsc()
        a_cols = np.repeat(np.arange(a_csc.shape[1]), np.diff(a_csc.indptr))
        a_scaled = a_csc.copy()
        a_scaled.data = e[a_csc.indices] * a_csc.data * d[a_cols]
        return QPProblem(
            P=p_scaled,
            q=cost * (d * problem.q),
            A=a_scaled,
            l=e * problem.l,
            u=e * problem.u,
        )


def _symmetrize(P: sp.csc_matrix) -> sp.csc_matrix:
    """The symmetric part of a square CSC matrix."""
    return ((P + P.T) * 0.5).tocsc()


def _segment_max(data: np.ndarray, indptr: np.ndarray, size: int) -> np.ndarray:
    """Per-segment max of nonnegative ``data`` grouped by ``indptr``.

    ``data[indptr[i]:indptr[i+1]]`` is segment ``i``; empty segments yield
    an exact 0.0 (the infinity norm of an empty row/column).  This is the
    reduceat kernel behind the allocation-free Ruiz iteration.
    """
    out = np.zeros(size)
    if data.size:
        nonempty = indptr[:-1] < indptr[1:]
        # reduceat over the *nonempty* starts only: empty segments hold no
        # data, so consecutive nonempty starts still bracket exactly one
        # segment's entries each.
        out[np.nonzero(nonempty)[0]] = np.maximum.reduceat(
            data, indptr[:-1][nonempty]
        )
    return out


def _ruiz_equilibrate(problem: QPProblem) -> tuple[QPProblem, _Scaling]:
    """Modified Ruiz equilibration (the OSQP preconditioner).

    Iteratively scales variables and constraints toward unit infinity-norm
    rows/columns of the KKT matrix, then normalizes the cost.  Returns the
    scaled problem and the scaling needed to map solutions back.

    The iteration never materializes intermediate scaled matrices: a scaled
    entry is ``cost * e_r * |a| * d_c`` (resp. ``cost * d_r * |p| * d_c``),
    so each round computes row/column infinity norms straight from the
    original data arrays with the accumulated scalings gathered in — one
    ``reduceat`` pass per norm family instead of three sparse
    matrix-matrix products.  The scaled ``P``/``A`` are built exactly once,
    at the end.  Rows or columns with *zero* norm (possible once column
    pruning leaves a data center with no usable pairs) keep a unit
    scaling instead of the ``1/sqrt(clip)`` blow-up.
    """
    n, m = problem.num_variables, problem.num_constraints
    d = np.ones(n)
    e = np.ones(m)
    cost = 1.0

    p_csc = problem.P.tocsc()
    p_abs = np.abs(p_csc.data)
    p_rows = p_csc.indices
    p_indptr = p_csc.indptr
    a_csc = problem.A.tocsc()
    a_abs = np.abs(a_csc.data)
    a_rows = a_csc.indices
    a_indptr = a_csc.indptr
    a_csr = problem.A.tocsr()
    ar_abs = np.abs(a_csr.data)
    ar_cols = a_csr.indices
    ar_indptr = a_csr.indptr

    q0 = problem.q
    for _ in range(_SCALING_ITERATIONS):
        # Infinity norms of the currently-scaled KKT columns, computed from
        # the original data: scaled P column c is cost*d_c*max_r(d_r*|p|),
        # scaled A column c is d_c*max_r(e_r*|a|).
        col_p = (cost * d) * _segment_max(p_abs * d[p_rows], p_indptr, n)
        col_a = d * _segment_max(a_abs * e[a_rows], a_indptr, n)
        col_norm = np.maximum(col_p, col_a)
        delta_d = np.where(
            col_norm > 0.0, 1.0 / np.sqrt(np.clip(col_norm, 1e-8, 1e8)), 1.0
        )
        # Row norms are taken from the same start-of-iteration state as the
        # column norms (both deltas then apply together, OSQP-style), so
        # the gather below uses the *pre-update* d.
        if m:
            row_norm = e * _segment_max(ar_abs * d[ar_cols], ar_indptr, m)
            delta_e = np.where(
                row_norm > 0.0, 1.0 / np.sqrt(np.clip(row_norm, 1e-8, 1e8)), 1.0
            )
            e *= delta_e
        d *= delta_d

        # Cost normalization keeps the objective's scale near 1.
        p_col_norms = (cost * d) * _segment_max(p_abs * d[p_rows], p_indptr, n)
        q_norm = cost * _inf_norm(d * q0)
        gamma = 1.0 / max(float(p_col_norms.mean()) if n else 1.0, q_norm, 1e-8)
        gamma = min(max(gamma, 1e-8), 1e8)
        cost *= gamma

    scaling = _Scaling(d=d, e=e, cost=cost)
    return scaling.apply(problem), scaling


def _rho_vector(problem: QPProblem) -> np.ndarray:
    """Initial per-constraint step sizes: equality rows get a stiffer rho."""
    rho_vec = np.full(problem.num_constraints, _RHO, dtype=float)
    equality = problem.l == problem.u
    rho_vec[equality] *= _EQUALITY_RHO_SCALE
    return np.clip(rho_vec, _RHO_MIN, _RHO_MAX)


def _factorize(problem: QPProblem, rho_vec: np.ndarray) -> spla.SuperLU:
    """Factorize the quasi-definite KKT matrix for the current rho vector."""
    assert np.all(rho_vec > 0.0)  # clipped to [_RHO_MIN, _RHO_MAX] upstream
    n = problem.num_variables
    m = problem.num_constraints
    upper_left = problem.P + _SIGMA * sp.identity(n, format="csc")
    if m == 0:
        return spla.splu(upper_left.tocsc())
    lower_right = sp.diags(-1.0 / rho_vec, format="csc")
    kkt = sp.bmat([[upper_left, problem.A.T], [problem.A, lower_right]], format="csc")
    return spla.splu(kkt)


def _residuals(
    problem: QPProblem, a_t: sp.csr_matrix, x: np.ndarray, z: np.ndarray, y: np.ndarray
) -> tuple[float, float, float, float, np.ndarray]:
    """Return (r_prim, r_dual, prim_scale, dual_scale, Ax) for termination tests.

    ``a_t`` is ``problem.A.T``, cached by the caller per structure.
    """
    ax = problem.A @ x
    px = problem.P @ x
    aty = a_t @ y
    r_prim = float(np.max(np.abs(ax - z))) if z.size else 0.0
    r_dual = float(np.max(np.abs(px + problem.q + aty)))
    prim_scale = max(_inf_norm(ax), _inf_norm(z), 1e-12)
    dual_scale = max(_inf_norm(px), _inf_norm(problem.q), _inf_norm(aty), 1e-12)
    return r_prim, r_dual, prim_scale, dual_scale, ax


def _inf_norm(v: np.ndarray) -> float:
    return float(np.max(np.abs(v))) if v.size else 0.0


def _check_primal_infeasible(
    problem: QPProblem, a_t: sp.csr_matrix, dy: np.ndarray, eps: float
) -> bool:
    """Certificate test: dy with A'dy ~ 0 and support-function value < 0.

    ``a_t`` is ``problem.A.T``, cached by the caller per structure.
    """
    norm_dy = _inf_norm(dy)
    if norm_dy <= eps:
        return False
    dy = dy / norm_dy
    if _inf_norm(a_t @ dy) > eps * 1e3:
        return False
    dy_pos = np.maximum(dy, 0.0)
    dy_neg = np.minimum(dy, 0.0)
    # A positive dy component against an open upper bound (or negative
    # against an open lower bound) makes the support function +inf, which
    # can never certify infeasibility.
    if np.any((dy_pos > 0) & ~np.isfinite(problem.u)):
        return False
    if np.any((dy_neg < 0) & ~np.isfinite(problem.l)):
        return False
    u_finite = np.where(np.isfinite(problem.u), problem.u, 0.0)
    l_finite = np.where(np.isfinite(problem.l), problem.l, 0.0)
    support = float(np.sum(u_finite * dy_pos) + np.sum(l_finite * dy_neg))
    return support < -eps * 1e3


def _check_dual_infeasible(problem: QPProblem, dx: np.ndarray, eps: float) -> bool:
    """Certificate test: descent ray dx with P dx ~ 0, q'dx < 0, A dx in recession cone."""
    norm_dx = _inf_norm(dx)
    if norm_dx <= eps:
        return False
    dx = dx / norm_dx
    if _inf_norm(problem.P @ dx) > eps * 1e3:
        return False
    if float(problem.q @ dx) >= -eps * 1e3:
        return False
    adx = problem.A @ dx
    upper_ok = np.all((adx <= eps * 1e3) | ~np.isfinite(problem.u))
    lower_ok = np.all((adx >= -eps * 1e3) | ~np.isfinite(problem.l))
    return bool(upper_ok and lower_ok)


@check_shapes("P:(n,n)", "q:(n,)", "A:(m,n)", "l:(m,)", "u:(m,)")
def solve_qp(
    P: MatrixLike,
    q: VectorLike,
    A: MatrixLike,
    l: VectorLike,
    u: VectorLike,
    settings: QPSettings | None = None,
) -> QPSolution:
    """Solve ``min 1/2 x'Px + q'x  s.t.  l <= Ax <= u``.

    Args:
        P: symmetric PSD cost matrix (dense or sparse), shape ``(n, n)``.
        q: linear cost, shape ``(n,)``.
        A: constraint matrix, shape ``(m, n)``.
        l: lower bounds (``-inf`` allowed), shape ``(m,)``.
        u: upper bounds (``+inf`` allowed), shape ``(m,)``.
        settings: solver settings; defaults are sensible for DSPP instances.

    Returns:
        A :class:`QPSolution`.  ``status`` distinguishes optimality from
        iteration exhaustion and from primal/dual infeasibility certificates.

    Raises:
        ValueError: on malformed inputs (see :meth:`QPProblem.build`).
    """
    from repro.solvers.workspace import QPWorkspace

    workspace = QPWorkspace(settings)
    workspace.setup(P, A, q=q, l=l, u=u)
    return workspace.solve()
