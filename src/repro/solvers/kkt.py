"""KKT residual computation and active-set polishing for QP solutions.

The ADMM iteration in :mod:`repro.solvers.qp` converges linearly, which is
fine for control but leaves ~1e-6 residuals.  The *polish* built from
these pieces guesses the active set from an ADMM iterate
(:func:`guess_active_set`), solves the reduced equality-constrained QP
exactly (one regularized KKT solve) and corrects the set by primal-dual
active-set updates (:func:`update_active_set`) — the standard OSQP
post-processing, refined.  :func:`certify_kkt_point` is the
strict-tolerance certificate a trial KKT point must pass; the one loop that
runs them is ``QPWorkspace._crossover``.

The active-set solve and its refinement are two calls
(:func:`solve_active_set_system`, :func:`refine_active_set_solution`):
the crossover refines only a trial point that passes the certificate's
bound test (:func:`passes_bound_screen`), since a point that fails it
only proposes the next working set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import repro.sanitize as sanitize
from repro.contracts import check_shapes
from repro.solvers.qp import QPProblem, QPSolution, QPStatus, _inf_norm

__all__ = [
    "ActiveSetSystem",
    "KKTResiduals",
    "build_active_set_system",
    "certify_kkt_point",
    "guess_active_set",
    "kkt_residuals",
    "passes_bound_screen",
    "refine_active_set_solution",
    "solve_active_set_system",
    "update_active_set",
]

_ACTIVE_TOL = 1e-7
_POLISH_REGULARIZATION = 1e-9
# Largest absolute bound violation a certified point may have.  The
# relative bound test scales with ``max|Ax|`` over the whole vector, and
# DSPP demand rows reach a few hundred, so on its own it let a
# nonnegativity row (``Ax`` near 0) go negative by up to about 5e-4.  An
# exact active-set point meets its active bounds to rounding; a violation
# above this limit means a row is missing from the working set.
_MAX_BOUND_VIOLATION = 1e-9


@dataclass(frozen=True)
class KKTResiduals:
    """Infinity-norm KKT residuals of a primal/dual pair.

    Attributes:
        primal: constraint violation ``max(0, l - Ax, Ax - u)`` in inf-norm.
        dual: stationarity residual ``||Px + q + A'y||_inf``.
        complementarity: violation of complementary slackness.
    """

    primal: float
    dual: float
    complementarity: float

    @property
    def worst(self) -> float:
        return max(self.primal, self.dual, self.complementarity)


@check_shapes("x:(n,)", "y:(m,)")
def kkt_residuals(problem: QPProblem, x: np.ndarray, y: np.ndarray) -> KKTResiduals:
    """Compute KKT residuals of ``(x, y)`` for a :class:`~repro.solvers.qp.QPProblem`.

    The sign convention matches :class:`repro.solvers.qp.QPSolution`:
    positive ``y`` presses on the upper bound, negative on the lower.
    """
    ax = problem.A @ x
    primal = _primal_violation(problem, ax)
    dual = float(np.max(np.abs(problem.P @ x + problem.q + problem.A.T @ y), initial=0.0))

    y_pos = np.maximum(y, 0.0)
    y_neg = np.minimum(y, 0.0)
    slack_upper = np.where(np.isfinite(problem.u), problem.u - ax, 0.0)
    slack_lower = np.where(np.isfinite(problem.l), ax - problem.l, 0.0)
    comp = float(max(np.max(np.abs(y_pos * slack_upper), initial=0.0), np.max(np.abs(y_neg * slack_lower), initial=0.0)))
    return KKTResiduals(primal=primal, dual=dual, complementarity=comp)


def _primal_violation(problem: QPProblem, ax: np.ndarray) -> float:
    """Bound violation ``max(0, l - Ax, Ax - u)`` in inf-norm, given ``Ax``."""
    lower_violation = np.where(np.isfinite(problem.l), problem.l - ax, -np.inf)
    upper_violation = np.where(np.isfinite(problem.u), ax - problem.u, -np.inf)
    return float(max(0.0, lower_violation.max(initial=0.0), upper_violation.max(initial=0.0)))


def _bound_test(
    problem: QPProblem, ax: np.ndarray, eps_abs: float, eps_rel: float
) -> float | None:
    """The certificate's relative bound test: the violation if ``A x``
    passes it, else ``None``."""
    primal = _primal_violation(problem, ax)
    z_proj = np.clip(ax, problem.l, problem.u)
    prim_scale = max(_inf_norm(ax), _inf_norm(z_proj), 1e-12)
    if primal > eps_abs + eps_rel * prim_scale:
        return None
    return primal


@check_shapes("ax:(m,)")
def passes_bound_screen(
    problem: QPProblem, ax: np.ndarray, eps_abs: float, eps_rel: float
) -> bool:
    """Whether ``A x`` passes the bound test of :func:`certify_kkt_point`.

    The crossover runs it on an unrefined trial point: a point that fails
    it cannot certify, so it only proposes the next working set and never
    pays for refinement.  The screen uses the certificate's relative
    tolerance alone; the absolute limit stays in the certificate, which
    runs on the refined point.
    """
    return _bound_test(problem, ax, eps_abs, eps_rel) is not None


@check_shapes("a_t:(n,m)", "x:(n,)", "y:(m,)")
def certify_kkt_point(
    problem: QPProblem,
    a_t: sp.csr_matrix,
    x: np.ndarray,
    y: np.ndarray,
    eps_abs: float,
    eps_rel: float,
) -> tuple[np.ndarray, QPSolution | None]:
    """Strict-tolerance optimality certificate for a trial KKT point.

    A convex QP's exact KKT point is globally optimal, so a trial point
    ``(x, y)`` of an active-set solve whose *true* bound violation,
    stationarity residual and duality gap all sit below the strict
    thresholds is accepted as optimal.  All checks are on the original
    (unscaled) problem.  The bound violation must pass both the relative
    test (``eps_abs + eps_rel * max|Ax|``) and an absolute limit of 1e-9
    (``_MAX_BOUND_VIOLATION``): the relative scale is taken over the
    whole vector, so on its own it lets a row near zero break its bound
    by the tolerance times the largest row.

    The checks are staged so each operator product runs at most once.
    ``Ax`` comes first: a primal-dual active-set trial point usually fails
    on a violated bound, and then ``Px`` and ``A'y`` are never formed.
    Only a primal-feasible point pays for them, and the stationarity
    residual, the objective and the gap below all reuse them.

    The last check is the aggregate complementarity *sum*

        ``gap = sum_i slack_i * |y_i|``

    which — given (near-)exact stationarity, which the active-set solve
    delivers — equals the duality gap and therefore directly bounds the
    objective suboptimality.  A per-row max-norm check is not enough here: a
    wrong active-set guess can hide a few-times-``eps`` violation in each
    of thousands of rows, adding up to a visible objective error while
    every individual row looks converged.

    Args:
        problem: the original (unscaled) problem.
        a_t: ``problem.A.T``, which the caller caches per structure.
        x: trial primal point, shape ``(n,)``.
        y: trial multipliers, shape ``(m,)`` (QPSolution sign convention).
        eps_abs: absolute tolerance (the solver's ``_EPS_ABS``).
        eps_rel: relative tolerance (the solver's ``_EPS_REL``).

    Returns:
        ``(ax, solution)``: ``ax = A x``, for the next active-set update
        whatever the verdict, and the certified ``polished`` OPTIMAL
        :class:`~repro.solvers.qp.QPSolution` (``iterations=0``), or
        ``None`` if any check fails.
    """
    ax = np.asarray(problem.A @ x, dtype=float)
    primal = _bound_test(problem, ax, eps_abs, eps_rel)
    if primal is None or primal > _MAX_BOUND_VIOLATION:
        return ax, None

    px = np.asarray(problem.P @ x, dtype=float)
    aty = np.asarray(a_t @ y, dtype=float)
    dual = float(np.max(np.abs(px + problem.q + aty), initial=0.0))
    dual_scale = max(_inf_norm(px), _inf_norm(problem.q), _inf_norm(aty), 1e-12)
    if dual > eps_abs + eps_rel * dual_scale:
        return ax, None

    y_pos = np.maximum(y, 0.0)
    y_neg = np.minimum(y, 0.0)
    # A multiplier pressing against an infinite bound certifies nothing
    # (its slack term is unbounded); the active-set solve only assigns
    # duals to rows it treats as active, so this rejects broken guesses.
    if bool(np.any(y_pos[np.isinf(problem.u)] > eps_abs)) or bool(
        np.any(-y_neg[np.isinf(problem.l)] > eps_abs)
    ):
        return ax, None
    gap = 0.0
    upper_mask = np.isfinite(problem.u) & (y_pos > 0.0)
    if np.any(upper_mask):
        gap += float(
            np.sum(np.abs(problem.u[upper_mask] - ax[upper_mask]) * y_pos[upper_mask])
        )
    lower_mask = np.isfinite(problem.l) & (y_neg < 0.0)
    if np.any(lower_mask):
        gap += float(
            np.sum(np.abs(ax[lower_mask] - problem.l[lower_mask]) * (-y_neg[lower_mask]))
        )
    objective = float(0.5 * x @ px + problem.q @ x)
    if gap > eps_abs + eps_rel * abs(objective):
        return ax, None

    return ax, QPSolution(
        x=x,
        y=y,
        objective=objective,
        status=QPStatus.OPTIMAL,
        iterations=0,
        primal_residual=primal,
        dual_residual=dual,
        polished=True,
    )


@dataclass(frozen=True)
class ActiveSetSystem:
    """A factorized active-set KKT system, reusable across data changes.

    The factorization depends only on the problem *structure* (``P``,
    ``A``) and the active-set masks — not on ``q``/``l``/``u`` — so a
    receding-horizon workspace can cache it and re-solve against fresh
    vectors with two back-substitutions (see
    :func:`solve_active_set_system`).

    Attributes:
        active_lower: boolean mask of rows active at their lower bound.
        active_upper: boolean mask of rows active at their upper bound
            (equality rows are folded in here).
        lu: LU factorization of the regularized KKT matrix.
        a_active: the active rows of ``A``; iterative refinement multiplies
            by this (and ``P``) rather than materializing the unregularized
            KKT matrix, whose assembly would cost more than the solve.
        a_active_t: ``a_active.T``, formed once for the KKT assembly and
            reused by every refinement step.
    """

    active_lower: np.ndarray
    active_upper: np.ndarray
    lu: spla.SuperLU
    a_active: sp.csc_matrix
    a_active_t: sp.csr_matrix


@check_shapes("ax:(m,)", "y:(m,)", ret=("(m,)", "(m,)"))
def guess_active_set(
    problem: QPProblem, ax: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Guess the optimal active set from a primal/dual pair.

    A row counts as active when its multiplier presses on it or the
    constraint holds with (near-)equality.  Equality rows are resolved to
    the upper mask so each row carries a single multiplier.

    Args:
        problem: the problem the pair belongs to.
        ax: constraint values ``A x`` of the primal point, shape ``(m,)``.
        y: multipliers, shape ``(m,)``.

    Returns:
        ``(active_lower, active_upper)`` boolean masks of shape ``(m,)``.
    """
    active_lower = np.isfinite(problem.l) & (
        (y < -_ACTIVE_TOL) | (ax <= problem.l + _ACTIVE_TOL)
    )
    active_upper = np.isfinite(problem.u) & (
        (y > _ACTIVE_TOL) | (ax >= problem.u - _ACTIVE_TOL)
    )
    equality = problem.l == problem.u
    active_upper = active_upper | equality
    active_lower = active_lower & ~equality
    return active_lower, active_upper


@check_shapes("active_lower:(m,)", "active_upper:(m,)")
def build_active_set_system(
    problem: QPProblem, active_lower: np.ndarray, active_upper: np.ndarray
) -> ActiveSetSystem | None:
    """Assemble and factorize the regularized KKT system for an active set.

    Returns:
        The factorized :class:`ActiveSetSystem`, or ``None`` if the active
        set is empty or the factorization fails.
    """
    active = active_lower | active_upper
    if not np.any(active):
        return None
    a_active = problem.A[active]
    a_active_t = a_active.T
    n = problem.num_variables
    k = a_active.shape[0]
    reg = _POLISH_REGULARIZATION
    kkt = sp.bmat(
        [
            [problem.P + reg * sp.identity(n, format="csc"), a_active_t],
            [a_active, -reg * sp.identity(k, format="csc")],
        ],
        format="csc",
    )
    try:
        lu = spla.splu(kkt)
    except RuntimeError:
        return None
    return ActiveSetSystem(
        active_lower=active_lower,
        active_upper=active_upper,
        lu=lu,
        a_active=a_active,
        a_active_t=a_active_t,
    )


def _active_rhs(problem: QPProblem, system: ActiveSetSystem) -> tuple[np.ndarray, np.ndarray]:
    """The active-row mask and the right-hand side ``[-q; active bounds]``."""
    active = system.active_lower | system.active_upper
    bounds = np.where(system.active_lower[active], problem.l[active], problem.u[active])
    return active, np.concatenate([-problem.q, bounds])


def solve_active_set_system(
    problem: QPProblem, system: ActiveSetSystem
) -> tuple[np.ndarray, np.ndarray]:
    """Solve a cached active-set system against the problem's current data.

    Only ``q``/``l``/``u`` enter the right-hand side, so the cached
    factorization stays valid as long as ``P``/``A`` and the active set are
    unchanged.  This is the unrefined trial point;
    :func:`refine_active_set_solution` applies the refinement step.

    Returns:
        ``(x, y)`` with ``y`` expanded to all ``m`` rows (zeros off the
        active set).
    """
    # Degenerate working sets legally produce non-finite iterates here;
    # callers isfinite-check and fall back to ADMM, so opt out of any
    # surrounding sanitize guard.
    with sanitize.tolerant("active-set solve"):
        active, rhs = _active_rhs(problem, system)
        sol = system.lu.solve(rhs)
        x = sol[: problem.num_variables]
        y = np.zeros(problem.num_constraints)
        y[active] = sol[problem.num_variables :]
    return x, y


@check_shapes("x:(n,)", "y:(m,)", ret=("(n,)", "(m,)"))
def refine_active_set_solution(
    problem: QPProblem, system: ActiveSetSystem, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One step of iterative refinement against the unregularized system.

    ``(x, y)`` is the trial point :func:`solve_active_set_system` returned
    for ``system`` on the same data; the result is bitwise the point a
    solve with built-in refinement would give.

    Returns:
        The refined ``(x, y)``, ``y`` zero off the active set.
    """
    with sanitize.tolerant("active-set refinement"):
        active, rhs = _active_rhs(problem, system)
        n = problem.num_variables
        nu = y[active]
        residual = np.concatenate(
            [
                rhs[:n] - (problem.P @ x + system.a_active_t @ nu),
                rhs[n:] - system.a_active @ x,
            ]
        )
        step = system.lu.solve(residual)
        x = x + step[:n]
        y = np.zeros(problem.num_constraints)
        y[active] = nu + step[n:]
    return x, y


@check_shapes("ax:(m,)", "y:(m,)", ret=("(m,)", "(m,)"))
def update_active_set(
    problem: QPProblem, ax: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One primal-dual active-set update from a trial KKT point.

    Given ``(x, y)`` solved with some working active set, propose the next
    working set the way a primal-dual active-set method does: rows whose
    constraint is *violated* join the set, and rows held at their bound by
    a wrong-sign multiplier leave it.  The combined test
    ``y_i + (a_i x - bound_i)`` reduces to exactly those two rules at a
    trial point (held rows have ``a_i x = bound_i``; inactive rows have
    ``y_i = 0``).  Equality rows are always active (upper, by the same
    convention as :func:`guess_active_set`).

    Args:
        problem: the problem the trial point belongs to.
        ax: constraint values ``A x`` of the trial point, shape ``(m,)``
            (the one :func:`certify_kkt_point` returns).
        y: trial multipliers, shape ``(m,)``.

    Returns:
        ``(active_lower, active_upper)`` boolean masks of shape ``(m,)``.
    """
    equality = problem.l == problem.u
    active_upper = np.isfinite(problem.u) & (y + (ax - problem.u) > _ACTIVE_TOL)
    active_lower = np.isfinite(problem.l) & (y + (ax - problem.l) < -_ACTIVE_TOL)
    active_upper = active_upper | equality
    active_lower = active_lower & ~active_upper
    return active_lower, active_upper
