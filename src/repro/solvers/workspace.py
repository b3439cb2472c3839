"""Persistent QP workspace with factorization caching (OSQP ``setup/update/solve``).

Receding-horizon MPC and best-response game dynamics solve long sequences
of QPs that share one ``(P, A)`` structure and differ only in the vectors
``q``/``l``/``u`` (new forecasts, new quotas, a new initial state on the
dynamics right-hand side).  The one-shot :func:`repro.solvers.qp.solve_qp`
pays the full setup price on every call: input validation, Ruiz
equilibration, and the sparse LU factorization of the quasi-definite KKT
matrix.  None of that work depends on the vectors.

:class:`QPWorkspace` splits the solve the way OSQP (Stellato et al. 2020)
does:

* :meth:`QPWorkspace.setup` — validate and equilibrate once for a given
  ``(P, A)`` pair;
* :meth:`QPWorkspace.update` — swap in new ``q``/``l``/``u`` in ``O(n + m)``,
  dropping the KKT factorization only if the equality pattern of the
  bounds changed (the per-row step sizes depend on which rows are
  equalities);
* :meth:`QPWorkspace.solve` — run the ADMM iteration, warm-started from
  the previous solve's (scaled) iterates.  The KKT system is factorized
  by the first ADMM pass that needs it and again only on adaptive-rho
  changes, so a solve the cached active set certifies factorizes nothing.

The Ruiz scaling is computed once at setup (from ``P``, ``A`` and the
setup-time ``q``) and reused verbatim for every update, exactly as OSQP
keeps its scaling fixed across ``update()`` calls.  Termination criteria
are always evaluated on the *original* (unscaled, current) problem, so a
workspace-reused solve satisfies the same tolerances as a cold
:func:`~repro.solvers.qp.solve_qp` — solutions agree within solver
tolerance even though the cached preconditioner differs from the one a
cold solve would compute.

``solve_qp`` is a thin call on a throwaway workspace, and every DSPP
solve runs on a :class:`~repro.core.dspp.DSPPWorkspace`, so there is one
ADMM implementation and one warm start: the workspace's own stored
iterates.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Any

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import repro.sanitize as sanitize
import repro.solvers.qp as _qp
from repro.contracts import check_shapes
from repro.solvers.banded import (
    BandedActiveSetSystem,
    BandedKKTSolver,
    build_banded_active_set_system,
    use_banded_backend,
)
from repro.solvers.kkt import (
    ActiveSetSystem,
    build_active_set_system,
    certify_kkt_point,
    guess_active_set,
    passes_bound_screen,
    refine_active_set_solution,
    solve_active_set_system,
    update_active_set,
)
from repro.solvers.projections import project_box
from repro.solvers.qp import MatrixLike, QPProblem, QPSettings, QPSolution, QPStatus, VectorLike

if TYPE_CHECKING:  # pragma: no cover - annotation-only (avoids a package import cycle)
    from repro.core.matrices import QPBlockView

__all__ = ["QPWorkspace"]


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two float arrays hold the same bits (``-0.0 != 0.0``)."""
    return a.shape == b.shape and bool(np.array_equal(a.view(np.uint64), b.view(np.uint64)))


class QPWorkspace:
    """Reusable ADMM solver state for a sequence of same-structure QPs.

    Typical use::

        ws = QPWorkspace()
        ws.setup(P, A, q=q0, l=l0, u=u0, settings=settings)
        first = ws.solve()
        ws.update(q=q1, l=l1, u=u1)     # vectors only; O(n + m)
        second = ws.solve()             # warm-started, cached factorization

    Attributes:
        settings: the :class:`~repro.solvers.qp.QPSettings` in effect.
        num_setups: how many times :meth:`setup` ran (structure rebuilds).
        num_updates: how many vector-only :meth:`update` calls were served.
        num_factorizations: total KKT factorizations performed (by ADMM
            passes, on first use and on adaptive-rho steps); the gap
            between this and the solve count is the cached work.
    """

    def __init__(
        self, settings: QPSettings | None = None, *, _banded: bool | None = None
    ) -> None:
        self.settings = settings or QPSettings()
        self.num_setups = 0
        self.num_updates = 0
        self.num_factorizations = 0
        # Ruiz passes run: one per setup.
        self.num_equilibrations = 0
        self._problem: QPProblem | None = None
        self._work: QPProblem | None = None
        # Transposes of the original and scaled constraint matrices, built
        # once per structure for every ``A'y`` product (certificate, ADMM
        # residuals, infeasibility test, banded refinement).
        self._a_t: sp.csr_matrix | None = None
        self._work_a_t: sp.csr_matrix | None = None
        self._scaling: _qp._Scaling | None = None
        self._equality: np.ndarray | None = None
        self._rho_vec: np.ndarray | None = None
        self._lu: spla.SuperLU | BandedKKTSolver | None = None
        # Block structure of a stacked horizon QP (when the caller has
        # one) and the backend decision derived from it.  ``_banded``
        # overrides use_banded_backend for block-structured problems; only
        # the backend reference comparisons set it.
        self._blocks: QPBlockView | None = None
        self._banded = _banded
        self._use_banded = False
        self._x: np.ndarray | None = None
        self._z: np.ndarray | None = None
        self._y: np.ndarray | None = None
        # Set by _admm when a verified early polish terminated the pass.
        self._early_polished: QPSolution | None = None
        # Factorized active-set KKT system of the last certified crossover
        # (see _crossover).  Consecutive receding-horizon solves usually
        # share the optimal active set, so the next solve() first re-solves
        # this cached system against the fresh q/l/u (two
        # back-substitutions) and, if the result passes the strict
        # certificate, skips ADMM entirely.
        self._polish_system: ActiveSetSystem | BandedActiveSetSystem | None = None
        # The point the polish system certified and the data it was solved
        # against: ``(system, x, y, q, active bounds)``.  An active-set
        # solve is a function of ``q`` and the active rows' bounds alone,
        # so while both are bitwise unchanged the crossover re-certifies
        # this point instead of re-solving (see _crossover).
        self._certified: tuple[Any, ...] | None = None
        # Active sets the crossover already tried in the current solve()
        # (a certified one ends the solve, so every one of them failed),
        # keyed by the packed masks; prevents re-factorizing the same wrong
        # guess at every residual check.
        self._failed_masks: set[bytes] = set()

    def __getstate__(self) -> dict[str, Any]:
        """Pickle support for checkpoint/restore (see ``repro.service``).

        The snapshot keeps only *logical* state: the original problem, the
        Ruiz scaling, the rho vector, the iterates and the cached polish
        system's active-set masks.  Everything else is a deterministic
        function of those and is rebuilt by :meth:`__setstate__` (the
        scaled problem ``_work``, the cached transposes and the equality
        mask, the polish system) or by the next ADMM pass (the KKT
        factorization; a ``SuperLU`` is not picklable anyway).  The
        per-solve scratch fields (``_failed_masks``, ``_early_polished``)
        are dropped; their serialized bytes would depend on hash
        randomization.  So is the re-certify cache ``_certified``: it is
        pure speed (a restored workspace re-solves the polish system once
        and ships the same bits), and it holds the system itself.  Two
        snapshots of the same logical state are byte-identical.
        """
        state = dict(self.__dict__)
        system = state.pop("_polish_system")
        state["_polish_masks"] = (
            None
            if system is None
            else (system.active_lower.copy(), system.active_upper.copy())
        )
        for derived in (
            "_work",
            "_a_t",
            "_work_a_t",
            "_equality",
            "_lu",
            "_early_polished",
            "_failed_masks",
            "_certified",
        ):
            del state[derived]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        """Rebuild the derived data from the restored logical state.

        Every rebuild is bit-deterministic on the same machine: the scaled
        problem applies the stored scaling exactly as equilibration did,
        and the active-set system depends only on ``P``/``A`` plus the
        stored masks.  The KKT factorization (a function of the scaled
        problem, sigma and the rho vector) is left to the next ADMM pass,
        so restoring counts no new work and snapshot → restore → snapshot
        round-trips byte-identically.
        """
        state = dict(state)
        masks = state.pop("_polish_masks", None)
        self.__dict__.update(state)
        self._work = None
        self._a_t = self._work_a_t = None
        self._equality = None
        self._lu = None
        self._early_polished = None
        self._polish_system = None
        self._certified = None
        self._failed_masks = set()
        problem, scaling = self._problem, self._scaling
        if problem is not None and scaling is not None:
            self._install(problem, scaling.apply(problem))
            if masks is not None:
                self._polish_system = self._build_active_system(*masks)

    @property
    def is_setup(self) -> bool:
        """Whether :meth:`setup` has been called."""
        return self._problem is not None

    @property
    def problem(self) -> QPProblem:
        """The current (original-scale) problem held by the workspace."""
        if self._problem is None:
            raise RuntimeError("QPWorkspace.setup() has not been called")
        return self._problem

    @check_shapes("P:(n,n)", "A:(m,n)", "q:(n,)", "l:(m,)", "u:(m,)")
    def setup(
        self,
        P: MatrixLike,
        A: MatrixLike,
        q: VectorLike | None = None,
        l: VectorLike | None = None,
        u: VectorLike | None = None,
        settings: QPSettings | None = None,
        blocks: QPBlockView | None = None,
        carry: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        """Install a problem structure: validate and equilibrate (no KKT factorization).

        A set-up drops the stored iterates and the cached active-set
        system, unless ``carry`` maps the new problem into the previous
        one.  Then both are restricted to the mapped columns and rows: the
        iterates are rescaled under the new Ruiz scaling, and the active-set
        system is rebuilt from the restricted masks (equality rows forced
        to the upper mask, masks on infinite bounds cleared), so the next
        :meth:`solve` starts with the crossover as any warm solve does.

        Args:
            P: symmetric PSD cost matrix, shape ``(n, n)``.
            A: constraint matrix, shape ``(m, n)``.
            q: initial linear cost (default zeros); the Ruiz cost
                normalization is computed against this vector and kept for
                every later :meth:`update`.
            l: initial lower bounds (default ``-inf``).
            u: initial upper bounds (default ``+inf``).
            settings: replaces the workspace settings if given.
            blocks: per-period block structure of a stacked horizon QP;
                must match ``P``/``A``.  The workspace then factorizes
                with the block-banded KKT backend when
                :func:`~repro.solvers.banded.use_banded_backend` picks it.
                Without blocks, or when the rule declines, it runs the
                general sparse LU.  The banded path itself falls back to
                sparse LU: for good when a banded factorization fails
                numerically, and per active set when the banded builder
                declines one.
            carry: ``(columns, rows)``, the index in the previous problem of
                each column and row of the new one (see
                :meth:`repro.core.matrices.QPBlockView.shift_indices`).
                :class:`~repro.core.dspp.DSPPWorkspace` passes it when a
                window drops its first period.

        Raises:
            ValueError: on malformed inputs (see
                :meth:`repro.solvers.qp.QPProblem.build`), on blocks that do
                not match the problem, or when ``carry`` does not match the
                new problem or nothing was set up before.
        """
        if settings is not None:
            self.settings = settings
        sanitize.check_finite("QPWorkspace.setup", P, A, q)
        sanitize.check_finite("QPWorkspace.setup bounds", l, u, allow_inf=True)
        P_csc = QPProblem.build_matrix(P)
        n = P_csc.shape[0]
        A_csc = QPProblem.build_matrix(A)
        m = A_csc.shape[0]
        if q is None:
            q = np.zeros(n)
        if l is None:
            l = np.full(m, -np.inf)
        if u is None:
            u = np.full(m, np.inf)
        problem = QPProblem.build(P_csc, q, A_csc, l, u)
        prev = self._problem
        if carry is not None and (
            prev is None
            or carry[0].shape != (n,)
            or carry[1].shape != (m,)
            or carry[0].max(initial=-1) >= prev.num_variables
            or carry[1].max(initial=-1) >= prev.num_constraints
        ):
            raise ValueError(
                f"carry must map ({n},) columns and ({m},) rows into a "
                "previously set-up problem"
            )
        old_scaling, old_system = self._scaling, self._polish_system

        if blocks is not None and (
            blocks.num_variables != n or blocks.num_constraints != m
        ):
            raise ValueError(
                f"block view ({blocks.num_variables}, {blocks.num_constraints}) "
                f"does not match problem ({n}, {m})"
            )
        self._blocks = blocks
        self._use_banded = blocks is not None and (
            use_banded_backend(blocks) if self._banded is None else self._banded
        )

        work, scaling = _qp._ruiz_equilibrate(problem)
        self.num_equilibrations += 1
        self._install(problem, work)
        self._scaling = scaling
        self._rho_vec = _qp._rho_vector(work)
        self._lu = None
        self.num_setups += 1
        self._polish_system = None
        self._certified = None
        if carry is None:
            self._x = self._z = self._y = None
            return
        assert old_scaling is not None and self._equality is not None
        self._migrate_iterates(old_scaling, scaling, carry)
        if old_system is not None:
            rows, equality = carry[1], self._equality
            active_lower = old_system.active_lower[rows] & np.isfinite(problem.l) & ~equality
            active_upper = (old_system.active_upper[rows] & np.isfinite(problem.u)) | equality
            self._polish_system = self._build_active_system(active_lower, active_upper)

    def _install(self, problem: QPProblem, work: QPProblem) -> None:
        """Install the original and scaled problems and what derives from
        their structure alone: both transposes and the equality mask."""
        self._problem = problem
        self._work = work
        self._a_t = problem.A.T
        self._work_a_t = work.A.T
        self._equality = problem.l == problem.u

    def _factorize_current(self) -> spla.SuperLU | BandedKKTSolver:
        """(Re)factorize the ADMM KKT system with the selected backend.

        Installs the factorization as ``self._lu`` and returns it.  A
        numerically failed banded factorization permanently falls back to
        the sparse backend for this workspace (correctness first; the
        sparse path accepts anything splu does).
        """
        work = self._work
        scaling = self._scaling
        rho_vec = self._rho_vec
        assert work is not None and scaling is not None and rho_vec is not None
        lu: spla.SuperLU | BandedKKTSolver
        if self._use_banded:
            assert self._blocks is not None and self._work_a_t is not None
            try:
                lu = BandedKKTSolver(
                    self._blocks,
                    work,
                    self._work_a_t,
                    scaling.d,
                    scaling.e,
                    _qp._SIGMA,
                    rho_vec,
                )
            except np.linalg.LinAlgError:
                self._use_banded = False
                lu = _qp._factorize(work, rho_vec)
        else:
            lu = _qp._factorize(work, rho_vec)
        self._lu = lu
        self.num_factorizations += 1
        return lu

    def _build_active_system(
        self, active_lower: np.ndarray, active_upper: np.ndarray
    ) -> ActiveSetSystem | BandedActiveSetSystem | None:
        """Build an active-set KKT system with the selected backend.

        The banded builder declines masks that break its structural
        assumptions; those fall through to the sparse builder so the
        crossover path behaves identically either way.
        """
        problem = self._problem
        assert problem is not None
        if self._use_banded:
            assert self._blocks is not None
            banded = build_banded_active_set_system(
                self._blocks, active_lower, active_upper
            )
            if banded is not None:
                return banded
        return build_active_set_system(problem, active_lower, active_upper)

    def _solve_active_system(
        self, system: ActiveSetSystem | BandedActiveSetSystem
    ) -> tuple[np.ndarray, np.ndarray]:
        """Solve an active-set system against the current data (unrefined)."""
        problem = self._problem
        assert problem is not None
        if isinstance(system, BandedActiveSetSystem):
            return system.solve(problem)
        return solve_active_set_system(problem, system)

    def _refine_active_system(
        self, system: ActiveSetSystem | BandedActiveSetSystem, x: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One refinement pass on the point :meth:`_solve_active_system` gave."""
        problem = self._problem
        assert problem is not None
        if isinstance(system, BandedActiveSetSystem):
            return system.refine(problem, x, y)
        return refine_active_set_solution(problem, system, x, y)

    def _active_bounds(self, system: ActiveSetSystem | BandedActiveSetSystem) -> np.ndarray:
        """The current bounds of ``system``'s active rows: with ``q``, all an
        active-set solve reads of the data."""
        problem = self._problem
        assert problem is not None
        active = system.active_lower | system.active_upper
        return np.where(system.active_lower, problem.l, problem.u)[active]

    def _recertifiable(
        self, system: ActiveSetSystem | BandedActiveSetSystem
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Copies of the point ``system`` certified, if a solve of it now
        would return that point bit for bit (see :attr:`_certified`)."""
        record = self._certified
        if record is None or record[0] is not system:
            return None
        _, x, y, q_then, bounds_then = record
        assert self._problem is not None
        if not _same_bits(self._problem.q, q_then):
            return None
        if not _same_bits(self._active_bounds(system), bounds_then):
            return None
        return x.copy(), y.copy()

    def _migrate_iterates(
        self, old: _qp._Scaling, new: _qp._Scaling, carry: tuple[np.ndarray, np.ndarray]
    ) -> None:
        """Move the stored iterates from scaling ``old`` into ``new``,
        restricted to the ``(columns, rows)`` of ``carry``."""
        if self._x is None or self._z is None or self._y is None:
            return
        x, y, z = old.unscale_x(self._x), old.unscale_y(self._y), old.unscale_z(self._z)
        columns, rows = carry
        x, y, z = x[columns], y[rows], z[rows]
        self._x = new.scale_x(x)
        self._y = new.scale_y(y)
        self._z = new.e * z

    @check_shapes("q:(n,)", "l:(m,)", "u:(m,)")
    def update(
        self,
        q: VectorLike | None = None,
        l: VectorLike | None = None,
        u: VectorLike | None = None,
    ) -> None:
        """Replace problem vectors, keeping structure, scaling and factors.

        Args:
            q: new linear cost, shape ``(n,)``.
            l: new lower bounds, shape ``(m,)``.
            u: new upper bounds, shape ``(m,)``.

        Raises:
            RuntimeError: if :meth:`setup` has not been called.
            ValueError: on shape mismatches or ``l > u``.
        """
        if self._problem is None or self._work is None or self._scaling is None:
            raise RuntimeError("QPWorkspace.update() before setup()")
        sanitize.check_finite("QPWorkspace.update", q)
        sanitize.check_finite("QPWorkspace.update bounds", l, u, allow_inf=True)
        problem = self._problem
        n, m = problem.num_variables, problem.num_constraints
        new_q = problem.q if q is None else np.asarray(q, dtype=float).ravel()
        new_l = problem.l if l is None else np.asarray(l, dtype=float).ravel()
        new_u = problem.u if u is None else np.asarray(u, dtype=float).ravel()
        if new_q.shape != (n,):
            raise ValueError(f"q must have shape ({n},), got {new_q.shape}")
        if new_l.shape != (m,) or new_u.shape != (m,):
            raise ValueError(f"l and u must have shape ({m},)")
        if np.any(new_l > new_u):
            raise ValueError("infeasible bounds: some l[i] > u[i]")

        scaling = self._scaling
        self._problem = replace(problem, q=new_q, l=new_l, u=new_u)
        self._work = replace(
            self._work,
            q=scaling.cost * (scaling.d * new_q),
            l=scaling.e * new_l,
            u=scaling.e * new_u,
        )
        equality = new_l == new_u
        assert self._equality is not None
        if not np.array_equal(equality, self._equality):
            # The per-row step sizes key on the equality pattern; a pattern
            # change invalidates the cached KKT factorization.  The cached
            # polish system folds equality rows into its upper mask, so it
            # goes stale too.
            self._equality = equality
            self._rho_vec = _qp._rho_vector(self._work)
            self._lu = None
            self._polish_system = None
            self._certified = None
        self.num_updates += 1

    def solve(self) -> QPSolution:
        """Run ADMM on the current problem data.

        The iteration starts from the previous :meth:`solve`'s final
        (scaled) iterates when there are any: :meth:`setup` drops them, an
        :meth:`update` keeps them.

        Returns:
            A :class:`~repro.solvers.qp.QPSolution`; same contract as
            :func:`~repro.solvers.qp.solve_qp`, with ``iterations``
            counting *all* ADMM iterations spent, including any internal
            cold restart after a stalled warm start.

        Raises:
            RuntimeError: if :meth:`setup` has not been called.
        """
        if sanitize.enabled() and self._problem is not None:
            sanitize.check_finite("QPWorkspace.solve problem", self._problem)
        with sanitize.guard("QPWorkspace.solve"):
            solution = self._solve_impl()
        if solution.status in (QPStatus.OPTIMAL, QPStatus.MAX_ITERATIONS):
            # Infeasibility certificates legitimately carry NaN objective
            # and infinite residuals; only converged answers must be finite.
            sanitize.check_finite("QPWorkspace.solve result", solution)
        sanitize.record_solve(solution.primal_residual, solution.dual_residual)
        return solution

    def _solve_impl(self) -> QPSolution:
        if (
            self._problem is None
            or self._work is None
            or self._scaling is None
            or self._rho_vec is None
        ):
            raise RuntimeError("QPWorkspace.solve() before setup()")
        self._failed_masks = set()
        problem, work, scaling = self._problem, self._work, self._scaling
        cfg = self.settings
        n, m = problem.num_variables, problem.num_constraints

        if self._x is not None and self._z is not None and self._y is not None:
            x, z, y = self._x.copy(), self._z.copy(), self._y.copy()
            warm_seeded = True
        else:
            x, z, y = np.zeros(n), np.zeros(m), np.zeros(m)
            warm_seeded = False

        system = self._polish_system
        if cfg.early_polish and system is not None:
            certified = self._crossover(system.active_lower, system.active_upper, system)
            if certified is not None:
                solution, ax = certified
                self._store_iterates(solution.x, solution.y, ax)
                return solution

        x, z, y, status, iterations, r_prim, r_dual = self._admm(x, z, y)

        if status is QPStatus.MAX_ITERATIONS and warm_seeded:
            # A warm start from a *different* problem can trap the
            # iteration (the adaptive step size tunes itself to the stale
            # iterate and stalls).  Restart cold — reusing the equilibrated
            # problem and refreshing only the rho-dependent factorization —
            # and report the *cumulative* iteration count.
            self._rho_vec = _qp._rho_vector(work)
            self._lu = None
            x, z, y, status, restart_iters, r_prim, r_dual = self._admm(
                np.zeros(n), np.zeros(m), np.zeros(m)
            )
            iterations += restart_iters

        if status in (QPStatus.PRIMAL_INFEASIBLE, QPStatus.DUAL_INFEASIBLE):
            # Divergence certificates make poor warm starts; drop them.
            self._x = self._z = self._y = None
            return QPSolution(
                x=scaling.unscale_x(x),
                y=scaling.unscale_y(y),
                objective=np.nan,
                status=status,
                iterations=iterations,
                primal_residual=np.inf,
                dual_residual=np.inf,
            )

        self._x, self._z, self._y = x.copy(), z.copy(), y.copy()
        if self._early_polished is not None:
            # The ADMM iterates at the break point (not the polished
            # solution) stay stored — they are the natural warm start for
            # the next same-structure solve.
            return replace(self._early_polished, iterations=iterations)
        x_orig = scaling.unscale_x(x)
        y_orig = scaling.unscale_y(y)
        z_orig = scaling.unscale_z(z)
        if status is QPStatus.MAX_ITERATIONS:
            assert self._a_t is not None
            r_prim, r_dual, _, _, _ = _qp._residuals(
                problem, self._a_t, x_orig, z_orig, y_orig
            )

        if status is QPStatus.OPTIMAL:
            # Polish from ADMM's own active-set guess; the ADMM iterates
            # stay stored as the warm start, as after an early polish.
            certified = self._crossover(*guess_active_set(problem, problem.A @ x_orig, y_orig))
            if certified is not None:
                return replace(certified[0], iterations=iterations)
        return QPSolution(
            x=x_orig,
            y=y_orig,
            objective=problem.objective(x_orig),
            status=status,
            iterations=iterations,
            primal_residual=r_prim,
            dual_residual=r_dual,
        )

    # Working sets one crossover tries: the first is the starting active
    # set; each further attempt is one primal-dual active-set update (add
    # violated rows, drop wrong-sign multipliers) plus a fresh
    # factorization.  Receding-horizon steps flip a few dozen rows, which
    # this typically identifies within a handful of updates; anything
    # harder falls back to ADMM, so the bound only caps wasted
    # factorizations (the ``_failed_masks`` memo breaks cycles early).
    _MAX_CROSSOVER_ATTEMPTS = 8

    def _crossover(
        self,
        active_lower: np.ndarray,
        active_upper: np.ndarray,
        system: ActiveSetSystem | BandedActiveSetSystem | None = None,
    ) -> tuple[QPSolution, np.ndarray] | None:
        """Turn an active set into a certified solution: the one polish path.

        Builds the active-set KKT system with the workspace backend (unless
        ``system``, already built for these masks, is given), solves it
        against the current data and accepts the point only if it passes
        the strict certificate (:func:`repro.solvers.kkt.certify_kkt_point`)
        — a certified point *is* the optimum.  A rejected point proposes
        the next working set (:func:`repro.solvers.kkt.update_active_set`,
        fed the point's ``A x``), up to ``_MAX_CROSSOVER_ATTEMPTS`` sets.
        No set is factorized twice in one solve: reaching a set that
        already failed ends the crossover.  With ``early_polish`` on, the
        accepted system becomes ``_polish_system``, which the next solve
        tries first.

        Each step pays only for work that can change its answer:

        * **Re-certify.** When the first set is ``_polish_system`` and
          ``q`` and its active rows' bounds are bitwise those its stored
          point was solved against, the solve would return that point bit
          for bit, so the stored point goes straight to the full
          certificate.  Only inactive bounds moved, so it may still fail;
          then the walk goes on from it as from a re-solved point.
        * **Screen before refining.** A solved trial point is refined only
          if its ``A x`` passes the certificate's bound test
          (:func:`repro.solvers.kkt.passes_bound_screen`); a point that
          fails proposes the next set from its unrefined ``A x`` and ``y``.

        Three callers, all with the same budget: the solve start (from the
        cached system), the early polish inside ADMM (ADMM's guess, once
        per stable signature) and the end of an OPTIMAL ADMM pass (ADMM's
        guess).  So no solve ships a polished point that failed the
        certificate.

        Returns:
            ``(solution, ax)``: the certified ``polished`` OPTIMAL solution
            (``iterations=0``) and ``A x`` at it, or ``None`` if no attempt
            certifies.
        """
        problem = self._problem
        a_t = self._a_t
        assert problem is not None and a_t is not None
        for _ in range(self._MAX_CROSSOVER_ATTEMPTS):
            key = active_lower.tobytes() + active_upper.tobytes()
            if key in self._failed_masks:
                return None
            self._failed_masks.add(key)
            if system is None:
                system = self._build_active_system(active_lower, active_upper)
            if system is None:
                return None
            point = self._recertifiable(system)
            if point is None:
                x, y = self._solve_active_system(system)
                if not np.all(np.isfinite(x)):
                    return None
                ax = problem.A @ x
                if not passes_bound_screen(problem, ax, _qp._EPS_ABS, _qp._EPS_REL):
                    active_lower, active_upper = update_active_set(problem, ax, y)
                    system = None
                    continue
                x, y = self._refine_active_system(system, x, y)
                if not np.all(np.isfinite(x)):
                    return None
            else:
                x, y = point
            ax, solution = certify_kkt_point(problem, a_t, x, y, _qp._EPS_ABS, _qp._EPS_REL)
            if solution is not None:
                if self.settings.early_polish:
                    self._polish_system = system
                    self._certified = (
                        system, x.copy(), y.copy(), problem.q.copy(), self._active_bounds(system)
                    )
                return solution, ax
            active_lower, active_upper = update_active_set(problem, ax, y)
            system = None
        return None

    def _store_iterates(self, x: np.ndarray, y: np.ndarray, ax: np.ndarray) -> None:
        """Store an (unscaled) primal/dual pair, with ``A x``, as the scaled
        warm start."""
        problem = self._problem
        scaling = self._scaling
        assert problem is not None and scaling is not None
        z = np.clip(ax, problem.l, problem.u)
        self._x = scaling.scale_x(x)
        self._y = scaling.scale_y(y)
        self._z = scaling.e * z

    def _admm(
        self, x: np.ndarray, z: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, QPStatus, int, float, float]:
        """One ADMM pass from the given scaled iterates.

        Returns the final scaled iterates, the termination status, the
        iteration count of this pass and the last original-scale residuals.
        Factorizes the KKT system if none is cached, and mutates the rho
        vector / factorization on adaptive-rho steps (the cache the next
        solve reuses).
        """
        problem, work, scaling = self._problem, self._work, self._scaling
        a_t, work_a_t = self._a_t, self._work_a_t
        assert problem is not None and work is not None and scaling is not None
        assert a_t is not None and work_a_t is not None
        assert self._rho_vec is not None
        cfg = self.settings
        n, m = problem.num_variables, problem.num_constraints
        rho_vec = self._rho_vec
        assert np.all(rho_vec > 0.0)  # clipped to [_RHO_MIN, _RHO_MAX]
        lu = self._lu if self._lu is not None else self._factorize_current()

        rhs = np.empty(n + m)
        status = QPStatus.MAX_ITERATIONS
        r_prim = r_dual = np.inf
        iteration = 0
        self._early_polished = None
        # Early-polish attempt gating: each working set an attempt tries
        # costs one KKT factorization of the active-set system, so (a) only
        # attempt once the candidate active set (which rows of z sit on a
        # bound) has survived one full check interval unchanged — while it
        # churns the polish guess churns with it and the factorization is
        # wasted — and (b) never retry a set that already failed this solve
        # (``_failed_masks``); the guess only becomes worth retrying after
        # it changes, which the memo detects exactly.
        prev_signature: np.ndarray | None = None
        signature_stable = False
        for iteration in range(1, cfg.max_iterations + 1):
            x_prev = x
            y_prev = y
            rhs[:n] = _qp._SIGMA * x - work.q
            rhs[n:] = z - y / rho_vec
            sol = lu.solve(rhs)
            x_tilde = sol[:n]
            nu = sol[n:]
            z_tilde = z + (nu - y) / rho_vec
            x = _qp._ALPHA * x_tilde + (1.0 - _qp._ALPHA) * x_prev
            z_relaxed = _qp._ALPHA * z_tilde + (1.0 - _qp._ALPHA) * z
            z_new = project_box(z_relaxed + y / rho_vec, work.l, work.u)
            y = y + rho_vec * (z_relaxed - z_new)
            z = z_new

            if iteration % _qp._CHECK_INTERVAL != 0:
                continue

            x_orig = scaling.unscale_x(x)
            y_orig = scaling.unscale_y(y)
            z_orig = scaling.unscale_z(z)
            r_prim, r_dual, prim_scale, dual_scale, ax = _qp._residuals(
                problem, a_t, x_orig, z_orig, y_orig
            )
            eps_prim = _qp._EPS_ABS + _qp._EPS_REL * prim_scale
            eps_dual = _qp._EPS_ABS + _qp._EPS_REL * dual_scale
            if r_prim <= eps_prim and r_dual <= eps_dual:
                status = QPStatus.OPTIMAL
                break

            if cfg.early_polish:
                # Box projection puts active rows *exactly* on their (scaled)
                # bound, so equality is the right test here.
                signature = (z <= work.l) | (z >= work.u)
                signature_stable = prev_signature is not None and bool(
                    np.array_equal(signature, prev_signature)
                )
                prev_signature = signature

            if (
                cfg.early_polish
                and signature_stable
                and r_prim <= _qp._EARLY_POLISH_FACTOR * eps_prim
                and r_dual <= _qp._EARLY_POLISH_FACTOR * eps_dual
            ):
                certified = self._crossover(*guess_active_set(problem, ax, y_orig))
                if certified is not None:
                    self._early_polished = certified[0]
                    status = QPStatus.OPTIMAL
                    r_prim = certified[0].primal_residual
                    r_dual = certified[0].dual_residual
                    break

            if _qp._check_primal_infeasible(
                problem, a_t, scaling.unscale_y(y - y_prev), _qp._INFEASIBILITY_EPS
            ):
                status = QPStatus.PRIMAL_INFEASIBLE
                break
            if _qp._check_dual_infeasible(
                problem, scaling.unscale_x(x - x_prev), _qp._INFEASIBILITY_EPS
            ):
                status = QPStatus.DUAL_INFEASIBLE
                break

            if m and iteration % _qp._ADAPTIVE_RHO_INTERVAL == 0:
                # Balance the *scaled* residuals — they drive the iteration.
                # An unconstrained QP has no step sizes to adapt.
                rs_prim, rs_dual, ps, ds, _ = _qp._residuals(work, work_a_t, x, z, y)
                scaled_prim = rs_prim / max(ps, 1e-12)
                scaled_dual = rs_dual / max(ds, 1e-12)
                ratio = np.sqrt(scaled_prim / max(scaled_dual, 1e-12))
                if (
                    ratio > _qp._ADAPTIVE_RHO_TOLERANCE
                    or ratio < 1.0 / _qp._ADAPTIVE_RHO_TOLERANCE
                ):
                    rho_vec = np.clip(rho_vec * ratio, _qp._RHO_MIN, _qp._RHO_MAX)
                    self._rho_vec = rho_vec
                    lu = self._factorize_current()

        return x, z, y, status, iteration, r_prim, r_dual
