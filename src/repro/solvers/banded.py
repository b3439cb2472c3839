"""Structure-exploiting block-banded KKT backend for the stacked horizon QP.

The stacked DSPP program of Section IV-D is a discrete-time optimal-control
problem: variables group by period into ``v_t = [u_t, w_t, x_t]`` and the
only cross-period coupling is the dynamics row ``x_t - x_{t-1} - u_t = b``.
Both KKT systems the ADMM workspace factorizes are therefore block
tridiagonal in time, and a sequential block Schur (Riccati-style)
recursion factorizes them in ``O(T * n_b^3)`` with ``n_b`` the per-period
block size — instead of general sparse LU on the whole horizon, whose
fill-in grows superlinearly with ``T``.  Two solvers live here:

:class:`BandedKKTSolver`
    Drop-in replacement for the SuperLU factorization of the ADMM KKT
    matrix ``[[P~ + sigma I, A~'], [A~, -diag(1/rho)]]`` (scaled problem).
    The quasi-definite system is *condensed* onto the primal block: with
    ``R = diag(rho)``, the unique solution satisfies

        ``H x = b1 + A~' R b2``,   ``nu = R (A~ x - b2)``,
        ``H = P~ + sigma I + A~' R A~``

    and ``H`` is symmetric positive definite and block tridiagonal over
    periods (every constraint family is period-local except the dynamics
    rows, whose coupling is *diagonal* in the pair index).  Inside ``H``
    the ``u``-``u`` (and elastic ``w``-``w``) blocks are diagonal and all
    their couplings are diagonal or location-thin, so both are eliminated
    exactly before the recursion: what gets factorized is one dense
    ``LV x LV`` Cholesky block per period over ``x`` alone, with diagonal
    cross-period coupling.
    The recursion stores each period's block inverse explicitly, so a
    solve is one forward and one backward sweep of symmetric matrix-vector
    products.  Condensation squares the condition number, so every solve
    finishes with a few steps of iterative refinement against the full
    KKT residual — the returned ``[x; nu]`` matches the SuperLU path to
    refinement tolerance.

:class:`BandedActiveSetSystem`
    Replacement for the sparse active-set (crossover/polish) system
    ``[[P, A_act'], [A_act, 0]]`` on the *original* problem.  Here the
    special structure allows exact elimination before any factorization:
    active bound rows pin single variables, the dynamics rows eliminate
    ``u_t`` (and with it the only nonzero block of ``P``), and elastic
    slacks inside an active demand row fix their multiplier outright.
    What remains is a saddle system over the free ``x`` entries and the
    surviving demand/capacity rows whose ``x`` operator is block diagonal
    over the pairs (tiny tridiagonal chains in time), so the kept-row
    Schur complement splits into per-location and per-center ``T x T``
    blocks — everything factorizes with batched dense LAPACK calls and
    grouped sums.  Masks that violate the structural assumptions (an
    inactive dynamics row, a free slack with no active demand row, a kept
    row with no free support) return ``None`` from the builder and the
    caller falls back to the sparse path; the workspace's optimality
    certificate guards correctness either way.  A chain depends only on
    its pair's control Hessian value and free-period pattern, so the
    builder looks the chain inverses up in a table memoized on the view
    and inverts only the chains it has not seen.
    :meth:`~BandedActiveSetSystem.solve` returns the exact, unrefined
    trial point; :meth:`~BandedActiveSetSystem.refine` applies one
    refinement pass against the unregularized system.  The workspace
    refines only a trial point whose ``A x`` passes the certificate's
    bound test: a point that fails it only proposes the next working
    set, and refinement moves it by a few ulps at most.

Neither solver ever slices the assembled CSC matrices: all block
coefficients come from the :class:`~repro.core.matrices.QPBlockView`
emitted by :func:`~repro.core.matrices.build_qp_structure` (the scaled
ADMM system additionally uses the cached Ruiz diagonals).

Both solvers work in *pair coordinates*: the per-period block width is
``view.pairs_per_step``, the number of pairs the view's mask keeps (the
SLA-usable pairs in a pruned layout, ``L * V`` on the full mask).  A
location's or a data center's pairs are summed with one ``np.bincount``
over precomputed bins (:func:`_period_bins`), and
:class:`BandedKKTSolver` assembles its condensed blocks through
precomputed coupling patterns (pairs sharing a location / a data
center).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.blas import dsymv

import repro.sanitize as sanitize
from repro.contracts import check_shapes
from repro.solvers.qp import QPProblem

if TYPE_CHECKING:  # pragma: no cover - annotation-only (avoids a package import cycle)
    from repro.core.matrices import QPBlockView

__all__ = [
    "BandedActiveSetSystem",
    "BandedKKTSolver",
    "build_banded_active_set_system",
    "use_banded_backend",
]

# Auto-dispatch rule (see use_banded_backend): the dense block recursion
# beats general sparse LU once the horizon is long enough to cause fill-in
# and the per-period blocks are big enough to amortize dense BLAS calls.
_MIN_AUTO_STEPS = 4
_MIN_AUTO_PAIRS = 64

# Iterative-refinement loop of BandedKKTSolver.solve: condensation squares
# the KKT condition number, so polish the solve back to SuperLU-level
# accuracy against the full (uncondensed) residual.
_KKT_REFINE_STEPS = 3
_KKT_REFINE_TOL = 1e-12


def use_banded_backend(view: QPBlockView) -> bool:
    """The KKT backend rule of every block-structured workspace.

    The banded recursion wins when the horizon is long (sparse LU fill-in
    compounds across periods) and the per-period block is large (dense
    Cholesky/LU run at BLAS speed).  Short horizons or small blocks keep
    the sparse path, whose constant factors are lower.  There is no
    setting to override it: ``QPWorkspace`` adds only its two sparse
    fallbacks (a banded factorization that fails numerically, and an
    active set the banded builder declines).
    """
    return (
        view.num_steps >= _MIN_AUTO_STEPS
        and view.pairs_per_step >= _MIN_AUTO_PAIRS
    )


def _coupling_pattern(
    group: np.ndarray, num_groups: int
) -> tuple[np.ndarray, np.ndarray]:
    """All ordered index pairs ``(i, j)`` with ``group[i] == group[j]``.

    The demand (capacity) rows couple exactly the pairs sharing a
    location (data center); the returned index lists scatter those
    rank-one couplings into a dense per-period block.  Within one family
    the flat indices ``i * n + j`` are unique — two distinct pairs share
    at most one location and one data center — so fancy-indexed ``+=``
    accumulates correctly.
    """
    order = np.argsort(group, kind="stable")
    counts = np.bincount(group, minlength=num_groups)
    rows_parts: list[np.ndarray] = []
    cols_parts: list[np.ndarray] = []
    start = 0
    for g in range(num_groups):
        k = int(counts[g])
        if k == 0:
            continue
        members = order[start : start + k]
        start += k
        rows_parts.append(np.repeat(members, k))
        cols_parts.append(np.tile(members, k))
    if not rows_parts:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    return np.concatenate(rows_parts), np.concatenate(cols_parts)


def _period_bins(group: np.ndarray, num_groups: int, num_steps: int) -> np.ndarray:
    """Flat index ``t * num_groups + group[p]`` of each pair's group entry
    in a ``(num_steps, num_groups)`` array, shape ``(num_steps, P)``.

    ``a.take(bins)`` gathers a per-group array onto the pairs, and
    ``np.bincount(bins.ravel(), x.ravel())`` — its adjoint — sums a
    per-pair array over each group (a location's or a center's pairs).
    """
    return np.arange(num_steps)[:, None] * num_groups + group


def _chains(free: np.ndarray, hessian: np.ndarray) -> np.ndarray:
    """The ``(k, T, T)`` tridiagonal chains of ``k`` pairs.

    ``free`` is the ``(T, k)`` free-period mask, ``hessian`` the pairs'
    control Hessian values: diagonal ``2c`` (``c`` in the last period) at
    free periods and 1 at pinned ones, coupling ``-c`` between consecutive
    free periods.
    """
    T, k = free.shape
    tt = np.arange(T)
    interior = (tt < T - 1).astype(float)[:, None]
    diag = np.where(free, hessian * (1.0 + interior), 1.0)
    link = np.where(free[1:] & free[:-1], -hessian, 0.0)
    chains = np.zeros((k, T, T))
    chains[:, tt, tt] = diag.T
    chains[:, tt[1:], tt[:-1]] = link.T
    chains[:, tt[:-1], tt[1:]] = link.T
    return chains


# Memory cap of one view's chain-inverse table: an entry is T*T floats, so
# the table holds about 29,000 chains at T = 6 and 1,800 at T = 24.  A full
# table is emptied, never preallocated: 2^T patterns per Hessian value
# would not fit at T = 24.
_CHAIN_TABLE_BYTES = 8 << 20


class _ViewTables:
    """What the banded active-set builder derives from a view alone.

    Memoized on :attr:`QPBlockView.memo` (so never pickled): the period
    bins of locations and centers, and the inverse of every chain seen so
    far, keyed by the pair's control Hessian value and free-period
    pattern, which are all a chain depends on.  A working set has a few
    dozen distinct keys over its ``pairs_per_step`` chains (a median of 25
    of 96 on the paper's game), and the walk's next set mostly the same.
    """

    def __init__(self, view: QPBlockView) -> None:
        T = view.num_steps
        self.bin_loc = _period_bins(view.pair_location, view.num_locations, T)
        self.bin_dc = _period_bins(view.pair_datacenter, view.num_datacenters, T)
        self._hessian = np.ascontiguousarray(view.control_hessian, dtype=float)
        self._hessian_bytes = self._hessian.view(np.uint8).reshape(-1, 8)
        # Key bytes -> row of ``_inverses``; rows past ``len(_slots)`` are free.
        self._slots: dict[bytes, int] = {}
        self._inverses = np.empty((0, T, T))
        self._max_chains = max(1, _CHAIN_TABLE_BYTES // (8 * T * T))

    def chain_inverses(self, free: np.ndarray) -> np.ndarray | None:
        """The ``(P, T, T)`` chain inverses for the ``(T, P)`` free mask.

        Missing keys are filled by one batched ``np.linalg.inv`` over the
        same chain matrices a full batch would invert, so every inverse is
        bitwise the one :func:`_chains` plus ``np.linalg.inv`` give.
        Returns ``None`` if a new chain is singular or its inverse is not
        finite (nothing is stored then).
        """
        keys = np.concatenate([self._hessian_bytes, np.packbits(free, axis=0).T], axis=1)
        width = keys.shape[1]
        blob = keys.tobytes()
        names = [blob[i : i + width] for i in range(0, len(blob), width)]
        slots = [self._slots.get(name) for name in names]
        if None in slots:
            if len(self._slots) + slots.count(None) > self._max_chains:
                # Full: start over with this working set's chains.
                self._slots = {}
                slots = [None] * len(names)
            missing: dict[bytes, int] = {}  # key -> first pair with it
            for p, (name, slot) in enumerate(zip(names, slots)):
                if slot is None:
                    missing.setdefault(name, p)
            pairs = np.fromiter(missing.values(), dtype=np.intp, count=len(missing))
            try:
                fresh = np.linalg.inv(_chains(free[:, pairs], self._hessian[pairs]))
            except np.linalg.LinAlgError:
                return None
            if not np.all(np.isfinite(fresh)):
                return None
            start = len(self._slots)
            stop = start + len(fresh)
            if stop > len(self._inverses):
                rows = max(min(2 * len(self._inverses), self._max_chains), stop, 64)
                grown = np.empty((rows,) + fresh.shape[1:])
                grown[:start] = self._inverses[:start]
                self._inverses = grown
            self._inverses[start:stop] = fresh
            self._slots.update(zip(missing, range(start, stop)))
            slots = [self._slots[name] for name in names]
        return self._inverses[slots]


def _view_tables(view: QPBlockView) -> _ViewTables:
    tables = view.memo.get("banded")
    if tables is None:
        tables = view.memo["banded"] = _ViewTables(view)
    return tables  # type: ignore[no-any-return]


class BandedKKTSolver:
    """Block-tridiagonal factorization of the scaled ADMM KKT system.

    Drop-in for the :func:`scipy.sparse.linalg.splu` object produced by
    ``repro.solvers.qp._factorize``: construction factorizes (once per
    rho vector, exactly like the sparse path) and :meth:`solve` maps a
    stacked right-hand side ``[rhs_x; rhs_nu]`` to ``[x; nu]``.

    Args:
        view: per-period block view of the structure (dense or reduced
            pair layout; the blocks are assembled in whatever coordinates
            the view carries).
        scaled: the Ruiz-scaled problem (used for its diagonal ``P`` and
            for sparse matvecs in the right-hand-side condensation and
            refinement — never sliced).
        a_t: ``scaled.A.T``, which the workspace caches per structure
            (building it per factorization costs more than a matvec at
            this block size).
        d: Ruiz column scaling ``D`` diagonal, shape ``(n,)``.
        e: Ruiz row scaling ``E`` diagonal, shape ``(m,)``.
        sigma: ADMM regularization.
        rho_vec: per-constraint step sizes, shape ``(m,)``.

    Raises:
        ValueError: if the view's dimensions do not match the problem.
    """

    @check_shapes("a_t:(n,m)", "d:(n,)", "e:(m,)", "rho_vec:(m,)")
    def __init__(
        self,
        view: QPBlockView,
        scaled: QPProblem,
        a_t: sp.csr_matrix,
        d: np.ndarray,
        e: np.ndarray,
        sigma: float,
        rho_vec: np.ndarray,
    ) -> None:
        n = view.num_variables
        m = view.num_constraints
        if scaled.num_variables != n or scaled.num_constraints != m:
            raise ValueError(
                f"block view ({n}, {m}) does not match problem "
                f"({scaled.num_variables}, {scaled.num_constraints})"
            )
        sanitize.check_finite("BandedKKTSolver factor input", d, e, rho_vec)
        T = view.num_steps
        L = view.num_datacenters
        V = view.num_locations
        LV = view.pairs_per_step
        elastic = view.elastic

        self._view = view
        self._scaled = scaled
        self._sigma = float(sigma)
        self._rho_vec = np.asarray(rho_vec, dtype=float)
        self._p_diag = np.asarray(scaled.P.diagonal(), dtype=float)
        self._num_steps = T
        self._lv = LV
        self._elastic = elastic

        pair_loc = view.pair_location
        pair_dc = view.pair_datacenter
        coeff_p = view.active_demand_coeff
        self._bin_loc = _view_tables(view).bin_loc

        # Family-major reshapes of the diagonal scalings.
        d_x = d[view.x_slice()].reshape(T, LV)
        d_u = d[view.u_slice()].reshape(T, LV)
        e_dyn = e[view.dynamics_rows()].reshape(T, LV)
        e_dem = e[view.demand_rows()].reshape(T, V)
        e_cap = e[view.capacity_rows()].reshape(T, L)
        e_non = e[view.nonneg_rows()].reshape(T, LV)
        r = self._rho_vec
        r_dyn = r[view.dynamics_rows()].reshape(T, LV)
        r_dem = r[view.demand_rows()].reshape(T, V)
        r_cap = r[view.capacity_rows()].reshape(T, L)
        r_non = r[view.nonneg_rows()].reshape(T, LV)
        self._r_dem = r_dem
        self._r_cap = r_cap

        # Scaled constraint coefficients, straight from the block view.
        a_dyn_x = e_dyn * d_x
        a_dyn_u = -e_dyn * d_u
        a_dyn_xp = np.zeros((T, LV))
        a_dyn_xp[1:] = -e_dyn[1:] * d_x[:-1]
        g_dem = e_dem[:, pair_loc] * coeff_p[None, :] * d_x  # (T, LV)
        g_cap = e_cap[:, pair_dc] * view.server_size * d_x  # (T, LV)
        self._g_dem = g_dem
        self._g_cap = g_cap
        b_non = e_non * d_x
        p_u = self._p_diag[view.u_slice()].reshape(T, LV)

        if elastic:
            d_w = d[view.slack_slice()].reshape(T, V)
            e_slk = e[view.slack_rows()].reshape(T, V)
            r_slk = r[view.slack_rows()].reshape(T, V)
            g_dem_w = e_dem * d_w
            b_slk = e_slk * d_w
        else:
            g_dem_w = b_slk = r_slk = np.zeros((T, 0))

        # Diagonal cross-period couplings (rows of period t, columns the
        # x block of period t-1).
        cxx = r_dyn * a_dyn_x * a_dyn_xp
        cux = r_dyn * a_dyn_u * a_dyn_xp

        # The u-u block of H is diagonal, its x couplings are diagonal
        # (in-period ``cross``, previous-period ``cux``), and the elastic
        # w-w block is diagonal with location-thin x coupling ``wxv``:
        # eliminate both exactly, leaving an LV x LV recursion over x.
        self._du = p_u + self._sigma + r_dyn * a_dyn_u**2
        self._cross = r_dyn * a_dyn_x * a_dyn_u
        self._cux = cux
        if elastic:
            self._dw = self._sigma + r_slk * b_slk**2 + r_dem * g_dem_w**2
            self._wxv = r_dem[:, pair_loc] * g_dem * g_dem_w[:, pair_loc]  # (T, LV)
        else:
            self._dw = np.zeros((T, 0))
            self._wxv = np.zeros((T, LV))
        # sigma > 0 and rho > 0 make the eliminated diagonals strictly
        # positive; the recursions below divide by them freely.
        assert np.all(self._du > 0.0) and np.all(self._dw > 0.0)
        assert np.all(self._rho_vec > 0.0)
        # Reduced cross-period coupling after the u elimination (diagonal).
        self._ctilde = cxx - self._cross * cux / self._du

        # Diagonal of the condensed state blocks; the coupled demand /
        # capacity / slack contributions are scattered per block.
        x_diag = (
            self._sigma
            + r_dyn * a_dyn_x**2
            + r_non * b_non**2
            - self._cross**2 / self._du
        )
        x_diag[:-1] += (
            r_dyn[1:] * a_dyn_xp[1:] ** 2 - self._cux[1:] ** 2 / self._du[1:]
        )
        self._x_diag = x_diag

        # Coupling patterns: within one period, two pairs interact iff
        # they share a location (demand rows, elastic slack) or a data
        # center (capacity rows).  Precomputed once as flat indices into
        # an (LV, LV) block.
        loc_i, loc_j = _coupling_pattern(pair_loc, V)
        dc_i, dc_j = _coupling_pattern(pair_dc, L)
        self._loc_i, self._loc_j = loc_i, loc_j
        self._dc_i, self._dc_j = dc_i, dc_j
        self._idx_loc = loc_i * LV + loc_j
        self._idx_dc = dc_i * LV + dc_j
        self._loc_of = pair_loc[loc_i]
        self._dc_of = pair_dc[dc_i]

        self._factorize_blocks()

        # Hot-loop constants: the eliminated-variable ratios are fixed for
        # the factorization's lifetime.
        self._cross_du = self._cross / self._du
        self._cux_du = np.zeros((T, LV))
        self._cux_du[1:] = self._cux[1:] / self._du[1:]
        if elastic:
            self._wxv_dw = self._wxv / self._dw[:, pair_loc]
        else:
            self._wxv_dw = self._wxv
        self._p_sigma = self._p_diag + self._sigma
        self._a_t = a_t

    def _assemble_block(self, t: int) -> np.ndarray:
        """Dense condensed state block of period ``t`` (without the
        Schur correction from the previous period)."""
        LV = self._lv
        M = np.zeros((LV, LV))
        Mf = M.reshape(-1)
        g = self._g_dem[t]
        Mf[self._idx_loc] += (
            self._r_dem[t][self._loc_of] * g[self._loc_i] * g[self._loc_j]
        )
        gc = self._g_cap[t]
        Mf[self._idx_dc] += (
            self._r_cap[t][self._dc_of] * gc[self._dc_i] * gc[self._dc_j]
        )
        if self._elastic:
            wx = self._wxv[t]
            Mf[self._idx_loc] -= (
                wx[self._loc_i] * wx[self._loc_j] / self._dw[t][self._loc_of]
            )
        M.flat[:: LV + 1] += self._x_diag[t]
        return M

    def _factorize_blocks(self) -> None:
        """Sequential block Cholesky with Schur-complement corrections.

        The per-period inverses are stored explicitly: the recursion needs
        ``M_t^{-1}`` for the Schur correction anyway, and the ADMM hot loop
        then solves each period with one GEMV instead of a pair of
        triangular solves behind scipy call overhead.  A Cholesky
        breakdown propagates (the workspace falls back to the sparse KKT
        path).
        """
        T, LV = self._num_steps, self._lv
        sanitizing = sanitize.enabled()
        minv = np.empty((T, LV, LV))
        corr: np.ndarray | None = None
        with sanitize.guard("BandedKKTSolver factorization"):
            for t in range(T):
                M = self._assemble_block(t)
                if corr is not None:
                    M -= corr
                chol, _ = sla.cho_factor(
                    M, lower=True, overwrite_a=True, check_finite=False
                )
                if sanitizing:
                    sanitize.record_pivot(float(np.min(np.diagonal(chol))))
                inv_l = sla.solve_triangular(
                    chol, np.eye(LV), lower=True, check_finite=False
                )
                s_t = inv_l.T @ inv_l
                minv[t] = s_t
                if t + 1 < T:
                    c = self._ctilde[t + 1]
                    corr = c[:, None] * s_t * c[None, :]
        self._minv = minv
        sanitize.check_finite("BandedKKTSolver factors", minv)

    def _condensed_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``H z = rhs`` with the stored block factors."""
        view = self._view
        T, LV = self._num_steps, self._lv
        half = view.num_x
        fx = rhs[:half].reshape(T, LV).copy()
        fu = rhs[half : 2 * half].reshape(T, LV)
        # Fold the eliminated u (and w) right-hand sides into x.
        fu_du = fu / self._du
        fx -= self._cross * fu_du
        fx[:-1] -= self._cux[1:] * fu_du[1:]
        if self._elastic:
            fw = rhs[2 * half :].reshape(T, -1)
            fw_dw = fw / self._dw
            fx -= self._wxv * fw_dw.take(self._bin_loc)
        # Forward/backward substitution.  The block applies stream the
        # stored inverses from memory, so they run bandwidth-bound:
        # ``dsymv`` on the (symmetric) inverse reads half the matrix a
        # plain GEMV would.  The ``.T`` view is F-contiguous, which BLAS
        # accepts without a copy.
        minv = self._minv
        ctilde = self._ctilde
        w = np.empty((T, LV))
        w[0] = dsymv(1.0, minv[0].T, fx[0], lower=1)
        for t in range(1, T):
            w[t] = dsymv(1.0, minv[t].T, fx[t] - ctilde[t] * w[t - 1], lower=1)
        x = np.empty((T, LV))
        x[T - 1] = w[T - 1]
        for t in range(T - 2, -1, -1):
            x[t] = w[t] - dsymv(1.0, minv[t].T, ctilde[t + 1] * x[t + 1], lower=1)
        # Back-substitute the eliminated variables.
        u = fu_du - self._cross_du * x
        u[1:] -= self._cux_du[1:] * x[:-1]
        out = np.empty(rhs.shape[0])
        out[:half] = x.reshape(-1)
        out[half : 2 * half] = u.reshape(-1)
        if self._elastic:
            wsum = np.bincount(self._bin_loc.ravel(), (self._wxv_dw * x).ravel(), fw.size)
            out[2 * half :] = fw_dw.reshape(-1) - wsum
        return out

    @check_shapes("rhs:(k,)", ret="(k,)")
    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve the quasi-definite KKT system (SuperLU ``solve`` contract).

        Args:
            rhs: stacked right-hand side ``[rhs_x; rhs_nu]``, shape
                ``(n + m,)``.

        Returns:
            The stacked solution ``[x; nu]``, shape ``(n + m,)``.
        """
        sanitize.check_finite("BandedKKTSolver.solve rhs", rhs)
        with sanitize.guard("BandedKKTSolver.solve"):
            out = self._refine_solve(rhs)
        sanitize.check_finite("BandedKKTSolver.solve result", out)
        return out

    def _refine_solve(self, rhs: np.ndarray) -> np.ndarray:
        n = self._view.num_variables
        A = self._scaled.A
        At = self._a_t
        r = self._rho_vec
        b1 = rhs[:n]
        b2 = rhs[n:]
        x = self._condensed_solve(b1 + At @ (r * b2))
        ax = A @ x
        nu = r * (ax - b2)
        scale = max(
            float(np.max(np.abs(b1), initial=0.0)),
            float(np.max(np.abs(b2), initial=0.0)),
            1.0,
        )
        steps = 0
        err = 0.0
        for _ in range(_KKT_REFINE_STEPS):
            r1 = b1 - self._p_sigma * x - At @ nu
            r2 = b2 - ax + nu / r
            err = max(
                float(np.max(np.abs(r1), initial=0.0)),
                float(np.max(np.abs(r2), initial=0.0)),
            )
            if err <= _KKT_REFINE_TOL * scale:
                break
            steps += 1
            dx = self._condensed_solve(r1 + At @ (r * r2))
            adx = A @ dx
            x = x + dx
            ax = ax + adx
            nu = nu + r * (adx - r2)
        sanitize.record_refinement(steps, err / scale)
        return np.concatenate([x, nu])


class BandedActiveSetSystem:
    """A factorized banded active-set KKT system (crossover/polish path).

    Mirrors :class:`repro.solvers.kkt.ActiveSetSystem`: the factorization
    depends only on the structure and the active-set masks — never on
    ``q``/``l``/``u`` — so a workspace caches it across receding-horizon
    data updates and re-solves against fresh vectors.  Build instances
    through :func:`build_banded_active_set_system`.

    Attributes:
        active_lower: boolean mask of rows active at their lower bound.
        active_upper: boolean mask of rows active at their upper bound
            (equality rows folded in, as in the sparse system).
    """

    @check_shapes("active_lower:(m,)", "active_upper:(m,)")
    def __init__(
        self,
        view: QPBlockView,
        active_lower: np.ndarray,
        active_upper: np.ndarray,
    ) -> None:
        self.active_lower = active_lower
        self.active_upper = active_upper
        self._view = view
        T = view.num_steps
        L = view.num_datacenters
        V = view.num_locations
        active = active_lower | active_upper
        self._act_dem = active[view.demand_rows()].reshape(T, V)
        self._act_cap = active[view.capacity_rows()].reshape(T, L)
        self._pinned_x = active[view.nonneg_rows()].reshape(T, view.pairs_per_step)
        if view.elastic:
            self._pinned_w = active[view.slack_rows()].reshape(T, V)
            # Active demand rows containing a *free* slack fix the row's
            # multiplier (= the slack's stationarity), so the row leaves
            # the system; the remaining active demand rows are kept.
            self._dem_known = self._act_dem & ~self._pinned_w
            self._kept_dem = self._act_dem & self._pinned_w
        else:
            self._pinned_w = np.zeros((T, 0), dtype=bool)
            self._dem_known = np.zeros((T, V), dtype=bool)
            self._kept_dem = self._act_dem
        self._free_x = ~self._pinned_x
        self._tables = _view_tables(view)
        self._bin_loc = self._tables.bin_loc
        self._bin_dc = self._tables.bin_dc
        # Filled by _factorize (via the builder).
        self._chain_inv = np.zeros((0, 0, 0))
        self._sdd_inv = np.zeros((0, 0, 0))
        self._has_cap = False
        self._cap_eff_inv = np.zeros((0, 0))
        self._sdc = np.zeros((0, 0, 0, 0))
        self._sdd_inv_sdc = np.zeros((0, 0, 0, 0))

    def _loc_sum(self, a: np.ndarray) -> np.ndarray:
        """Sum a ``(T, P)`` array over each location's pairs: ``(T, V)``."""
        sums = np.bincount(self._bin_loc.ravel(), a.ravel(), self._act_dem.size)
        return sums.reshape(self._act_dem.shape)

    def _dc_sum(self, a: np.ndarray) -> np.ndarray:
        """Sum a ``(T, P)`` array over each center's pairs: ``(T, L)``."""
        sums = np.bincount(self._bin_dc.ravel(), a.ravel(), self._act_cap.size)
        return sums.reshape(self._act_cap.shape)

    def _factorize(self) -> bool:
        """Batched factorization of the reduced saddle system.

        After the ``u`` elimination, the free-``x`` operator ``D`` is
        block diagonal over the pairs: each pair contributes a tiny
        ``T x T`` tridiagonal chain (diagonal ``2c``/``c``, coupling
        ``-c`` between consecutive free periods, identity rows at pinned
        periods).  A chain depends only on the pair's Hessian value and
        free-period pattern, so the view keeps a table of their inverses
        (:class:`_ViewTables`); chains not yet in it are inverted in one
        batched LAPACK call.  A kept demand row ``(t, v)`` touches only
        pairs of location ``v``, and an active capacity row ``(t, l)`` only
        pairs of center ``l``, so the kept-row Schur complement
        ``S = G D^{-1} G'`` splits into ``V`` (and ``L``) independent
        ``T x T`` blocks plus a small dense capacity coupling — again
        batched inversions, no per-period Python loop anywhere.

        Returns ``False`` when the masks violate a structural assumption
        (a kept row with no free support) or a block is singular; the
        caller then falls back to the sparse active-set system.
        """
        view = self._view
        T = view.num_steps
        L = view.num_datacenters
        V = view.num_locations
        coeff = view.active_demand_coeff
        s = view.server_size
        F = self._free_x
        Fd = F.astype(float)
        tt = np.arange(T)

        # Per-pair chains: D[p] is T x T tridiagonal (see _chains), looked
        # up in the view's table of inverses.
        chain_inv = self._tables.chain_inverses(F)
        if chain_inv is None:
            return False
        self._chain_inv = chain_inv

        kd = self._kept_dem  # (T, V)
        kc = self._act_cap  # (T, L)
        # A kept row whose variables are all pinned has no free support;
        # the reduced system would be singular (sparse fallback instead).
        if np.any(kd & (self._loc_sum(Fd * (coeff > 0.0)) < 0.5)):
            return False
        if np.any(kc & (self._dc_sum(Fd) < 1)):
            return False

        # D^{-1} restricted to free periods: the Schur terms of each pair,
        # summed per location (center) over bins ``group * T^2 + cell``.
        FdT = Fd.T
        free_inv = FdT[:, :, None] * FdT[:, None, :] * chain_inv  # (P, T, T)
        loc, dc = view.pair_location, view.pair_datacenter
        cells = np.arange(T * T)

        # Demand-demand Schur blocks, independent per location v.
        kdT = kd.T.astype(float)  # (V, T)
        sdd = np.bincount(
            (loc[:, None] * (T * T) + cells).ravel(),
            ((coeff * coeff)[:, None, None] * free_inv).ravel(),
            V * T * T,
        ).reshape(V, T, T)
        sdd *= kdT[:, :, None] * kdT[:, None, :]
        sdd[:, tt, tt] += 1.0 - kdT
        try:
            self._sdd_inv = np.linalg.inv(sdd)
        except np.linalg.LinAlgError:
            return False
        if not np.all(np.isfinite(self._sdd_inv)):
            return False

        self._has_cap = bool(kc.any())
        if self._has_cap:
            kcT = kc.T.astype(float)  # (L, T)
            # Capacity-capacity blocks, independent per center l...
            scc = (s * s) * np.bincount(
                (dc[:, None] * (T * T) + cells).ravel(), free_inv.ravel(), L * T * T
            ).reshape(L, T, T)
            scc *= kcT[:, :, None] * kcT[:, None, :]
            scc[:, tt, tt] += 1.0 - kcT
            # ... coupled to the demand blocks through shared pairs; each
            # pair is exactly one (location, center) entry.
            sdc = np.zeros((V, T, L, T))
            sdc[loc, :, dc, :] = s * (coeff[:, None, None] * free_inv) * (
                kdT[loc][:, :, None] * kcT[dc][:, None, :]
            )
            self._sdc = sdc
            self._sdd_inv_sdc = np.einsum("vts,vslk->vtlk", self._sdd_inv, sdc)
            cap_eff = np.zeros((L, T, L, T))
            cap_eff[np.arange(L), :, np.arange(L), :] = scc
            cap_eff -= np.einsum("vtlk,vtmj->lkmj", sdc, self._sdd_inv_sdc)
            try:
                self._cap_eff_inv = np.linalg.inv(cap_eff.reshape(L * T, L * T))
            except np.linalg.LinAlgError:
                return False
            if not np.all(np.isfinite(self._cap_eff_inv)):
                return False
        return True

    def _chain_solve(self, r: np.ndarray) -> np.ndarray:
        """Apply ``D^{-1}`` to a ``(T, P)`` right-hand side."""
        return np.einsum("pts,sp->tp", self._chain_inv, r)

    def _solve_reduced(
        self, rx: np.ndarray, rd: np.ndarray, rc: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Solve ``[[D, G'], [G, 0]] [x; nu] = [rx; rd; rc]``.

        ``rx`` is ``(T, P)`` (zero at pinned entries), ``rd`` and ``rc``
        are the kept-row right-hand sides (``(T, V)`` / ``(T, L)``, zero
        off the kept sets).  Returns the solution and the kept
        multipliers ``(x, nu_dem, nu_cap)``.
        """
        view = self._view
        T = view.num_steps
        L = view.num_datacenters
        coeff = view.active_demand_coeff
        s = view.server_size
        kd = self._kept_dem
        kc = self._act_cap
        t1 = self._chain_solve(rx)
        g_d = np.where(kd, self._loc_sum(coeff * t1) - rd, 0.0)
        h_d = np.einsum("vts,vs->vt", self._sdd_inv, g_d.T)  # (V, T)
        if self._has_cap:
            g_c = np.where(kc, s * self._dc_sum(t1) - rc, 0.0)  # (T, L)
            h_c = g_c.T - np.einsum("vtlk,vt->lk", self._sdc, h_d)  # (L, T)
            nu_cap = (self._cap_eff_inv @ h_c.reshape(-1)).reshape(L, T)
            nu_dem = (h_d - np.einsum("vtlk,lk->vt", self._sdd_inv_sdc, nu_cap)).T
            nu_cap = nu_cap.T  # (T, L)
        else:
            nu_dem = h_d.T  # (T, V)
            nu_cap = np.zeros((T, L))
        gt = coeff * nu_dem.take(self._bin_loc) + s * nu_cap.take(self._bin_dc)
        x = t1 - self._chain_solve(gt * self._free_x)
        return x, nu_dem, nu_cap

    def _solve_raw(
        self,
        rhs1: np.ndarray,
        b_dyn: np.ndarray,
        b_dem: np.ndarray,
        b_cap: np.ndarray,
        b_non: np.ndarray,
        b_slk: np.ndarray,
    ) -> tuple[np.ndarray, ...]:
        """Solve ``[[P, A_act'], [A_act, 0]] [z; nu] = [rhs1; b]`` exactly.

        ``b_*`` are family-major bound arrays; entries at inactive rows
        are ignored.  Returns the family-major primal/dual arrays
        ``(x, u, w, nu_dyn, nu_dem, nu_cap, nu_non, nu_slk)``.
        """
        view = self._view
        T = view.num_steps
        V = view.num_locations
        ch = view.control_hessian
        coeff = view.active_demand_coeff
        s = view.server_size
        s1_x, s1_u, s1_w = self._column_families(rhs1)

        xbar = np.where(self._pinned_x, b_non, 0.0)
        if view.elastic:
            wbar = np.where(self._pinned_w, b_slk, 0.0)
            nu_dem_known = np.where(self._dem_known, s1_w, 0.0)
        else:
            wbar = np.zeros((T, 0))
            nu_dem_known = np.zeros((T, V))

        # Reduced stationarity rhs over x (see module docstring): the
        # substituted nu_dyn terms, pinned-neighbour couplings and known
        # demand multipliers all move to the right-hand side.
        rx = s1_x + s1_u + ch * b_dyn
        rx[:-1] -= s1_u[1:] + ch * b_dyn[1:]
        rx[1:] += ch * xbar[:-1]
        rx[:-1] += ch * xbar[1:]
        rx -= coeff * nu_dem_known.take(self._bin_loc)
        # Kept-row rhs: pinned variables drop out as constants.
        rd = b_dem - self._loc_sum(coeff * xbar)
        if view.elastic:
            rd = rd - wbar
        rc = b_cap - s * self._dc_sum(xbar)

        xr, nu_dem_kept, nu_cap_kept = self._solve_reduced(
            np.where(self._free_x, rx, 0.0),
            np.where(self._kept_dem, rd, 0.0),
            np.where(self._act_cap, rc, 0.0),
        )
        x = np.where(self._free_x, xr, xbar)
        nu_dem = np.where(self._kept_dem, nu_dem_kept, nu_dem_known)
        nu_cap = np.where(self._act_cap, nu_cap_kept, 0.0)

        u = x - b_dyn
        u[1:] -= x[:-1]
        nu_dyn = ch * u - s1_u
        if view.elastic:
            # Free slacks close their (active) demand row exactly.
            w = np.where(self._pinned_w, wbar, b_dem - self._loc_sum(coeff * x))
        else:
            w = np.zeros((T, 0))

        # Multipliers of the active bound rows, from the stationarity of
        # the variables they pin.
        stat = self._with_row_terms(nu_dyn, nu_dem, nu_cap)
        stat[:-1] -= nu_dyn[1:]
        nu_non = np.where(self._pinned_x, s1_x - stat, 0.0)
        if view.elastic:
            nu_slk = np.where(self._pinned_w, s1_w - nu_dem, 0.0)
        else:
            nu_slk = np.zeros((T, 0))
        return x, u, w, nu_dyn, nu_dem, nu_cap, nu_non, nu_slk

    def _with_row_terms(
        self, nu_dyn: np.ndarray, nu_dem: np.ndarray, nu_cap: np.ndarray
    ) -> np.ndarray:
        """``nu_dyn`` plus the demand and capacity rows' terms of each
        ``x``'s stationarity, ``(T, P)``."""
        view = self._view
        return (
            nu_dyn
            + view.active_demand_coeff * nu_dem.take(self._bin_loc)
            + (view.server_size * nu_cap).take(self._bin_dc)
        )

    def solve(self, problem: QPProblem) -> tuple[np.ndarray, np.ndarray]:
        """Solve against the problem's current data (sparse-path contract).

        Matches :func:`repro.solvers.kkt.solve_active_set_system`: only
        ``q``/``l``/``u`` enter the right-hand side, the point is the
        unrefined trial point (:meth:`refine` applies the refinement
        pass), and the returned ``y`` is zero off the active set.
        """
        # Degenerate working sets legally produce non-finite iterates here;
        # the caller isfinite-checks and falls back, so opt out of any
        # surrounding sanitize guard.
        with sanitize.tolerant("banded active-set solve"):
            bounds = self._row_families(self._active_bounds(problem))
            return self._stack(self._solve_raw(-problem.q, *bounds))

    @check_shapes("x:(n,)", "y:(m,)", ret=("(n,)", "(m,)"))
    def refine(
        self, problem: QPProblem, x: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One refinement pass against the exact (unregularized) system.

        ``(x, y)`` is the point :meth:`solve` returned on the same data;
        the result is bitwise the point a solve with built-in refinement
        would give.  Matches
        :func:`repro.solvers.kkt.refine_active_set_solution`.
        """
        with sanitize.tolerant("banded active-set refinement"):
            return self._refine(problem, x, y)

    def _refine(
        self, problem: QPProblem, x_full: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        view = self._view
        coeff = view.active_demand_coeff
        ch = view.control_hessian
        s = view.server_size
        b_dyn, b_dem, b_cap, b_non, b_slk = self._row_families(self._active_bounds(problem))
        q_x, q_u, q_w = self._column_families(problem.q)
        x, u, w = self._column_families(x_full)
        nu_dyn, nu_dem, nu_cap, nu_non, nu_slk = self._row_families(y)

        # Every matvec is a closed-form family expression on the view.
        r1_x = -q_x - (self._with_row_terms(nu_dyn, nu_dem, nu_cap) + nu_non)
        r1_x[:-1] += nu_dyn[1:]
        r1_u = -q_u - (ch * u - nu_dyn)
        r1_w = -q_w - (nu_dem + nu_slk) if view.elastic else q_w
        ax_dyn = x - u
        ax_dyn[1:] -= x[:-1]
        r2_dyn = b_dyn - ax_dyn
        row_dem = self._loc_sum(coeff * x)
        if view.elastic:
            row_dem = row_dem + w
        r2_dem = np.where(self._act_dem, b_dem - row_dem, 0.0)
        r2_cap = np.where(self._act_cap, b_cap - s * self._dc_sum(x), 0.0)
        r2_non = np.where(self._pinned_x, b_non - x, 0.0)
        r2_slk = np.where(self._pinned_w, b_slk - w, 0.0) if view.elastic else b_slk

        r1 = np.concatenate([r1_x.reshape(-1), r1_u.reshape(-1), r1_w.reshape(-1)])
        delta = self._solve_raw(r1, r2_dyn, r2_dem, r2_cap, r2_non, r2_slk)
        refined = (x, u, w, nu_dyn, nu_dem, nu_cap, nu_non, nu_slk)
        return self._stack(tuple(part + step for part, step in zip(refined, delta)))

    def _active_bounds(self, problem: QPProblem) -> np.ndarray:
        """Each active row's bound (``l`` at lower, ``u`` at upper), zero at
        inactive rows, shape ``(m,)``."""
        bound = np.where(self.active_lower, problem.l, problem.u)
        return np.where(self.active_lower | self.active_upper, bound, 0.0)

    def _column_families(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Family-major views ``(x, u, w)`` of an ``n``-vector."""
        view = self._view
        T, P, V = view.num_steps, view.pairs_per_step, view.num_locations
        w = z[view.slack_slice()].reshape(T, V) if view.elastic else np.zeros((T, 0))
        return z[view.x_slice()].reshape(T, P), z[view.u_slice()].reshape(T, P), w

    def _row_families(self, rows: np.ndarray) -> tuple[np.ndarray, ...]:
        """Family-major views ``(dynamics, demand, capacity, nonnegativity,
        slack)`` of an ``m``-vector."""
        view = self._view
        T, P = view.num_steps, view.pairs_per_step
        V, L = view.num_locations, view.num_datacenters
        slack = rows[view.slack_rows()].reshape(T, V) if view.elastic else np.zeros((T, 0))
        return (
            rows[view.dynamics_rows()].reshape(T, P),
            rows[view.demand_rows()].reshape(T, V),
            rows[view.capacity_rows()].reshape(T, L),
            rows[view.nonneg_rows()].reshape(T, P),
            slack,
        )

    @staticmethod
    def _stack(parts: tuple[np.ndarray, ...]) -> tuple[np.ndarray, np.ndarray]:
        """The flat ``(x, y)`` of the family-major ``_solve_raw`` parts."""
        x, u, w, nu_dyn, nu_dem, nu_cap, nu_non, nu_slk = parts
        x_full = np.concatenate([x.reshape(-1), u.reshape(-1), w.reshape(-1)])
        y = np.concatenate(
            [
                nu_dyn.reshape(-1),
                nu_dem.reshape(-1),
                nu_cap.reshape(-1),
                nu_non.reshape(-1),
                nu_slk.reshape(-1),
            ]
        )
        return x_full, y


@check_shapes("active_lower:(m,)", "active_upper:(m,)")
def build_banded_active_set_system(
    view: QPBlockView,
    active_lower: np.ndarray,
    active_upper: np.ndarray,
) -> BandedActiveSetSystem | None:
    """Assemble and factorize the banded active-set system for a mask pair.

    Returns ``None`` when the masks violate the structural assumptions
    the exact elimination rests on (an inactive dynamics row, a free
    elastic slack outside any active demand row, a kept row with no free
    support, or a singular saddle block); callers then fall back to the
    sparse :func:`repro.solvers.kkt.build_active_set_system`.
    """
    m = view.num_constraints
    if active_lower.shape != (m,) or active_upper.shape != (m,):
        return None
    active = active_lower | active_upper
    if not np.any(active):
        return None
    # Dynamics rows are equalities: all must be active.
    if not np.all(active[view.dynamics_rows()]):
        return None
    system = BandedActiveSetSystem(view, active_lower, active_upper)
    if view.elastic and np.any(~system._pinned_w & ~system._act_dem):
        # A free slack appearing in no active row has no stationarity
        # anchor; the reduced system would be inconsistent.
        return None
    if not system._factorize():
        return None
    return system
