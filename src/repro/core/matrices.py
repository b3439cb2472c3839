"""Vectorization of the DSPP into the stacked LQ form of Section IV-D.

The finite-horizon DSPP over ``T`` future periods becomes one sparse QP in
the stacked variable ``z = [x_1, ..., x_T, u_0, ..., u_{T-1}]`` where each
``x_t`` and ``u_t`` is an ``(L*V,)`` block in pair-major order::

    minimize    sum_t p_t' x_t + u_t' R u_t
    subject to  x_t = x_{t-1} + u_{t-1}                (dynamics, eq. 2)
                sum_l x_t[l,v] / a_lv >= D_t[v]        (demand, eq. 12)
                s * sum_v x_t[l,v] <= C_l              (capacity, eq. 6/16)
                x_t >= 0

``x_0`` is the (known) current state, so only ``x_1..x_T`` are variables;
the period-0 holding cost ``p_0' x_0`` is a constant and excluded from the
QP (re-added by the cost accounting layer).

When a ``demand_slack_penalty`` is given, the demand constraint becomes
*elastic*: nonnegative slack variables ``w_t[v]`` are appended so that
``sum_l x_t[l,v]/a_lv + w_t[v] >= D_t[v]`` with cost ``penalty * w``.  The
multi-provider best-response dynamics need this — early coordination rounds
can hand a provider a quota below its demand, and the elastic problem stays
solvable while still reporting meaningful capacity duals for the
coordinator to act on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

import numpy as np
import scipy.sparse as sp

from repro.contracts import check_shapes
from repro.core.instance import DSPPInstance

__all__ = [
    "PairIndexer",
    "QPBlockView",
    "StackedQP",
    "StackedQPStructure",
    "build_qp_structure",
    "build_qp_vectors",
    "build_stacked_qp",
    "resolve_sparsify",
    "structure_fingerprint",
    "structure_from_fingerprint",
]


@dataclass(frozen=True)
class PairIndexer:
    """Flat indexing of (data center, location) pairs and time blocks.

    Dense layout: pair ``(l, v)`` sits at flat index ``l * V + v``; time
    block ``t`` of the ``x`` variables starts at ``t * L * V``; the ``u``
    blocks follow all ``x`` blocks.

    Sparsified layout (``active_pairs`` set): only the SLA-usable pairs
    carry variables.  Within a period the active pairs keep their dense
    pair-major *order*, but their flat positions are compacted to
    ``0..nnz-1``, so the closed-form per-pair index helpers are
    unavailable; :meth:`unstack` scatters solutions back to the dense
    ``(T, L, V)`` layout with exact zeros at pruned pairs.
    """

    num_datacenters: int
    num_locations: int
    num_steps: int

    elastic: bool = False
    active_pairs: np.ndarray | None = None

    @property
    def pairs_per_step(self) -> int:
        """Variables per ``x_t`` block: all pairs, or only the active ones."""
        if self.active_pairs is None:
            return self.num_datacenters * self.num_locations
        return int(np.count_nonzero(self.active_pairs))

    @property
    def active_indices(self) -> np.ndarray:
        """Dense flat pair indices of the active pairs, ``(pairs_per_step,)``."""
        cached = self.__dict__.get("_active_indices")
        if cached is None:
            if self.active_pairs is None:
                cached = np.arange(self.num_datacenters * self.num_locations)
            else:
                cached = np.nonzero(self.active_pairs)[0]
            object.__setattr__(self, "_active_indices", cached)
        return cached  # type: ignore[no-any-return]

    @property
    def num_variables(self) -> int:
        base = 2 * self.num_steps * self.pairs_per_step
        if self.elastic:
            base += self.num_steps * self.num_locations
        return base

    def _require_dense(self) -> None:
        if self.active_pairs is not None:
            raise ValueError(
                "per-pair flat indices are only defined for the dense layout; "
                "this indexer is column-sparsified (use unstack/active_indices)"
            )

    def pair(self, datacenter: int, location: int) -> int:
        self._require_dense()
        return datacenter * self.num_locations + location

    def x_index(self, step: int, datacenter: int, location: int) -> int:
        """Flat index of ``x_{step+1}[l, v]`` (step 0 = first future state)."""
        return step * self.pairs_per_step + self.pair(datacenter, location)

    def u_index(self, step: int, datacenter: int, location: int) -> int:
        """Flat index of ``u_step[l, v]``."""
        offset = self.num_steps * self.pairs_per_step
        return offset + step * self.pairs_per_step + self.pair(datacenter, location)

    def slack_index(self, step: int, location: int) -> int:
        """Flat index of the demand slack ``w_step[v]`` (elastic mode only)."""
        if not self.elastic:
            raise ValueError("this layout has no slack variables")
        offset = 2 * self.num_steps * self.pairs_per_step
        return offset + step * self.num_locations + location

    def unstack(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Split a stacked solution into ``(x, u, w)`` arrays.

        ``x`` and ``u`` have shape ``(T, L, V)``; ``w`` (the demand slack)
        has shape ``(T, V)`` and is all zeros for inelastic layouts.  For
        a sparsified layout the pruned entries come back as *exact* 0.0 —
        the unique optimum there (any holding is pure cost) — which keeps
        closed-loop state advances prunable period after period.
        """
        T = self.num_steps
        L, V = self.num_datacenters, self.num_locations
        pairs = self.pairs_per_step
        half = T * pairs
        if self.active_pairs is None:
            x = z[:half].reshape(T, L, V).copy()
            u = z[half : 2 * half].reshape(T, L, V).copy()
        else:
            idx = self.active_indices
            x = np.zeros((T, L * V))
            x[:, idx] = z[:half].reshape(T, pairs)
            x = x.reshape(T, L, V)
            u = np.zeros((T, L * V))
            u[:, idx] = z[half : 2 * half].reshape(T, pairs)
            u = u.reshape(T, L, V)
        if self.elastic:
            w = z[2 * half :].reshape(T, V).copy()
        else:
            w = np.zeros((T, V))
        return x, u, w


@dataclass(frozen=True)
class QPBlockView:
    """Per-time-step block decomposition of the stacked QP structure.

    The stacked KKT system is block-tridiagonal in time: period ``t``'s
    variable group ``[x_t, u_t (, w_t)]`` couples to period ``t-1`` only
    through the dynamics rows ``x_t - x_{t-1} - u_t = b``, and every
    constraint family (dynamics, demand, capacity, nonnegativity, slack)
    is itself block-diagonal over periods.  This view carries the few
    coefficient arrays those blocks are built from — not matrix slices —
    so the banded backend in :mod:`repro.solvers.banded` can assemble its
    per-step factors directly, without ever re-slicing the assembled CSC
    matrices.

    Attributes:
        num_steps: horizon length ``T``.
        num_datacenters: ``L``.
        num_locations: ``V``.
        elastic: whether demand-slack variables ``w_t`` exist.
        server_size: the capacity-row coefficient ``s``.
        demand_coeff: demand-row coefficients ``1/a_lv`` (0 for unusable
            pairs), shape ``(L, V)`` — always dense, regardless of
            sparsification.
        control_hessian: diagonal of ``P`` over each ``u_t`` block
            (``2 c_l`` over the period's pairs), shape ``(pairs_per_step,)``.
        active_pairs: flat boolean mask of the pairs carrying variables
            (``None`` for the dense layout), shape ``(L*V,)``.  The pair
            coordinate helpers (:attr:`pair_datacenter`,
            :attr:`pair_location`, :attr:`active_demand_coeff`) are valid
            for both layouts, which is what lets the banded backend
            assemble its blocks in reduced coordinates unconditionally.
    """

    num_steps: int
    num_datacenters: int
    num_locations: int
    elastic: bool
    server_size: float
    demand_coeff: np.ndarray
    control_hessian: np.ndarray
    active_pairs: np.ndarray | None = None

    def __getstate__(self) -> dict[str, Any]:
        """Pickle everything but :attr:`memo`, so a snapshot's bytes do not
        depend on which solver tables were filled before it."""
        state = dict(self.__dict__)
        state.pop("_memo", None)
        return state

    @property
    def memo(self) -> dict[str, Any]:
        """Per-view scratch tables a solver derives from this view alone
        (the banded active-set builder keeps its chain inverses here).
        Never pickled; a restored view starts with an empty memo."""
        cached = self.__dict__.get("_memo")
        if cached is None:
            cached = {}
            object.__setattr__(self, "_memo", cached)
        return cached  # type: ignore[no-any-return]

    @property
    def pairs_per_step(self) -> int:
        if self.active_pairs is None:
            return self.num_datacenters * self.num_locations
        return int(np.count_nonzero(self.active_pairs))

    @property
    def active_indices(self) -> np.ndarray:
        """Dense flat pair indices of the active pairs, ``(pairs_per_step,)``."""
        cached = self.__dict__.get("_active_indices")
        if cached is None:
            if self.active_pairs is None:
                cached = np.arange(self.num_datacenters * self.num_locations)
            else:
                cached = np.nonzero(self.active_pairs)[0]
            object.__setattr__(self, "_active_indices", cached)
        return cached  # type: ignore[no-any-return]

    @property
    def pair_datacenter(self) -> np.ndarray:
        """Data-center coordinate of each active pair, ``(pairs_per_step,)``."""
        cached = self.__dict__.get("_pair_datacenter")
        if cached is None:
            cached = self.active_indices // self.num_locations
            object.__setattr__(self, "_pair_datacenter", cached)
        return cached  # type: ignore[no-any-return]

    @property
    def pair_location(self) -> np.ndarray:
        """Location coordinate of each active pair, ``(pairs_per_step,)``."""
        cached = self.__dict__.get("_pair_location")
        if cached is None:
            cached = self.active_indices % self.num_locations
            object.__setattr__(self, "_pair_location", cached)
        return cached  # type: ignore[no-any-return]

    @property
    def active_demand_coeff(self) -> np.ndarray:
        """``demand_coeff`` gathered onto the active pairs, ``(pairs_per_step,)``."""
        cached = self.__dict__.get("_active_demand_coeff")
        if cached is None:
            cached = self.demand_coeff.reshape(-1)[self.active_indices]
            object.__setattr__(self, "_active_demand_coeff", cached)
        return cached  # type: ignore[no-any-return]

    @property
    def num_x(self) -> int:
        """Total number of ``x`` variables (== number of ``u`` variables)."""
        return self.num_steps * self.pairs_per_step

    @property
    def num_slack(self) -> int:
        return self.num_steps * self.num_locations if self.elastic else 0

    @property
    def num_variables(self) -> int:
        return 2 * self.num_x + self.num_slack

    @property
    def step_width(self) -> int:
        """Variables per period: ``x_t``, ``u_t`` and (elastic) ``w_t``."""
        return 2 * self.pairs_per_step + (self.num_locations if self.elastic else 0)

    # -- row-family offsets (match the assembled ``A`` exactly) ----------
    @property
    def dynamics_row_offset(self) -> int:
        return 0

    @property
    def demand_row_offset(self) -> int:
        return self.num_steps * self.pairs_per_step

    @property
    def capacity_row_offset(self) -> int:
        return self.demand_row_offset + self.num_steps * self.num_locations

    @property
    def nonneg_row_offset(self) -> int:
        return self.capacity_row_offset + self.num_steps * self.num_datacenters

    @property
    def slack_row_offset(self) -> int:
        return self.nonneg_row_offset + self.num_x

    @property
    def num_constraints(self) -> int:
        return self.slack_row_offset + self.num_slack

    # -- per-period column/row slices ------------------------------------
    def x_slice(self, step: int) -> slice:
        pairs = self.pairs_per_step
        return slice(step * pairs, (step + 1) * pairs)

    def u_slice(self, step: int) -> slice:
        offset = self.num_x
        pairs = self.pairs_per_step
        return slice(offset + step * pairs, offset + (step + 1) * pairs)

    def slack_slice(self, step: int) -> slice:
        offset = 2 * self.num_x
        V = self.num_locations
        return slice(offset + step * V, offset + (step + 1) * V)

    def dynamics_rows(self, step: int) -> slice:
        pairs = self.pairs_per_step
        return slice(step * pairs, (step + 1) * pairs)

    def demand_rows(self, step: int) -> slice:
        V = self.num_locations
        offset = self.demand_row_offset
        return slice(offset + step * V, offset + (step + 1) * V)

    def capacity_rows(self, step: int) -> slice:
        L = self.num_datacenters
        offset = self.capacity_row_offset
        return slice(offset + step * L, offset + (step + 1) * L)

    def nonneg_rows(self, step: int) -> slice:
        pairs = self.pairs_per_step
        offset = self.nonneg_row_offset
        return slice(offset + step * pairs, offset + (step + 1) * pairs)

    def slack_rows(self, step: int) -> slice:
        V = self.num_locations
        offset = self.slack_row_offset
        return slice(offset + step * V, offset + (step + 1) * V)

    def shift_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """Columns and rows of periods ``1..T-1``, in the ``(T-1)``-period layout.

        A window that keeps its end and drops its first period is this
        structure with ``num_steps - 1``: its period ``t`` is period
        ``t + 1`` here, in every variable family (``x``, ``u``, ``w``) and
        every row family (dynamics, demand, capacity, nonnegativity,
        slack).  Entry ``i`` of each array is the index *in this layout*
        of column (row) ``i`` of the shorter one, so ``v[columns]``
        restricts a vector of this problem to the next window.

        Raises:
            ValueError: if the horizon has a single period.
        """
        T = self.num_steps
        if T < 2:
            raise ValueError("a one-period horizon has no later periods to keep")
        pairs, L, V = self.pairs_per_step, self.num_datacenters, self.num_locations

        def later(offset: int, width: int) -> np.ndarray:
            return np.arange(offset + width, offset + T * width)

        columns = [later(0, pairs), later(self.num_x, pairs)]
        rows = [
            later(self.dynamics_row_offset, pairs),
            later(self.demand_row_offset, V),
            later(self.capacity_row_offset, L),
            later(self.nonneg_row_offset, pairs),
        ]
        if self.elastic:
            columns.append(later(2 * self.num_x, V))
            rows.append(later(self.slack_row_offset, V))
        return np.concatenate(columns), np.concatenate(rows)


@dataclass(frozen=True)
class StackedQP:
    """The assembled sparse QP plus the metadata to interpret its solution.

    Attributes:
        P, q, A, l, u: the QP data (see :mod:`repro.solvers.qp`).
        indexer: variable layout.
        constant_cost: the ``p_0' x_0`` holding cost of the current period,
            excluded from ``q`` but part of the reported objective.
        demand_row_offset: first row of the demand constraints in ``A``.
        capacity_row_offset: first row of the capacity constraints.
        nonneg_row_offset: first row of the ``x >= 0`` constraints.
    """

    P: sp.csc_matrix
    q: np.ndarray
    A: sp.csc_matrix
    l: np.ndarray
    u: np.ndarray
    indexer: PairIndexer
    constant_cost: float
    demand_row_offset: int
    capacity_row_offset: int
    nonneg_row_offset: int

    def capacity_duals(self, y: np.ndarray) -> np.ndarray:
        """Extract the capacity-constraint duals ``lambda_l`` per step.

        Args:
            y: the full dual vector of the QP solution.

        Returns:
            Array of shape ``(T, L)``; nonnegative (upper-bound multipliers).
        """
        T = self.indexer.num_steps
        L = self.indexer.num_datacenters
        rows = y[self.capacity_row_offset : self.capacity_row_offset + T * L]
        return np.maximum(rows, 0.0).reshape(T, L)


@dataclass(frozen=True)
class StackedQPStructure:
    """The data-independent half of the stacked QP.

    ``P`` and ``A`` depend only on the instance *structure* — dimensions,
    SLA coefficients, reconfiguration weights, server size and the horizon
    length — never on the per-period data (demand/price forecasts, the
    current state ``x_0`` or the capacity vector), all of which live in the
    ``q``/``l``/``u`` vectors produced by :func:`build_qp_vectors`.  That
    split is what lets a persistent solver workspace reuse its cached
    equilibration and KKT factorization across receding-horizon solves.

    Attributes:
        P, A: the QP matrices (see :mod:`repro.solvers.qp`).
        indexer: variable layout.
        demand_row_offset: first row of the demand constraints in ``A``.
        capacity_row_offset: first row of the capacity constraints.
        nonneg_row_offset: first row of the ``x >= 0`` constraints.
        fingerprint: hashable identity of everything baked into ``P``/``A``
            (compare with :func:`structure_fingerprint` to decide whether a
            cached structure is reusable).
        blocks: the per-time-step :class:`QPBlockView` of the same data,
            consumed by the block-banded KKT backend.
    """

    P: sp.csc_matrix
    A: sp.csc_matrix
    indexer: PairIndexer
    demand_row_offset: int
    capacity_row_offset: int
    nonneg_row_offset: int
    fingerprint: tuple[object, ...]
    blocks: QPBlockView


def structure_fingerprint(
    instance: DSPPInstance, num_steps: int, elastic: bool, sparsify: bool = False
) -> tuple[object, ...]:
    """Hashable identity of the ``(P, A)`` structure a solve would build.

    Two solves whose fingerprints match can share one
    :class:`StackedQPStructure` (and therefore one cached factorization):
    only ``q``/``l``/``u`` differ between them.  Capacities and the initial
    state are deliberately *excluded* — they enter the bounds vectors only,
    so quota swaps and receding-horizon state advances are vector-only
    updates.

    ``sparsify`` — and, when set, the usable-pair mask itself — is part of
    the identity, so a sparsified structure can never collide with the
    dense structure of the same instance in a workspace cache.

    The instance-side material is memoized on the (frozen) instance via
    :meth:`DSPPInstance.structure_key`, so a receding-horizon loop that
    advances the state every period never re-hashes the SLA matrix.
    """
    L, V, size, recon_bytes, sla_bytes = instance.structure_key()
    mask_bytes = instance.usable_pairs.tobytes() if sparsify else None
    return (
        L,
        V,
        int(num_steps),
        bool(elastic),
        size,
        recon_bytes,
        sla_bytes,
        bool(sparsify),
        mask_bytes,
    )


def structure_from_fingerprint(fingerprint: tuple[object, ...]) -> StackedQPStructure:
    """Rebuild the structure a fingerprint identifies.

    A fingerprint names every input :func:`build_qp_structure` reads —
    dimensions, horizon, elastic and sparsify flags, server size and the
    raw bytes of the ``float64`` reconfiguration weights and SLA matrix —
    so the rebuild is bit for bit the structure that produced it.  This is
    what lets a pickled :class:`~repro.core.dspp.DSPPWorkspace` store the
    fingerprint instead of ``P``, ``A`` and the block view.

    Raises:
        ValueError: if the fingerprint does not describe a valid instance,
            or the rebuilt structure's fingerprint differs from it (for
            example, weights that were not ``float64``).
    """
    L, V, T, elastic, size, recon_bytes, sla_bytes, sparsify, _mask = fingerprint
    assert isinstance(L, int) and isinstance(V, int) and isinstance(T, int)
    assert isinstance(recon_bytes, bytes) and isinstance(sla_bytes, bytes)
    assert isinstance(size, float)
    instance = DSPPInstance(
        datacenters=tuple(str(l) for l in range(L)),
        locations=tuple(str(v) for v in range(V)),
        sla_coefficients=np.frombuffer(sla_bytes).reshape(L, V).copy(),
        reconfiguration_weights=np.frombuffer(recon_bytes).copy(),
        capacities=np.ones(L),
        initial_state=np.zeros((L, V)),
        server_size=size,
    )
    structure = build_qp_structure(
        instance, T, elastic=bool(elastic), sparsify=bool(sparsify)
    )
    if structure.fingerprint != fingerprint:
        raise ValueError("the fingerprint does not round-trip through a rebuild")
    # Keep the caller's fingerprint object: an unpickled one shares its
    # bytes with the instance's memoized structure key, and a re-pickle
    # must share them the same way.
    return replace(structure, fingerprint=fingerprint)


def resolve_sparsify(instance: DSPPInstance, mode: str) -> bool:
    """Decide whether column sparsification applies to ``instance``.

    Pruning the variables of SLA-unusable pairs is *exact* only when the
    initial state is identically zero there: the strictly convex
    reconfiguration cost then forces ``u = x = 0`` at every pruned pair in
    the dense optimum, and :meth:`PairIndexer.unstack` writes those exact
    zeros back, so closed-loop state advances stay prunable forever.

    Args:
        instance: the problem data of the solve about to run.
        mode: :attr:`repro.solvers.qp.QPSettings.sparsify_columns` —
            ``"auto"`` prunes when exact and falls back to dense otherwise;
            ``"on"`` demands pruning; ``"off"`` never prunes.

    Returns:
        Whether to build the sparsified structure.

    Raises:
        ValueError: on an unknown mode; with ``mode="on"`` when the
            instance has no prunable pair support for an exact reduction
            (nonzero initial state at an unusable pair).
    """
    if mode not in ("auto", "on", "off"):
        raise ValueError(f"sparsify_columns must be 'auto', 'on' or 'off', got {mode!r}")
    if mode == "off":
        return False
    usable = instance.usable_pairs
    if bool(usable.all()):
        # Nothing to prune: the dense layout *is* the reduced layout, so
        # keep the (bitwise-identical) dense code path even under "on".
        return False
    if np.count_nonzero(instance.initial_state[~usable]):
        if mode == "on":
            raise ValueError(
                "sparsify_columns='on' requires a zero initial state at every "
                "SLA-unusable pair (pruning their columns would otherwise "
                "change the solution); zero the state or use 'auto'/'off'"
            )
        return False
    return True


def build_qp_structure(
    instance: DSPPInstance,
    num_steps: int,
    elastic: bool = False,
    sparsify: bool = False,
) -> StackedQPStructure:
    """Assemble the sparse ``P`` and ``A`` for ``num_steps`` future periods.

    Args:
        instance: static problem data (state and capacities are unused).
        num_steps: horizon length ``T`` (>= 1).
        elastic: whether demand slack variables are appended.
        sparsify: prune the columns of SLA-unusable pairs, shrinking every
            per-period block from ``L*V`` to the number of usable pairs.
            Callers should gate this through :func:`resolve_sparsify`,
            which checks the exactness precondition (zero initial state at
            pruned pairs — enforced again, per solve, by
            :func:`build_qp_vectors`).

    Returns:
        The :class:`StackedQPStructure`.

    Raises:
        ValueError: if ``num_steps < 1``.
    """
    L, V = instance.num_datacenters, instance.num_locations
    T = int(num_steps)
    if T < 1:
        raise ValueError("need at least one future period")

    active = instance.usable_pairs.reshape(-1) if sparsify else None
    indexer = PairIndexer(
        num_datacenters=L,
        num_locations=V,
        num_steps=T,
        elastic=elastic,
        active_pairs=active,
    )
    n_pairs = indexer.pairs_per_step
    n_vars = indexer.num_variables
    half = T * n_pairs
    n_slack = T * V if elastic else 0
    act_idx = indexer.active_indices

    # Quadratic cost: u_t' R u_t with R = diag(c_l) per pair -> P_uu = 2R.
    recon = np.repeat(instance.reconfiguration_weights, V)  # (L*V,) pair-major
    recon_active = recon if active is None else recon[act_idx]
    p_diag = np.concatenate(
        [np.zeros(half), np.tile(2.0 * recon_active, T), np.zeros(n_slack)]
    )
    P = sp.diags(p_diag, format="csc")

    coeff = instance.demand_coefficients  # (L, V), zeros for unusable pairs

    # One COO pass over every constraint family; each family is a closed-form
    # index pattern, so there are no per-row Python loops.
    row_parts: list[np.ndarray] = []
    col_parts: list[np.ndarray] = []
    val_parts: list[np.ndarray] = []
    t_idx = np.arange(T)

    # Dynamics: x_t - x_{t-1} - u_{t-1} = 0  (x_0 constant moves to rhs).
    x_all = np.arange(half)
    row_parts += [x_all, np.arange(n_pairs, half), x_all]
    col_parts += [x_all, np.arange(half - n_pairs), half + x_all]
    val_parts += [np.ones(half), -np.ones(half - n_pairs), -np.ones(half)]
    demand_row_offset = half

    # Demand: sum_l coeff[l, v] * x_t[l, v] (+ w_t[v] if elastic) >= D_t[v].
    # The usable pairs (coeff > 0, exact) ARE the active pairs, in the same
    # pair-major order, so in the sparsified layout the demand columns of
    # period t are simply the contiguous block t*n_pairs..(t+1)*n_pairs.
    if active is None:
        dem_l, dem_v = np.nonzero(coeff > 0.0)
        row_parts.append(
            (demand_row_offset + t_idx[:, None] * V + dem_v[None, :]).reshape(-1)
        )
        col_parts.append(
            (t_idx[:, None] * n_pairs + (dem_l * V + dem_v)[None, :]).reshape(-1)
        )
        val_parts.append(np.tile(coeff[dem_l, dem_v], T))
    else:
        pair_loc = act_idx % V
        row_parts.append(
            (demand_row_offset + t_idx[:, None] * V + pair_loc[None, :]).reshape(-1)
        )
        col_parts.append(x_all)
        val_parts.append(np.tile(coeff.reshape(-1)[act_idx], T))
    if elastic:
        row_parts.append(demand_row_offset + np.arange(T * V))
        col_parts.append(2 * half + np.arange(n_slack))
        val_parts.append(np.ones(n_slack))
    capacity_row_offset = demand_row_offset + T * V

    # Capacity: s * sum_v x_t[l, v] <= C_l.  All L rows per period survive
    # sparsification (a data center whose pairs are all pruned keeps an
    # empty — vacuous — row, so the row-family offsets never move).
    if active is None:
        row_parts.append(np.repeat(capacity_row_offset + np.arange(T * L), V))
    else:
        pair_dc = act_idx // V
        row_parts.append(
            (capacity_row_offset + t_idx[:, None] * L + pair_dc[None, :]).reshape(-1)
        )
    col_parts.append(x_all)
    val_parts.append(np.full(half, float(instance.server_size)))
    nonneg_row_offset = capacity_row_offset + T * L

    # Nonnegativity of x and of the slack (u is free).
    row_parts.append(nonneg_row_offset + np.arange(half))
    col_parts.append(x_all)
    val_parts.append(np.ones(half))
    if elastic:
        row_parts.append(nonneg_row_offset + half + np.arange(n_slack))
        col_parts.append(2 * half + np.arange(n_slack))
        val_parts.append(np.ones(n_slack))

    num_rows = nonneg_row_offset + half + n_slack
    A = sp.coo_matrix(
        (
            np.concatenate(val_parts),
            (np.concatenate(row_parts), np.concatenate(col_parts)),
        ),
        shape=(num_rows, n_vars),
    ).tocsc()

    blocks = QPBlockView(
        num_steps=T,
        num_datacenters=L,
        num_locations=V,
        elastic=elastic,
        server_size=float(instance.server_size),
        demand_coeff=coeff,
        control_hessian=2.0 * recon_active,
        active_pairs=active,
    )

    return StackedQPStructure(
        P=P,
        A=A,
        indexer=indexer,
        demand_row_offset=demand_row_offset,
        capacity_row_offset=capacity_row_offset,
        nonneg_row_offset=nonneg_row_offset,
        fingerprint=structure_fingerprint(instance, T, elastic, sparsify=sparsify),
        blocks=blocks,
    )


@check_shapes("demand:(V,T)", "prices:(L,T)", ret=("(n,)", "(m,)", "(m,)"))
def build_qp_vectors(
    structure: StackedQPStructure,
    instance: DSPPInstance,
    demand: np.ndarray,
    prices: np.ndarray,
    demand_slack_penalty: float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assemble the per-step data vectors ``(q, l, u)`` for a structure.

    This is the cheap ``O(n + m)`` half of the stacked QP: demand and price
    forecasts, the current state ``x_0`` and the capacity vector enter only
    here, so a persistent workspace can absorb them as a vector-only
    ``update()``.

    Args:
        structure: the matching :class:`StackedQPStructure`.
        instance: static problem data (supplies ``x_0`` and capacities).
        demand: forecast demand ``D_t`` for ``t = 1..T``, shape ``(V, T)``.
        prices: per-server prices ``p_t`` for ``t = 1..T``, shape ``(L, T)``.
        demand_slack_penalty: the elastic shortfall penalty; must be given
            iff the structure was built elastic.

    Returns:
        ``(q, l, u)`` ready for the solver.

    Raises:
        ValueError: on shape mismatches, negative demand/prices, or a slack
            penalty inconsistent with the structure.
    """
    demand = np.asarray(demand, dtype=float)
    prices = np.asarray(prices, dtype=float)
    indexer = structure.indexer
    L, V, T = indexer.num_datacenters, indexer.num_locations, indexer.num_steps
    if demand.shape != (V, T):
        raise ValueError(f"demand must be ({V}, {T}), got {demand.shape}")
    if prices.shape != (L, T):
        raise ValueError(f"prices must be ({L}, {T}), got {prices.shape}")
    if np.any(demand < 0):
        raise ValueError("demand must be nonnegative")
    if np.any(prices < 0):
        raise ValueError("prices must be nonnegative")
    if demand_slack_penalty is not None and demand_slack_penalty <= 0:
        raise ValueError(
            f"demand_slack_penalty must be positive, got {demand_slack_penalty}"
        )
    if (demand_slack_penalty is not None) != indexer.elastic:
        raise ValueError(
            "demand_slack_penalty must be given exactly when the structure "
            "was built elastic"
        )

    n_pairs = indexer.pairs_per_step
    n_vars = indexer.num_variables
    half = T * n_pairs
    n_slack = T * V if indexer.elastic else 0
    active = indexer.active_pairs

    # Linear cost: p_t^l on every x_t[l, v]; the shortfall penalty on slack.
    # ``prices.T`` is horizon-major (T, L); one axis-1 repeat writes every
    # period's pair-major price block at once (sparsified: a per-pair
    # data-center gather, same values).
    q = np.zeros(n_vars)
    if active is None:
        q[:half] = np.repeat(prices.T, V, axis=1).reshape(-1)
    else:
        q[:half] = prices.T[:, indexer.active_indices // V].reshape(-1)
    if indexer.elastic:
        q[2 * half :] = demand_slack_penalty

    # Bounds, written family-by-family into preallocated arrays (no
    # per-step concatenation).  Row offsets match the assembled ``A``.
    demand_rows = slice(half, half + T * V)
    capacity_rows = slice(half + T * V, half + T * V + T * L)
    num_rows = 2 * half + T * V + T * L + n_slack
    l_vec = np.empty(num_rows)
    u_vec = np.empty(num_rows)

    # Dynamics rhs (equality): x_0 enters the t = 0 block only.
    l_vec[:half] = 0.0
    x0_flat = instance.initial_state.reshape(-1)
    if active is None:
        l_vec[:n_pairs] = x0_flat
    else:
        # Exactness guard, re-checked per solve: pruning is only valid when
        # the pruned pairs start (and therefore stay) at exactly zero.
        if np.count_nonzero(x0_flat[~active]):
            raise ValueError(
                "sparsified structure with a nonzero initial state at a "
                "pruned (SLA-unusable) pair; rebuild dense "
                "(sparsify_columns='off'/'auto') or zero that state"
            )
        l_vec[:n_pairs] = x0_flat[indexer.active_indices]
    u_vec[:half] = l_vec[:half]
    # Demand lower bounds, horizon-major: row t*V + v = demand[v, t].
    l_vec[demand_rows] = demand.T.reshape(-1)
    u_vec[demand_rows] = np.inf
    # Capacity upper bounds: row t*L + l = C_l.
    l_vec[capacity_rows] = -np.inf
    u_vec[capacity_rows] = np.tile(instance.capacities, T)
    # Nonnegativity of x and (elastic) slack.
    l_vec[capacity_rows.stop :] = 0.0
    u_vec[capacity_rows.stop :] = np.inf
    return q, l_vec, u_vec


@check_shapes("demand:(V,T)", "prices:(L,T)")
def build_stacked_qp(
    instance: DSPPInstance,
    demand: np.ndarray,
    prices: np.ndarray,
    demand_slack_penalty: float | None = None,
) -> StackedQP:
    """Assemble the sparse QP for ``T`` future periods.

    Composes :func:`build_qp_structure` (the ``P``/``A`` patterns) with
    :func:`build_qp_vectors` (the per-step data); callers that solve many
    same-structure instances should use the two halves directly through a
    :class:`repro.core.dspp.DSPPWorkspace` instead.

    Args:
        instance: static problem data (including the current state ``x_0``).
        demand: forecast demand ``D_t`` for ``t = 1..T``, shape ``(V, T)``.
        prices: per-server prices ``p_t`` for ``t = 1..T``, shape ``(L, T)``.
            (The price paid *during* period ``t`` for servers held then.)
        demand_slack_penalty: if given (> 0), demand constraints become
            elastic with this linear per-unit shortfall penalty.

    Returns:
        The :class:`StackedQP`.

    Raises:
        ValueError: on shape mismatches, negative demand/prices, or a
            non-positive slack penalty.
    """
    demand = np.asarray(demand, dtype=float)
    L, V = instance.num_datacenters, instance.num_locations
    if demand.ndim != 2 or demand.shape[0] != V:
        raise ValueError(f"demand must be ({V}, T), got {demand.shape}")
    T = demand.shape[1]
    elastic = demand_slack_penalty is not None
    structure = build_qp_structure(instance, T, elastic=elastic)
    q, l_vec, u_vec = build_qp_vectors(
        structure, instance, demand, prices, demand_slack_penalty=demand_slack_penalty
    )
    return StackedQP(
        P=structure.P,
        q=q,
        A=structure.A,
        l=l_vec,
        u=u_vec,
        indexer=structure.indexer,
        constant_cost=0.0,
        demand_row_offset=structure.demand_row_offset,
        capacity_row_offset=structure.capacity_row_offset,
        nonneg_row_offset=structure.nonneg_row_offset,
    )
