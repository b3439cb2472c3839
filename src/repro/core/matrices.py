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

Where every column and row sits is described by one object, the
:class:`QPBlockView`.  Its pair mask is the full mask (every pair carries
variables) unless :func:`prunes_unusable_pairs` drops the SLA-unusable
pairs, which it does exactly when that cannot change the optimum.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Any

import numpy as np
import scipy.sparse as sp

from repro.contracts import check_shapes
from repro.core.instance import DSPPInstance

__all__ = [
    "QPBlockView",
    "StackedQP",
    "StackedQPStructure",
    "build_qp_structure",
    "build_qp_vectors",
    "build_stacked_qp",
    "prunes_unusable_pairs",
    "structure_fingerprint",
    "structure_from_fingerprint",
]


def _span(indices: slice) -> np.ndarray:
    """The indices of a contiguous slice, as an array."""
    return np.arange(indices.start, indices.stop)


@dataclass(frozen=True)
class QPBlockView:
    """The layout of the stacked QP: where every column and row sits.

    Columns come in three families, each period-major: ``x_1..x_T``, then
    ``u_0..u_{T-1}``, then (elastic only) ``w_1..w_T``.  Each ``x_t`` and
    ``u_t`` block holds one variable per *active* pair — the pairs of
    :attr:`active_pairs`, in pair-major ``(l, v)`` order — and each
    ``w_t`` one per location.  Rows come in five families: dynamics (one
    per active pair and period), demand (``V`` per period), capacity
    (``L`` per period), nonnegativity of ``x``, and (elastic)
    nonnegativity of ``w``.  The full mask is the dense layout; a pruned
    mask drops the SLA-unusable pairs' columns and their dynamics and
    nonnegativity rows, while the demand and capacity families keep every
    row.

    The stacked KKT system is block-tridiagonal in time: period ``t``'s
    variable group ``[x_t, u_t (, w_t)]`` couples to period ``t-1`` only
    through the dynamics rows ``x_t - x_{t-1} - u_t = b``, and every
    constraint family is itself block-diagonal over periods.  This view
    carries the few coefficient arrays those blocks are built from — not
    matrix slices — so the banded backend in :mod:`repro.solvers.banded`
    can assemble its per-step factors directly, without ever re-slicing the
    assembled CSC matrices.

    Attributes:
        num_steps: horizon length ``T``.
        num_datacenters: ``L``.
        num_locations: ``V``.
        elastic: whether demand-slack variables ``w_t`` exist.
        server_size: the capacity-row coefficient ``s``.
        demand_coeff: demand-row coefficients ``1/a_lv`` (0 for unusable
            pairs), shape ``(L, V)`` — over every pair, whatever the mask.
        control_hessian: diagonal of ``P`` over each ``u_t`` block
            (``2 c_l`` over the period's pairs), shape ``(pairs_per_step,)``.
        active_pairs: flat boolean mask of the pairs carrying variables,
            shape ``(L*V,)``.
    """

    num_steps: int
    num_datacenters: int
    num_locations: int
    elastic: bool
    server_size: float
    demand_coeff: np.ndarray
    control_hessian: np.ndarray
    active_pairs: np.ndarray

    def __getstate__(self) -> dict[str, Any]:
        """Pickle everything but :attr:`memo`, so a snapshot's bytes do not
        depend on which solver tables were filled before it."""
        state = dict(self.__dict__)
        state.pop("memo", None)
        return state

    # The layout is read on every solve and crossover step, so each derived
    # quantity is computed once per view (``cached_property`` stores it in
    # the instance dict, which a frozen dataclass still has).
    @cached_property
    def memo(self) -> dict[str, Any]:
        """Per-view scratch tables a solver derives from this view alone
        (the banded active-set builder keeps its chain inverses here).
        Never pickled; a restored view starts with an empty memo."""
        return {}

    @cached_property
    def active_indices(self) -> np.ndarray:
        """Flat pair index ``l * V + v`` of each active pair, ``(pairs_per_step,)``."""
        return np.nonzero(self.active_pairs)[0]

    @cached_property
    def pairs_per_step(self) -> int:
        """Variables per ``x_t`` block: the number of active pairs."""
        return int(self.active_indices.size)

    @cached_property
    def pair_datacenter(self) -> np.ndarray:
        """Data-center coordinate of each active pair, ``(pairs_per_step,)``."""
        return self.active_indices // self.num_locations

    @cached_property
    def pair_location(self) -> np.ndarray:
        """Location coordinate of each active pair, ``(pairs_per_step,)``."""
        return self.active_indices % self.num_locations

    @cached_property
    def active_demand_coeff(self) -> np.ndarray:
        """``demand_coeff`` gathered onto the active pairs, ``(pairs_per_step,)``."""
        return self.demand_coeff.reshape(-1)[self.active_indices]

    @cached_property
    def _scatter(self) -> np.ndarray:
        """Where each entry of an ``x``/``u`` family lands in ``(T, L*V)``."""
        pairs = self.num_datacenters * self.num_locations
        return (np.arange(self.num_steps)[:, None] * pairs + self.active_indices).reshape(-1)

    @cached_property
    def num_x(self) -> int:
        """Total number of ``x`` variables (== number of ``u`` variables)."""
        return self.num_steps * self.pairs_per_step

    @cached_property
    def num_slack(self) -> int:
        return self.num_steps * self.num_locations if self.elastic else 0

    @cached_property
    def num_variables(self) -> int:
        return 2 * self.num_x + self.num_slack

    # -- where each row family starts ------------------------------------
    @cached_property
    def demand_row_offset(self) -> int:
        return self.num_x

    @cached_property
    def capacity_row_offset(self) -> int:
        return self.demand_row_offset + self.num_steps * self.num_locations

    @cached_property
    def nonneg_row_offset(self) -> int:
        return self.capacity_row_offset + self.num_steps * self.num_datacenters

    @cached_property
    def slack_row_offset(self) -> int:
        return self.nonneg_row_offset + self.num_x

    @cached_property
    def num_constraints(self) -> int:
        return self.slack_row_offset + self.num_slack

    # -- column and row families: period ``step``, or every period -------
    def _family(self, start: int, width: int, step: int | None) -> slice:
        if step is None:
            return slice(start, start + self.num_steps * width)
        return slice(start + step * width, start + (step + 1) * width)

    def _slack_width(self) -> int:
        if not self.elastic:
            raise ValueError("this layout has no slack variables")
        return self.num_locations

    def x_slice(self, step: int | None = None) -> slice:
        return self._family(0, self.pairs_per_step, step)

    def u_slice(self, step: int | None = None) -> slice:
        return self._family(self.num_x, self.pairs_per_step, step)

    def slack_slice(self, step: int | None = None) -> slice:
        return self._family(2 * self.num_x, self._slack_width(), step)

    def dynamics_rows(self, step: int | None = None) -> slice:
        return self._family(0, self.pairs_per_step, step)

    def demand_rows(self, step: int | None = None) -> slice:
        return self._family(self.demand_row_offset, self.num_locations, step)

    def capacity_rows(self, step: int | None = None) -> slice:
        return self._family(self.capacity_row_offset, self.num_datacenters, step)

    def nonneg_rows(self, step: int | None = None) -> slice:
        return self._family(self.nonneg_row_offset, self.pairs_per_step, step)

    def slack_rows(self, step: int | None = None) -> slice:
        return self._family(self.slack_row_offset, self._slack_width(), step)

    def unstack(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Split a stacked solution into ``(x, u, w)`` arrays.

        ``x`` and ``u`` have shape ``(T, L, V)``; ``w`` (the demand slack)
        has shape ``(T, V)`` and is all zeros for inelastic layouts.  The
        entries of pruned pairs come back as *exact* 0.0 — the unique
        optimum there (any holding is pure cost) — which keeps closed-loop
        state advances prunable period after period.
        """
        T, L, V = self.num_steps, self.num_datacenters, self.num_locations
        x = np.zeros(T * L * V)
        x[self._scatter] = z[self.x_slice()]
        u = np.zeros(T * L * V)
        u[self._scatter] = z[self.u_slice()]
        w = z[self.slack_slice()].reshape(T, V).copy() if self.elastic else np.zeros((T, V))
        return x.reshape(T, L, V), u.reshape(T, L, V), w

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
        if self.num_steps < 2:
            raise ValueError("a one-period horizon has no later periods to keep")
        columns = [self.x_slice, self.u_slice]
        rows = [self.dynamics_rows, self.demand_rows, self.capacity_rows, self.nonneg_rows]
        if self.elastic:
            columns.append(self.slack_slice)
            rows.append(self.slack_rows)

        def later(family: Callable[..., slice]) -> np.ndarray:
            return np.arange(family(1).start, family().stop)

        return (
            np.concatenate([later(family) for family in columns]),
            np.concatenate([later(family) for family in rows]),
        )


@dataclass(frozen=True)
class StackedQP:
    """The assembled sparse QP plus the layout to interpret its solution.

    Attributes:
        P, q, A, l, u: the QP data (see :mod:`repro.solvers.qp`).
        blocks: the :class:`QPBlockView` of its columns and rows.
    """

    P: sp.csc_matrix
    q: np.ndarray
    A: sp.csc_matrix
    l: np.ndarray
    u: np.ndarray
    blocks: QPBlockView

    def capacity_duals(self, y: np.ndarray) -> np.ndarray:
        """Extract the capacity-constraint duals ``lambda_l`` per step.

        Args:
            y: the full dual vector of the QP solution.

        Returns:
            Array of shape ``(T, L)``; nonnegative (upper-bound multipliers).
        """
        view = self.blocks
        rows = y[view.capacity_rows()]
        return np.maximum(rows, 0.0).reshape(view.num_steps, view.num_datacenters)


@dataclass(frozen=True)
class StackedQPStructure:
    """The data-independent half of the stacked QP.

    ``P`` and ``A`` depend only on the instance *structure* — dimensions,
    SLA coefficients, reconfiguration weights, server size, the horizon
    length and the layout — never on the per-period data (demand/price
    forecasts, the current state ``x_0`` or the capacity vector), all of
    which live in the ``q``/``l``/``u`` vectors produced by
    :func:`build_qp_vectors`.  That split is what lets a persistent solver
    workspace reuse its cached equilibration and KKT factorization across
    receding-horizon solves.

    Attributes:
        P, A: the QP matrices (see :mod:`repro.solvers.qp`).
        fingerprint: hashable identity of everything baked into ``P``/``A``
            (compare with :func:`structure_fingerprint` to decide whether a
            cached structure is reusable).
        blocks: the :class:`QPBlockView` of the layout, also consumed by
            the block-banded KKT backend.
    """

    P: sp.csc_matrix
    A: sp.csc_matrix
    fingerprint: tuple[object, ...]
    blocks: QPBlockView


def structure_fingerprint(
    instance: DSPPInstance, num_steps: int, elastic: bool, pruned: bool = False
) -> tuple[object, ...]:
    """Hashable identity of the ``(P, A)`` structure a solve would build.

    Two solves whose fingerprints match can share one
    :class:`StackedQPStructure` (and therefore one cached factorization):
    only ``q``/``l``/``u`` differ between them.  Capacities and the initial
    state are deliberately *excluded* — they enter the bounds vectors only,
    so quota swaps and receding-horizon state advances are vector-only
    updates.

    ``pruned`` is part of the identity, so a pruned structure can never
    collide with the full-mask structure of the same instance in a
    workspace cache.  The pruned mask itself is ``isfinite(sla)``, whose
    bytes the fingerprint already holds.

    The instance-side material is memoized on the (frozen) instance via
    :meth:`DSPPInstance.structure_key`, so a receding-horizon loop that
    advances the state every period never re-hashes the SLA matrix.
    """
    L, V, size, recon_bytes, sla_bytes = instance.structure_key()
    return (L, V, int(num_steps), bool(elastic), size, recon_bytes, sla_bytes, bool(pruned))


def structure_from_fingerprint(fingerprint: tuple[object, ...]) -> StackedQPStructure:
    """Rebuild the structure a fingerprint identifies.

    A fingerprint names every input :func:`build_qp_structure` reads —
    dimensions, horizon, elastic and pruned flags, server size and the
    raw bytes of the ``float64`` reconfiguration weights and SLA matrix —
    so the rebuild is bit for bit the structure that produced it.  This is
    what lets a pickled :class:`~repro.core.dspp.DSPPWorkspace` store the
    fingerprint instead of ``P``, ``A`` and the block view.

    Raises:
        ValueError: if the fingerprint does not describe a valid instance,
            or the rebuilt structure's fingerprint differs from it (for
            example, weights that were not ``float64``).
    """
    L, V, T, elastic, size, recon_bytes, sla_bytes, pruned = fingerprint
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
    structure = build_qp_structure(instance, T, elastic=bool(elastic), pruned=bool(pruned))
    if structure.fingerprint != fingerprint:
        raise ValueError("the fingerprint does not round-trip through a rebuild")
    # Keep the caller's fingerprint object: an unpickled one shares its
    # bytes with the instance's memoized structure key, and a re-pickle
    # must share them the same way.
    return replace(structure, fingerprint=fingerprint)


def prunes_unusable_pairs(instance: DSPPInstance) -> bool:
    """The layout rule: whether a solve from ``instance`` prunes the
    columns of its SLA-unusable pairs.

    Pruning is *exact* only when the initial state is identically zero
    there: the strictly convex reconfiguration cost then forces
    ``u = x = 0`` at every pruned pair in the full-mask optimum, and
    :meth:`QPBlockView.unstack` writes those exact zeros back, so
    closed-loop state advances stay prunable forever.  With every pair
    usable there is nothing to prune, and the full mask is kept.
    """
    usable = instance.usable_pairs
    return not usable.all() and not np.count_nonzero(instance.initial_state[~usable])


def build_qp_structure(
    instance: DSPPInstance,
    num_steps: int,
    elastic: bool = False,
    pruned: bool = False,
) -> StackedQPStructure:
    """Assemble the sparse ``P`` and ``A`` for ``num_steps`` future periods.

    Args:
        instance: static problem data (state and capacities are unused).
        num_steps: horizon length ``T`` (>= 1).
        elastic: whether demand slack variables are appended.
        pruned: drop the columns of SLA-unusable pairs, shrinking every
            per-period block from ``L*V`` to the number of usable pairs;
            otherwise every pair carries variables.  Callers take it from
            :func:`prunes_unusable_pairs`, whose exactness precondition
            (zero initial state at pruned pairs) :func:`build_qp_vectors`
            re-checks per solve.

    Returns:
        The :class:`StackedQPStructure`.

    Raises:
        ValueError: if ``num_steps < 1``.
    """
    L, V = instance.num_datacenters, instance.num_locations
    T = int(num_steps)
    if T < 1:
        raise ValueError("need at least one future period")

    mask = instance.usable_pairs.reshape(-1) if pruned else np.ones(L * V, dtype=bool)
    # Quadratic cost: u_t' R u_t with R = diag(c_l) per pair -> P_uu = 2R.
    recon = np.repeat(instance.reconfiguration_weights, V)  # (L*V,) pair-major
    view = QPBlockView(
        num_steps=T,
        num_datacenters=L,
        num_locations=V,
        elastic=elastic,
        server_size=float(instance.server_size),
        demand_coeff=instance.demand_coefficients,  # (L, V), 0 at unusable pairs
        control_hessian=2.0 * recon[mask],
        active_pairs=mask,
    )
    n_pairs = view.pairs_per_step
    half = view.num_x
    p_diag = np.concatenate(
        [np.zeros(half), np.tile(view.control_hessian, T), np.zeros(view.num_slack)]
    )
    P = sp.diags(p_diag, format="csc")

    # One COO pass over every constraint family; each family is a closed-form
    # index pattern, so there are no per-row Python loops.
    row_parts: list[np.ndarray] = []
    col_parts: list[np.ndarray] = []
    val_parts: list[np.ndarray] = []
    t_idx = np.arange(T)[:, None]

    # Dynamics: x_t - x_{t-1} - u_{t-1} = 0  (x_0 constant moves to rhs).
    x_all = np.arange(half)
    row_parts += [x_all, np.arange(n_pairs, half), x_all]
    col_parts += [x_all, np.arange(half - n_pairs), half + x_all]
    val_parts += [np.ones(half), -np.ones(half - n_pairs), -np.ones(half)]

    # Demand: sum_l coeff[l, v] * x_t[l, v] (+ w_t[v] if elastic) >= D_t[v],
    # over the active pairs with a coefficient (every active pair, when
    # pruned).
    coeff = view.active_demand_coeff
    served = np.flatnonzero(coeff > 0.0)
    row_parts.append(
        (view.demand_row_offset + t_idx * V + view.pair_location[served]).reshape(-1)
    )
    col_parts.append((t_idx * n_pairs + served).reshape(-1))
    val_parts.append(np.tile(coeff[served], T))
    if elastic:
        row_parts.append(_span(view.demand_rows()))
        col_parts.append(_span(view.slack_slice()))
        val_parts.append(np.ones(view.num_slack))

    # Capacity: s * sum_v x_t[l, v] <= C_l.  All L rows per period survive
    # pruning (a data center whose pairs are all pruned keeps an empty —
    # vacuous — row, so the row-family offsets never move).
    row_parts.append(
        (view.capacity_row_offset + t_idx * L + view.pair_datacenter).reshape(-1)
    )
    col_parts.append(x_all)
    val_parts.append(np.full(half, view.server_size))

    # Nonnegativity of x and of the slack (u is free).
    row_parts.append(_span(view.nonneg_rows()))
    col_parts.append(x_all)
    val_parts.append(np.ones(half))
    if elastic:
        row_parts.append(_span(view.slack_rows()))
        col_parts.append(_span(view.slack_slice()))
        val_parts.append(np.ones(view.num_slack))

    A = sp.coo_matrix(
        (
            np.concatenate(val_parts),
            (np.concatenate(row_parts), np.concatenate(col_parts)),
        ),
        shape=(view.num_constraints, view.num_variables),
    ).tocsc()

    return StackedQPStructure(
        P=P,
        A=A,
        fingerprint=structure_fingerprint(instance, T, elastic, pruned=pruned),
        blocks=view,
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
        ValueError: on shape mismatches, negative demand/prices, a slack
            penalty inconsistent with the structure, or a nonzero initial
            state at a pruned pair.
    """
    demand = np.asarray(demand, dtype=float)
    prices = np.asarray(prices, dtype=float)
    view = structure.blocks
    L, V, T = view.num_datacenters, view.num_locations, view.num_steps
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
    if (demand_slack_penalty is not None) != view.elastic:
        raise ValueError(
            "demand_slack_penalty must be given exactly when the structure "
            "was built elastic"
        )

    # Linear cost: p_t^l on every x_t[l, v] (one gather of each active
    # pair's data center from the horizon-major (T, L) prices); the
    # shortfall penalty on slack.
    q = np.zeros(view.num_variables)
    q[view.x_slice()] = prices.T.take(view.pair_datacenter, axis=1).reshape(-1)
    if view.elastic:
        q[view.slack_slice()] = demand_slack_penalty

    # Bounds, written family by family into preallocated arrays.
    l_vec = np.empty(view.num_constraints)
    u_vec = np.empty(view.num_constraints)
    dynamics, demand_rows, capacity_rows = (
        view.dynamics_rows(),
        view.demand_rows(),
        view.capacity_rows(),
    )
    # Dynamics rhs (equality): x_0 enters the t = 0 block only.
    x0_flat = instance.initial_state.reshape(-1)
    # Exactness guard, re-checked per solve: pruning is only valid when
    # the pruned pairs start (and therefore stay) at exactly zero.
    if np.count_nonzero(x0_flat[~view.active_pairs]):
        raise ValueError(
            "pruned structure with a nonzero initial state at a pruned "
            "(SLA-unusable) pair; prunes_unusable_pairs keeps the full mask "
            "for such a state"
        )
    l_vec[dynamics] = 0.0
    l_vec[: view.pairs_per_step] = x0_flat.take(view.active_indices)
    u_vec[dynamics] = l_vec[dynamics]
    # Demand lower bounds, horizon-major: row t*V + v = demand[v, t].
    l_vec[demand_rows] = demand.T.reshape(-1)
    u_vec[demand_rows] = np.inf
    # Capacity upper bounds: row t*L + l = C_l.
    l_vec[capacity_rows] = -np.inf
    u_vec[capacity_rows] = np.tile(instance.capacities, T)
    # Nonnegativity of x and (elastic) slack.
    l_vec[view.nonneg_row_offset :] = 0.0
    u_vec[view.nonneg_row_offset :] = np.inf
    return q, l_vec, u_vec


@check_shapes("demand:(V,T)", "prices:(L,T)")
def build_stacked_qp(
    instance: DSPPInstance,
    demand: np.ndarray,
    prices: np.ndarray,
    demand_slack_penalty: float | None = None,
) -> StackedQP:
    """Assemble the sparse QP for ``T`` future periods.

    Composes :func:`build_qp_structure` (the ``P``/``A`` patterns, in the
    layout :func:`prunes_unusable_pairs` picks, as a
    :class:`repro.core.dspp.DSPPWorkspace` solve does) with
    :func:`build_qp_vectors` (the per-step data); callers that solve many
    same-structure instances should use a workspace instead.

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
    V = instance.num_locations
    if demand.ndim != 2 or demand.shape[0] != V:
        raise ValueError(f"demand must be ({V}, T), got {demand.shape}")
    structure = build_qp_structure(
        instance,
        demand.shape[1],
        elastic=demand_slack_penalty is not None,
        pruned=prunes_unusable_pairs(instance),
    )
    q, l_vec, u_vec = build_qp_vectors(
        structure, instance, demand, prices, demand_slack_penalty=demand_slack_penalty
    )
    return StackedQP(
        P=structure.P, q=q, A=structure.A, l=l_vec, u=u_vec, blocks=structure.blocks
    )
