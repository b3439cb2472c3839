"""Exact finite-horizon solution of the DSPP (Section IV-D).

``solve_dspp`` assembles the stacked sparse QP on a :class:`DSPPWorkspace`
(the caller's, or a throwaway one) and hands it to the ADMM solver; the
result is unpacked into state/control trajectories, audited costs and the
capacity duals that Algorithm 2's coordinator needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.contracts import check_shapes
from repro.core.costs import CostBreakdown, total_cost
from repro.core.instance import DSPPInstance
from repro.core.matrices import (
    StackedQP,
    StackedQPStructure,
    build_qp_structure,
    build_qp_vectors,
    prunes_unusable_pairs,
    structure_fingerprint,
    structure_from_fingerprint,
)
from repro.core.state import Trajectory
from repro.solvers.qp import QPProblem, QPSettings, QPSolution, QPStatus
from repro.solvers.workspace import QPWorkspace

__all__ = ["DSPPInfeasibleError", "DSPPSolution", "DSPPWorkspace", "solve_dspp"]


class DSPPInfeasibleError(RuntimeError):
    """The instance admits no feasible allocation (demand exceeds what the
    capacities can serve under the SLA, over the given horizon)."""


class DSPPWorkspace:
    """Persistent solver state reused across same-structure DSPP solves.

    Consecutive receding-horizon (and best-response) solves share the
    ``(P, A)`` sparsity structure — only forecasts, the initial state and
    capacities change, and those live purely in the ``q``/``l``/``u``
    vectors.  A :class:`DSPPWorkspace` caches the assembled
    :class:`~repro.core.matrices.StackedQPStructure` and the underlying
    :class:`~repro.solvers.workspace.QPWorkspace` (Ruiz scaling + KKT
    factorization), so each subsequent solve is a vector-only ``update()``
    plus a warm-started ADMM run.

    Every DSPP solve runs on one: pass it to :func:`solve_dspp` via its
    ``workspace=`` argument to keep it across solves (without one,
    :func:`solve_dspp` uses a throwaway workspace).  The workspace
    re-validates the structure fingerprint on every solve and
    transparently rebuilds itself when the structure genuinely changed
    (different horizon, SLA matrix, reconfiguration weights, server size,
    elastic mode, or the layout :func:`~repro.core.matrices.prunes_unusable_pairs`
    picks) — capacity swaps never trigger a rebuild, and a state advance
    only when it flips the layout.  A rebuild for a window that is the old
    one minus its first period (a finite run's last periods) keeps the warm
    state: the iterates and the cached active set are shifted one period,
    so the first solve on the shorter window starts with the crossover, not
    a cold ADMM run.

    Attributes:
        num_setups: structure (re)builds performed, each paying one Ruiz
            equilibration (the KKT factorization waits for ADMM).
        num_updates: vector-only updates served from the cache.
    """

    def __init__(self, *, _banded: bool | None = None, _full_mask: bool = False) -> None:
        # ``_banded`` forces the inner workspace's KKT backend (see
        # QPWorkspace); only the backend reference comparisons set it.
        # ``_full_mask`` keeps every pair's columns where the layout rule
        # would prune; only the layout reference comparison sets it.
        self._qp = QPWorkspace(_banded=_banded)
        self._full_mask = _full_mask
        self._structure: StackedQPStructure | None = None
        self._settings: QPSettings | None = None

    def __getstate__(self) -> dict[str, Any]:
        """Pickle support for checkpoint/restore (see ``repro.service``).

        The stacked structure is a deterministic function of its
        fingerprint (see
        :func:`~repro.core.matrices.structure_from_fingerprint`), and the
        inner workspace's ``P``, ``A`` and block view are the structure's.
        So the snapshot keeps the fingerprint in place of the structure and
        only ``q``/``l``/``u`` of the inner workspace's problem.
        """
        qp_state = self._qp.__getstate__()
        fingerprint = None
        if self._structure is not None:
            fingerprint = self._structure.fingerprint
            problem = qp_state["_problem"]
            if problem is not None:
                qp_state["_problem"] = (problem.q, problem.l, problem.u)
                qp_state["_blocks"] = None
        return {
            "_qp": qp_state,
            "_fingerprint": fingerprint,
            "_settings": self._settings,
            "_full_mask": self._full_mask,
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        """Rebuild the structure, then the inner workspace on top of it."""
        self._settings = state["_settings"]
        self._full_mask = state["_full_mask"]
        fingerprint = state["_fingerprint"]
        self._structure = (
            None if fingerprint is None else structure_from_fingerprint(fingerprint)
        )
        qp_state = dict(state["_qp"])
        vectors = qp_state["_problem"]
        if self._structure is not None and isinstance(vectors, tuple):
            P, A = QPProblem.build_matrices(self._structure.P, self._structure.A)
            q, l, u = vectors
            qp_state["_problem"] = QPProblem(P=P, q=q, A=A, l=l, u=u)
            qp_state["_blocks"] = self._structure.blocks
        self._qp = QPWorkspace.__new__(QPWorkspace)
        self._qp.__setstate__(qp_state)

    @property
    def num_setups(self) -> int:
        return self._qp.num_setups

    @property
    def num_updates(self) -> int:
        return self._qp.num_updates

    def invalidate(self) -> None:
        """Drop all cached state (structure, factorization and iterates)."""
        self._qp = QPWorkspace(_banded=self._qp._banded)
        self._structure = None
        self._settings = None

    def solve(
        self,
        instance: DSPPInstance,
        demand: np.ndarray,
        prices: np.ndarray,
        settings: QPSettings | None = None,
        demand_slack_penalty: float | None = None,
    ) -> tuple[StackedQP, QPSolution]:
        """Assemble (incrementally) and solve one stacked DSPP QP.

        Returns the assembled :class:`~repro.core.matrices.StackedQP` and
        the raw QP solution; :func:`solve_dspp` handles the unpacking.
        """
        demand = np.asarray(demand, dtype=float)
        if demand.ndim != 2 or demand.shape[0] != instance.num_locations:
            raise ValueError(
                f"demand must be ({instance.num_locations}, T), got {demand.shape}"
            )
        T = demand.shape[1]
        elastic = demand_slack_penalty is not None
        # Caller-provided settings are honoured verbatim.
        effective_settings = settings if settings is not None else QPSettings()

        # The layout rule runs per solve against the *current* instance
        # (its exactness precondition involves the initial state); the
        # pruned flag is part of the fingerprint, so a solve whose layout
        # flips never reuses the other layout's structure.
        pruned = not self._full_mask and prunes_unusable_pairs(instance)
        fingerprint = structure_fingerprint(instance, T, elastic, pruned=pruned)
        old = self._structure
        same_settings = self._settings == effective_settings
        reusable = old is not None and old.fingerprint == fingerprint and same_settings
        # A finite run's last periods solve windows of W-1, ..., 1 periods
        # that keep the window's end: the new window is the old one minus
        # its first period, so the set-up carries the warm state across.
        carry = None
        if (
            old is not None
            and same_settings
            and fingerprint[:2] + (T + 1,) + fingerprint[3:] == old.fingerprint
        ):
            carry = old.blocks.shift_indices()
        if not reusable:
            self._structure = build_qp_structure(instance, T, elastic=elastic, pruned=pruned)
            self._settings = effective_settings
        structure = self._structure
        assert structure is not None
        q, l, u = build_qp_vectors(
            structure, instance, demand, prices, demand_slack_penalty=demand_slack_penalty
        )
        if reusable:
            self._qp.update(q=q, l=l, u=u)
        else:
            self._qp.setup(
                structure.P,
                structure.A,
                q=q,
                l=l,
                u=u,
                settings=effective_settings,
                blocks=structure.blocks,
                carry=carry,
            )
        qp_solution = self._qp.solve()
        stacked = StackedQP(
            P=structure.P, q=q, A=structure.A, l=l, u=u, blocks=structure.blocks
        )
        return stacked, qp_solution


@dataclass(frozen=True)
class DSPPSolution:
    """Solution of one finite-horizon DSPP solve.

    Attributes:
        trajectory: consistent states ``x_1..x_T`` and controls
            ``u_0..u_{T-1}``.
        costs: audited ``H``/``G`` breakdown over the horizon.
        capacity_duals: shape ``(T, L)`` — the multipliers ``lambda^l`` of
            the capacity constraints (what each provider reports to the
            coordinator in Algorithm 2).
        demand_slack: shape ``(T, V)`` — unmet demand in elastic mode (all
            zeros for the standard hard-constrained problem).
        slack_penalty: the per-unit penalty used (``None`` if inelastic).
        qp: the raw QP solution (iterations, residuals).
    """

    trajectory: Trajectory
    costs: CostBreakdown
    capacity_duals: np.ndarray
    demand_slack: np.ndarray
    slack_penalty: float | None
    qp: QPSolution

    @property
    def objective(self) -> float:
        """The DSPP objective ``J`` over the horizon, including any
        shortfall penalty paid in elastic mode."""
        penalty = 0.0
        if self.slack_penalty is not None:
            penalty = self.slack_penalty * float(self.demand_slack.sum())
        return self.costs.total + penalty

    @property
    def first_control(self) -> np.ndarray:
        """``u_{k|k}`` — the only move MPC actually applies, shape ``(L, V)``."""
        return self.trajectory.controls[0].copy()


@check_shapes("demand:(V,T)", "prices:(L,T)")
def solve_dspp(
    instance: DSPPInstance,
    demand: np.ndarray,
    prices: np.ndarray,
    settings: QPSettings | None = None,
    demand_slack_penalty: float | None = None,
    workspace: DSPPWorkspace | None = None,
) -> DSPPSolution:
    """Solve the DSPP for ``T`` future periods.

    Args:
        instance: static problem data, including the current state ``x_0``.
        demand: forecast demand for periods ``1..T``, shape ``(V, T)``.
        prices: per-server prices for periods ``1..T``, shape ``(L, T)``.
        settings: QP solver settings (default: ``QPSettings()``).
        demand_slack_penalty: if given, solve the *elastic* variant where
            demand shortfall is allowed at this linear per-unit penalty
            (used by the best-response game dynamics; see
            :mod:`repro.core.matrices`).
        workspace: a :class:`DSPPWorkspace` to reuse across solves; caches
            the stacked structure, the Ruiz scaling, the KKT factorization
            and the last iterates, so repeat solves that differ only in
            forecasts, state or capacities pay a vector-only update and
            start warm.  Without one the solve runs on a throwaway
            workspace.

    Returns:
        The :class:`DSPPSolution`.

    Raises:
        DSPPInfeasibleError: if the QP is primal infeasible (demand cannot
            be served within capacity under the SLA).
        RuntimeError: if the solver fails to converge.
    """
    stacked, qp_solution = (workspace or DSPPWorkspace()).solve(
        instance,
        demand,
        prices,
        settings=settings,
        demand_slack_penalty=demand_slack_penalty,
    )
    if qp_solution.status is QPStatus.PRIMAL_INFEASIBLE:
        raise DSPPInfeasibleError(
            "DSPP infeasible: forecast demand exceeds SLA-feasible capacity"
        )
    if qp_solution.status is not QPStatus.OPTIMAL:
        raise RuntimeError(
            f"QP solver failed with status {qp_solution.status.value} after "
            f"{qp_solution.iterations} iterations "
            f"(primal residual {qp_solution.primal_residual:.2e}, "
            f"dual residual {qp_solution.dual_residual:.2e})"
        )

    states, controls, slack = stacked.blocks.unstack(qp_solution.x)
    # ADMM feasibility is approximate; tiny negative allocations are noise.
    states = np.maximum(states, 0.0)
    slack = np.maximum(slack, 0.0)
    # Re-derive controls from the cleaned states so the trajectory is exactly
    # consistent with the state equation.
    prev = np.concatenate([instance.initial_state[None], states[:-1]], axis=0)
    controls = states - prev

    trajectory = Trajectory(
        initial_state=instance.initial_state.copy(), states=states, controls=controls
    )
    costs = total_cost(states, controls, np.asarray(prices, dtype=float), instance.reconfiguration_weights)
    duals = stacked.capacity_duals(qp_solution.y)
    return DSPPSolution(
        trajectory=trajectory,
        costs=costs,
        capacity_duals=duals,
        demand_slack=slack,
        slack_penalty=demand_slack_penalty,
        qp=qp_solution,
    )
