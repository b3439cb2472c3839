"""Immutable DSPP problem data (the model of Section IV).

A :class:`DSPPInstance` carries everything that does *not* change between
control periods: the site labels, the SLA coefficients ``a_lv`` (eq. 10),
the reconfiguration weights ``c^l``, the data-center capacities ``C^l``,
the server size and the current state ``x``.  Per-period data — demand
``D_k`` and prices ``p_k`` — are passed separately to the solver, because
in the MPC loop they are *forecasts* that change every period.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = ["DSPPInstance"]


@dataclass(frozen=True)
class DSPPInstance:
    """Static data of one service provider's placement problem.

    Attributes:
        datacenters: data-center labels, length ``L``.
        locations: customer-location labels, length ``V``.
        sla_coefficients: the ``a_lv`` matrix of eq. 10, shape ``(L, V)``.
            Entries must be positive; ``inf`` marks a pair that cannot meet
            the SLA (servers there contribute nothing to that location's
            demand constraint).
        reconfiguration_weights: ``c^l`` per data center, shape ``(L,)``;
            the reconfiguration cost is ``sum_l sum_v c^l (u^{lv})^2``.
        capacities: ``C^l`` per data center, shape ``(L,)``; may be ``inf``.
        initial_state: ``x^{lv}_0``, shape ``(L, V)``, nonnegative.
        server_size: the ``s^i`` resource footprint of this provider's
            servers (Section VI); 1.0 for the single-provider model.
    """

    datacenters: tuple[str, ...]
    locations: tuple[str, ...]
    sla_coefficients: np.ndarray
    reconfiguration_weights: np.ndarray
    capacities: np.ndarray
    initial_state: np.ndarray
    server_size: float = 1.0

    def __post_init__(self) -> None:
        L, V = len(self.datacenters), len(self.locations)
        if L < 1 or V < 1:
            raise ValueError("need at least one data center and one location")
        if self.sla_coefficients.shape != (L, V):
            raise ValueError(
                f"sla_coefficients must be ({L}, {V}), got {self.sla_coefficients.shape}"
            )
        if np.any(self.sla_coefficients <= 0):
            raise ValueError("sla coefficients must be positive (inf allowed)")
        if self.reconfiguration_weights.shape != (L,):
            raise ValueError(f"reconfiguration_weights must be ({L},)")
        if np.any(self.reconfiguration_weights <= 0):
            raise ValueError("reconfiguration weights must be positive")
        if self.capacities.shape != (L,):
            raise ValueError(f"capacities must be ({L},)")
        if np.any(self.capacities <= 0):
            raise ValueError("capacities must be positive (inf allowed)")
        if self.initial_state.shape != (L, V):
            raise ValueError(f"initial_state must be ({L}, {V})")
        if np.any(self.initial_state < 0):
            raise ValueError("initial state must be nonnegative")
        if self.server_size <= 0:
            raise ValueError(f"server_size must be positive, got {self.server_size}")
        if not np.any(np.isfinite(self.sla_coefficients)):
            raise ValueError("no (datacenter, location) pair can meet the SLA")
        # Every location must be servable by at least one data center.
        servable = np.isfinite(self.sla_coefficients).any(axis=0)
        if not np.all(servable):
            bad = [self.locations[v] for v in np.nonzero(~servable)[0]]
            raise ValueError(f"locations unreachable under the SLA: {bad}")

    @property
    def num_datacenters(self) -> int:
        return len(self.datacenters)

    @property
    def num_locations(self) -> int:
        return len(self.locations)

    @property
    def num_pairs(self) -> int:
        return self.num_datacenters * self.num_locations

    @property
    def demand_coefficients(self) -> np.ndarray:
        """``1 / a_lv`` with unusable pairs as exact 0, shape ``(L, V)``.

        This is the coefficient of ``x^{lv}`` in the demand constraint
        ``sum_l x^{lv} / a_lv >= D^v`` (eq. 12).

        Memoized on the (frozen) instance and returned read-only: it is
        hit once per period by ``build_qp_vectors`` and by every routing /
        audit layer, so recomputing the inf-guard on each access was pure
        waste.  Derived copies (:meth:`with_initial_state`,
        :meth:`with_capacities`) share the cache — the SLA matrix is
        immutable and identical across them.
        """
        cached = self.__dict__.get("_demand_coefficients")
        if cached is None:
            # Validation guarantees a_lv > 0 (inf allowed); 1/inf is an
            # exact 0.0 with no FP exception, so no errstate suppression
            # is needed.
            inverse = 1.0 / self.sla_coefficients
            inverse[~np.isfinite(self.sla_coefficients)] = 0.0
            inverse.setflags(write=False)
            object.__setattr__(self, "_demand_coefficients", inverse)
            cached = inverse
        return cached  # type: ignore[no-any-return]

    @property
    def usable_pairs(self) -> np.ndarray:
        """Boolean mask of SLA-feasible pairs, shape ``(L, V)``, read-only.

        ``usable_pairs[l, v]`` is True exactly where ``a_lv`` is finite —
        equivalently where :attr:`demand_coefficients` is nonzero.  A pruned
        layout of :func:`repro.core.matrices.build_qp_structure` drops the
        variables of unusable pairs; the mask is memoized here
        (and propagated to derived copies) so structure fingerprinting
        never re-scans the SLA matrix.
        """
        cached = self.__dict__.get("_usable_pairs")
        if cached is None:
            mask = np.isfinite(self.sla_coefficients)
            mask.setflags(write=False)
            object.__setattr__(self, "_usable_pairs", mask)
            cached = mask
        return cached  # type: ignore[no-any-return]

    def _compute_structure_key(self) -> tuple[object, ...]:
        """Hash the structure-relevant fields (see :meth:`structure_key`)."""
        return (
            self.num_datacenters,
            self.num_locations,
            float(self.server_size),
            self.reconfiguration_weights.tobytes(),
            self.sla_coefficients.tobytes(),
        )

    def structure_key(self) -> tuple[object, ...]:
        """Hashable identity of the fields baked into the stacked ``(P, A)``.

        Excludes ``initial_state`` and ``capacities`` (they enter the QP
        bounds only), so :meth:`with_initial_state` and
        :meth:`with_capacities` propagate the memoized key: a
        receding-horizon loop hashes the SLA/weight arrays exactly once no
        matter how many periods it runs.
        """
        cached = self.__dict__.get("_structure_key")
        if cached is None:
            cached = self._compute_structure_key()
            object.__setattr__(self, "_structure_key", cached)
        return cached  # type: ignore[no-any-return]

    def _with_propagated_key(self, derived: "DSPPInstance") -> "DSPPInstance":
        """Carry the memoized structure-derived caches onto a derived copy.

        Safe because the propagating constructors only replace fields the
        caches do not depend on (state, capacities) — never the SLA matrix.
        """
        for key in ("_structure_key", "_demand_coefficients", "_usable_pairs"):
            cached = self.__dict__.get(key)
            if cached is not None:
                object.__setattr__(derived, key, cached)
        return derived

    def with_initial_state(self, state: np.ndarray) -> "DSPPInstance":
        """A copy whose ``initial_state`` is replaced (used by the MPC loop)."""
        state = np.asarray(state, dtype=float)
        return self._with_propagated_key(replace(self, initial_state=state.copy()))

    def with_capacities(self, capacities: np.ndarray) -> "DSPPInstance":
        """A copy with new capacities (used by the quota coordinator)."""
        capacities = np.asarray(capacities, dtype=float)
        return self._with_propagated_key(replace(self, capacities=capacities.copy()))

    def max_supportable_demand(self) -> np.ndarray:
        """Upper bound on satisfiable demand per location, shape ``(V,)``.

        With every data center dedicated entirely to location ``v`` the
        demand constraint can cover ``sum_l C_l / (s * a_lv)``.  Useful as a
        sanity check when constructing scenarios.
        """
        coeff = self.demand_coefficients
        finite_caps = np.where(np.isfinite(self.capacities), self.capacities, np.inf)
        per_pair = coeff * (finite_caps[:, None] / self.server_size)
        return per_pair.sum(axis=0)
