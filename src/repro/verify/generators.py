"""Seeded random problem generators for differential testing.

Everything here is a pure function of an injected, explicitly seeded
``np.random.Generator`` — same seed, same problem, on every platform.
Three families are produced:

* **DSPP instances** (:func:`random_instance`) plus matching demand and
  price forecasts, across scale tiers and three feasibility regimes
  (comfortable, near-infeasible and provably infeasible);
* **raw QPs** (:func:`random_qp`), strongly convex with a mix of finite
  box rows and equality rows — harsher than anything the DSPP assembles;
* **routing problems** (:func:`random_routing_problem`) — feasible
  allocation/demand/latency triples for the router differential.

The feasibility engineering: with every data center split evenly over the
``V`` locations (``x_lv = C_l / (s V)``), location ``v`` is served
``max_supportable_demand(v) / V``.  Any demand at or below ``load``
times that conservative bound is therefore feasible for *some* placement;
``load`` close to 1 sits near the constraint surface, and demand above
:meth:`~repro.core.instance.DSPPInstance.max_supportable_demand` itself is
infeasible even with every server dedicated to one location.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.core.instance import DSPPInstance

__all__ = [
    "TIERS",
    "ScaleTier",
    "random_demand",
    "random_instance",
    "random_prices",
    "random_pruned_instance",
    "random_qp",
    "random_routing_problem",
]


@dataclass(frozen=True)
class ScaleTier:
    """One size class of generated problems.

    Attributes:
        name: tier label (``tiny`` / ``small`` / ``medium``).
        max_datacenters: upper bound on ``L`` (inclusive; lower bound 1).
        max_locations: upper bound on ``V``.
        max_horizon: upper bound on the forecast length ``T``.
        max_qp_variables: upper bound on the raw-QP dimension ``n``.
    """

    name: str
    max_datacenters: int
    max_locations: int
    max_horizon: int
    max_qp_variables: int


TIERS: dict[str, ScaleTier] = {
    "tiny": ScaleTier("tiny", max_datacenters=2, max_locations=2, max_horizon=2, max_qp_variables=6),
    "small": ScaleTier("small", max_datacenters=3, max_locations=4, max_horizon=4, max_qp_variables=12),
    "medium": ScaleTier(
        "medium", max_datacenters=5, max_locations=8, max_horizon=6, max_qp_variables=24
    ),
}


def random_instance(
    rng: np.random.Generator,
    tier: ScaleTier | str = "small",
    allow_infinite_sla: bool = True,
) -> DSPPInstance:
    """Draw a valid :class:`~repro.core.instance.DSPPInstance`.

    Args:
        rng: seeded randomness source.
        tier: scale tier (object or name).
        allow_infinite_sla: occasionally mark pairs as SLA-unreachable
            (``inf`` coefficients), keeping every location servable.

    Returns:
        An instance with positive SLA coefficients, finite capacities and
        a nonnegative (sometimes zero) initial state.
    """
    tier = TIERS[tier] if isinstance(tier, str) else tier
    L = int(rng.integers(1, tier.max_datacenters + 1))
    V = int(rng.integers(1, tier.max_locations + 1))

    sla = rng.uniform(0.01, 0.1, size=(L, V))
    if allow_infinite_sla and L > 1 and rng.random() < 0.3:
        # Knock out some pairs, but keep at least one finite entry per
        # location (instance validation requires every location servable).
        mask = rng.random(size=(L, V)) < 0.3
        for v in range(V):
            if mask[:, v].all():
                mask[int(rng.integers(0, L)), v] = False
        sla = np.where(mask, np.inf, sla)

    weights = rng.uniform(0.1, 5.0, size=L)
    capacities = rng.uniform(50.0, 400.0, size=L)
    server_size = float(rng.uniform(0.5, 2.0))
    if rng.random() < 0.5:
        initial_state = np.zeros((L, V))
    else:
        # A modest feasible-ish starting allocation.
        initial_state = rng.uniform(0.0, 1.0, size=(L, V)) * (
            capacities[:, None] / (server_size * max(V, 1) * 2.0)
        )
    return DSPPInstance(
        datacenters=tuple(f"dc{i}" for i in range(L)),
        locations=tuple(f"v{i}" for i in range(V)),
        sla_coefficients=sla,
        reconfiguration_weights=weights,
        capacities=capacities,
        initial_state=initial_state,
    )


def random_pruned_instance(
    rng: np.random.Generator,
    tier: ScaleTier | str = "small",
) -> DSPPInstance:
    """Draw an instance with a *controlled* SLA-unusable fraction.

    Purpose-built for the pruned-layout differentials: the pruned
    fraction sweeps the full 0–95% range and deliberately hits both edges
    of the reduced layout —

    * **all-usable** (~15% of draws, and always when ``L == 1``): the
      usable-pair mask is full, so the layout rule keeps the full mask
      and the differential degenerates to identity;
    * **one usable data center per location** (~15%): the maximum pruning
      an instance can carry while staying servable, leaving exactly ``V``
      columns per period;
    * otherwise a uniform pruned fraction drawn from ``[0, 0.95)``, with
      every location kept servable.

    The initial state is supported on usable pairs only (exact zeros at
    every pruned pair), which is the precondition for pruning to be exact
    — :func:`~repro.core.matrices.prunes_unusable_pairs` would otherwise
    keep the full mask.

    This generator is *additive*: it must never be inlined into
    :func:`random_instance`, whose draw sequence is pinned by the
    committed corpus.
    """
    tier = TIERS[tier] if isinstance(tier, str) else tier
    L = int(rng.integers(1, tier.max_datacenters + 1))
    V = int(rng.integers(1, tier.max_locations + 1))
    sla = rng.uniform(0.01, 0.1, size=(L, V))

    regime = rng.random()
    if regime < 0.15 or L == 1:
        pruned = np.zeros((L, V), dtype=bool)
    elif regime < 0.3:
        pruned = np.ones((L, V), dtype=bool)
        for v in range(V):
            pruned[int(rng.integers(0, L)), v] = False
    else:
        fraction = float(rng.uniform(0.0, 0.95))
        pruned = rng.random(size=(L, V)) < fraction
        for v in range(V):
            if pruned[:, v].all():
                pruned[int(rng.integers(0, L)), v] = False
    sla = np.where(pruned, np.inf, sla)

    weights = rng.uniform(0.1, 5.0, size=L)
    capacities = rng.uniform(50.0, 400.0, size=L)
    server_size = float(rng.uniform(0.5, 2.0))
    if rng.random() < 0.5:
        initial_state = np.zeros((L, V))
    else:
        initial_state = rng.uniform(0.0, 1.0, size=(L, V)) * (
            capacities[:, None] / (server_size * max(V, 1) * 2.0)
        )
        initial_state[pruned] = 0.0
    return DSPPInstance(
        datacenters=tuple(f"dc{i}" for i in range(L)),
        locations=tuple(f"v{i}" for i in range(V)),
        sla_coefficients=sla,
        reconfiguration_weights=weights,
        capacities=capacities,
        initial_state=initial_state,
        server_size=server_size,
    )


def random_demand(
    rng: np.random.Generator,
    instance: DSPPInstance,
    horizon: int,
    load: float = 0.6,
) -> np.ndarray:
    """Draw a demand forecast of shape ``(V, T)`` at a given load factor.

    ``load`` scales the *conservative* per-location feasibility bound
    ``max_supportable_demand / V`` (see the module docstring): any value
    in ``(0, 1)`` is guaranteed jointly feasible, values near 1 are tight,
    and values above ``V`` (relative to this bound) exceed even
    ``max_supportable_demand`` and are provably infeasible.

    Args:
        rng: seeded randomness source.
        instance: the instance the demand must match.
        horizon: forecast length ``T``.
        load: fraction of the safe per-location bound to draw up to.

    Returns:
        Nonnegative demand, shape ``(V, T)``, with occasional zero entries.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if load <= 0:
        raise ValueError(f"load must be positive, got {load}")
    V = instance.num_locations
    safe = instance.max_supportable_demand() / V
    demand = rng.uniform(0.2, 1.0, size=(V, horizon)) * (load * safe)[:, None]
    # Exercise the zero-demand edge occasionally.
    zero_mask = rng.random(size=(V, horizon)) < 0.05
    demand[zero_mask] = 0.0
    return demand


def random_prices(
    rng: np.random.Generator, instance: DSPPInstance, horizon: int
) -> np.ndarray:
    """Draw a nonnegative price forecast of shape ``(L, T)``."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    L = instance.num_datacenters
    base = rng.uniform(0.5, 3.0, size=(L, 1))
    wiggle = rng.uniform(0.7, 1.3, size=(L, horizon))
    return base * wiggle


def random_qp(
    rng: np.random.Generator,
    tier: ScaleTier | str = "small",
    with_equalities: bool = True,
) -> tuple[sp.csc_matrix, np.ndarray, sp.csc_matrix, np.ndarray, np.ndarray]:
    """Draw a strongly convex box-constrained QP ``(P, q, A, l, u)``.

    ``P = M M' + n I`` guarantees a unique optimum (so primal solutions —
    not just objectives — must agree across solver paths).  Constraint rows
    mix finite two-sided boxes, one-sided rows and, optionally, a few
    equality rows (``l == u``), matching the structures the DSPP stacking
    produces but with none of its benign scaling.  Bounds are anchored
    around ``A @ x̂`` for a hidden witness ``x̂``, so the problem is
    feasible by construction even with many equality rows.
    """
    tier = TIERS[tier] if isinstance(tier, str) else tier
    n = int(rng.integers(2, tier.max_qp_variables + 1))
    m = int(rng.integers(n, 2 * n + 1))
    M = rng.normal(size=(n, n))
    P = sp.csc_matrix(M @ M.T + n * np.eye(n))
    q = rng.normal(size=n)
    A = rng.normal(size=(m, n))
    witness = rng.normal(size=n)
    anchor = A @ witness
    width = rng.uniform(0.5, 2.0, size=m)
    offset = rng.uniform(-0.4, 0.4, size=m) * width
    l = anchor + offset - width
    u = anchor + offset + width
    # One-side some rows (only ever widens the feasible set).
    open_lower = rng.random(size=m) < 0.15
    open_upper = rng.random(size=m) < 0.15
    l = np.where(open_lower, -np.inf, l)
    u = np.where(open_upper & ~open_lower, np.inf, u)
    if with_equalities and m > 2 and rng.random() < 0.5:
        # Pin some rows exactly at the witness; x̂ stays feasible.
        eq = rng.random(size=m) < 0.2
        # Cap at n-1 equality rows: with more, the trust-constr reference
        # oracle cannot factorize the constraint null space.
        pinned = np.nonzero(eq)[0]
        if pinned.size >= n:
            eq[pinned[n - 1 :]] = False
        l = np.where(eq, anchor, l)
        u = np.where(eq, anchor, u)
    return P, q, sp.csc_matrix(A), l, u


def random_routing_problem(
    rng: np.random.Generator, tier: ScaleTier | str = "small"
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Draw a feasible routing problem ``(allocation, demand, coeff, latency)``.

    The allocation is built *from* the demand (``x_lv = a_lv * share_lv``
    with per-location shares summing to slightly more than the demand), so
    eq. 12 holds by construction and both the proportional policy and the
    optimal transportation LP are well posed.
    """
    tier = TIERS[tier] if isinstance(tier, str) else tier
    instance = random_instance(rng, tier, allow_infinite_sla=False)
    L, V = instance.num_datacenters, instance.num_locations
    coeff = instance.demand_coefficients
    demand = rng.uniform(1.0, 50.0, size=V)
    # Split each location's demand over the data centers, pad by 5-40%;
    # carrying sigma demand at pair (l, v) takes x = a_lv * sigma servers.
    shares = rng.uniform(0.1, 1.0, size=(L, V))
    shares /= shares.sum(axis=0, keepdims=True)
    headroom = rng.uniform(1.05, 1.4, size=(L, V))
    allocation = shares * demand[None, :] * headroom * instance.sla_coefficients
    latency = rng.uniform(1.0, 100.0, size=(L, V))
    return allocation, demand, coeff, latency
