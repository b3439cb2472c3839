"""Metamorphic and differential properties of the solver pipeline.

Every property has the same shape: draw a random problem from an injected
seeded generator, exercise one (or two) solve paths, and return a list of
:class:`~repro.verify.oracles.Discrepancy` records — empty when the
property holds.  The fuzz runner (:mod:`repro.verify.runner`) drives them
by the thousands; the hypothesis suites drive them example by example.

The registered properties:

====================================  =====================================
``qp_reference``                      ADMM/crossover vs scipy trust-constr
``qp_workspace_sequence``             warm QPWorkspace resolve ≡ cold
                                      plain-ADMM solve on general QPs
                                      with equality rows
``config_equivalence/backend``        banded KKT backend ≡ sparse backend
``config_equivalence/layout``         pruned pair mask ≡ full pair mask
``config_equivalence/warm``           persistent workspace ≡ cold solves,
                                      each pair along one receding-horizon
                                      walk (:data:`EQUIVALENCE_PAIRS`)
``dspp_reference``                    stacked DSPP QP vs trust-constr +
                                      trajectory feasibility audit
``cost_scale_invariance``             scaling prices and reconfiguration
                                      weights by α scales the objective by α
``demand_monotonicity``               objective non-decreasing in demand
``price_monotonicity``                objective non-decreasing in prices
``horizon1_mpc_equals_myopic``        window-1 MPC ≡ direct one-period solve
``integer_sandwich``                  continuous ≤ brute-force integer ≤
                                      rounded-repair cost
``elastic_infeasible``                hard solve raises, elastic solve pays
                                      audited slack
``routing_differential``              transportation LP ≤ proportional
                                      policy, both feasible
``mm1_sim``                           analytic M/M/1 delay vs event sim
``mm1_inversion``                     SLA server-count inversion (eq. 9-11)
``fluid_matches_events``              request-level replay vs the fluid
                                      M/M/1 mean-delay and violation-rate
                                      predictions at matched load
``events_deterministic_replay``       same seed => bitwise-identical event
                                      log and metrics at any jobs count or
                                      collector set
``sharded_equilibrium_equals_serial`` Algorithm 2 through the provider-
                                      sharded process pool (jobs 2, 4) ≡
                                      serial inline run, bitwise
``service_crash_recovery``            resident service killed mid-horizon
                                      and restored from its checkpoint ≡
                                      uninterrupted run, bitwise; the
                                      degradation ladder terminates every
                                      period
====================================  =====================================

``qp_workspace_sequence`` is not a row of the pair table: it runs a raw
``QPWorkspace`` on general (non-DSPP) QPs with equality rows.
"""

from __future__ import annotations

import dataclasses
import math
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.control.mpc import MPCConfig, MPCController
from repro.core.dspp import DSPPInfeasibleError, DSPPSolution, DSPPWorkspace, solve_dspp
from repro.events.arrivals import MMPPArrivals, PoissonArrivals, RegionalShockArrivals
from repro.events.calibration import CalibrationCollector
from repro.events.collectors import (
    Collector,
    EventLogCollector,
    LatencyCollector,
    LocationStats,
    ThroughputCollector,
)
from repro.events.engine import EventEngine
from repro.events.engine import ReplayConfig as EventReplayConfig
from repro.events.records import EventLog, logs_equal
from repro.core.instance import DSPPInstance
from repro.core.integer import IntegerRepairError, solve_dspp_integer
from repro.core.matrices import build_stacked_qp
from repro.game.best_response import (
    BestResponseConfig,
    BestResponseResult,
    compute_equilibrium,
)
from repro.game.players import random_providers
from repro.prediction.naive import LastValuePredictor
from repro.prediction.oracle import OraclePredictor
from repro.queueing.mm1 import queueing_delay, required_servers
from repro.routing.optimal import optimal_assignment
from repro.routing.proportional import proportional_assignment
from repro.service import (
    LADDER_RUNGS,
    DegradationEvent,
    PlacementService,
    ServiceConfig,
    make_fault_plan,
)
from repro.simulation.engine import SimulationEngine
from repro.simulation.metrics import RunSummary
from repro.simulation.queue_sim import effective_sample_size
from repro.simulation.scenario import Scenario, build_small_scenario
from repro.solvers.qp import QPProblem, QPSettings, QPStatus, solve_qp
from repro.solvers.workspace import QPWorkspace
from repro.verify.generators import (
    ScaleTier,
    random_demand,
    random_instance,
    random_prices,
    random_pruned_instance,
    random_qp,
    random_routing_problem,
)
from repro.verify.oracles import (
    Discrepancy,
    brute_force_placement,
    check_mm1_against_sim,
    check_qp_against_reference,
    check_qp_kkt,
    relative_gap,
)

__all__ = [
    "EQUIVALENCE_PAIRS",
    "prop_config_equivalence",
    "prop_cost_scale_invariance",
    "prop_demand_monotonicity",
    "prop_dspp_reference",
    "prop_elastic_infeasible",
    "prop_events_deterministic_replay",
    "prop_fluid_matches_events",
    "prop_horizon1_mpc_equals_myopic",
    "prop_integer_sandwich",
    "prop_mm1_inversion",
    "prop_mm1_sim",
    "prop_price_monotonicity",
    "prop_qp_reference",
    "prop_qp_workspace_sequence",
    "prop_routing_differential",
    "prop_service_crash_recovery",
    "prop_sharded_equilibrium_equals_serial",
]

# Relative slack granted to equalities between two converged solves.  The
# ADMM terminates at absolute and relative tolerances of 1e-6 and polishes
# most solutions to far better, but objectives are O(1e2..1e4) here, so
# comparisons are normalized by max(1, |a|, |b|) and use this headroom.
_SOLVER_RTOL = 5e-5


def _draw_problem(
    rng: np.random.Generator,
    tier: ScaleTier,
    load: float = 0.6,
    pruned: bool = False,
) -> tuple[DSPPInstance, np.ndarray, np.ndarray]:
    instance = random_pruned_instance(rng, tier) if pruned else random_instance(rng, tier)
    horizon = int(rng.integers(1, tier.max_horizon + 1))
    demand = random_demand(rng, instance, horizon, load=load)
    prices = random_prices(rng, instance, horizon)
    return instance, demand, prices


def prop_qp_reference(rng: np.random.Generator, tier: ScaleTier) -> list[Discrepancy]:
    """The ADMM core (with and without early polish) vs scipy trust-constr."""
    P, q, A, l, u = random_qp(rng, tier)
    problem = QPProblem.build(P, q, A, l, u)
    findings: list[Discrepancy] = []
    for label, settings in (
        ("qp_reference/plain", QPSettings(early_polish=False)),
        ("qp_reference/crossover", QPSettings()),
    ):
        solution = solve_qp(P, q, A, l, u, settings=settings)
        if solution.status is not QPStatus.OPTIMAL:
            findings.append(
                Discrepancy(
                    label,
                    f"solver returned {solution.status.value} on a feasible "
                    "strongly convex QP",
                    math.inf,
                )
            )
            continue
        findings.extend(
            check_qp_against_reference(problem, solution, label, unique_optimum=True)
        )
        findings.extend(check_qp_kkt(problem, solution, label))
    return findings


def prop_qp_workspace_sequence(
    rng: np.random.Generator, tier: ScaleTier
) -> list[Discrepancy]:
    """Warm default workspace solves ≡ fresh plain-ADMM solves along an update walk.

    The cold reference turns early polish off, so the walk compares the
    early polish and the cached certified system against ADMM that only
    crosses over once it has converged.
    """
    P, q, A, l, u = random_qp(rng, tier)
    workspace = QPWorkspace()
    workspace.setup(P, A, q=q, l=l, u=u)
    findings: list[Discrepancy] = []
    num_updates = int(rng.integers(2, 6))
    for step in range(num_updates):
        warm = workspace.solve()
        cold = solve_qp(P, q, A, l, u, settings=QPSettings(early_polish=False))
        label = f"qp_workspace_sequence/step{step}"
        if warm.status is not QPStatus.OPTIMAL or cold.status is not QPStatus.OPTIMAL:
            findings.append(
                Discrepancy(
                    label,
                    f"statuses diverge: warm {warm.status.value} vs "
                    f"cold {cold.status.value}",
                    math.inf,
                )
            )
            break
        gap = relative_gap(warm.objective, cold.objective)
        if gap > _SOLVER_RTOL:
            findings.append(
                Discrepancy(
                    label,
                    f"warm objective {warm.objective:.9g} vs cold "
                    f"{cold.objective:.9g}",
                    gap,
                )
            )
        x_gap = float(np.max(np.abs(warm.x - cold.x)))
        scale = max(1.0, float(np.max(np.abs(cold.x))))
        if x_gap / scale > 1e-3:
            findings.append(
                Discrepancy(
                    label,
                    f"warm and cold primal solutions differ by {x_gap:.3e} "
                    "on a strongly convex problem",
                    x_gap / scale,
                )
            )
        # Feasibility-preserving perturbation: moving the bounds by
        # ``A @ delta`` translates the feasible set (the witness moves by
        # ``delta``), so the walk never strays into infeasibility and the
        # equality pattern survives verbatim.
        scale_q = float(rng.uniform(0.02, 0.3))
        q = q + scale_q * rng.normal(size=q.size)
        shift = A @ (scale_q * rng.normal(size=q.size))
        l = l + shift
        u = u + shift
        workspace.update(q=q, l=l, u=u)
    return findings


class _Pair(NamedTuple):
    """Two solve paths of one DSPP problem: a row of :data:`EQUIVALENCE_PAIRS`.

    The candidate solves on one persistent workspace, and the walk advances
    the state along its trajectories.  The reference keeps one workspace
    along the walk only if ``reference_persists``; otherwise each of its
    solves is cold.  A ``pruned_share`` of draws comes from
    :func:`random_pruned_instance`, the rest from :func:`random_instance`.
    ``banded`` forces the KKT backend of the reference and candidate
    workspaces (``None``: the ``use_banded_backend`` rule), because the
    rule sends every tier's draws to the sparse backend.  ``full_mask``
    forces the full pair mask on a side (``False``: the
    ``prunes_unusable_pairs`` rule).
    """

    reference_persists: bool
    pruned_share: float
    banded: tuple[bool | None, bool | None] = (None, None)
    full_mask: tuple[bool, bool] = (False, False)


# The paths Algorithm 1 may take to the same horizon QP.  A new path
# equivalence is a new row here, not a new check.  The layout pair draws
# only pruned instances, whose state is zero at every SLA-unusable pair,
# so the rule prunes the candidate side at every solve of the walk.
EQUIVALENCE_PAIRS: dict[str, _Pair] = {
    "backend": _Pair(True, 0.4, banded=(False, True)),
    "layout": _Pair(True, 1.0, full_mask=(True, False)),
    "warm": _Pair(False, 0.4),
}


def _dual_mismatches(a: np.ndarray, b: np.ndarray, signed: bool) -> int:
    """Multipliers confidently nonzero on one side but zero (or, if
    ``signed``, of the other sign) on the other."""
    scale = float(max(np.max(np.abs(a), initial=1.0), np.max(np.abs(b), initial=1.0)))
    pattern_a, pattern_b = np.abs(a) > 1e-6 * scale, np.abs(b) > 1e-6 * scale
    if signed:
        pattern_a, pattern_b = np.sign(a) * pattern_a, np.sign(b) * pattern_b
    confident = np.maximum(np.abs(a), np.abs(b)) > 1e-5 * scale
    return int(np.sum((pattern_a != pattern_b) & confident))


def _compare_sides(
    label: str,
    pair: _Pair,
    instance: DSPPInstance,
    reference: DSPPSolution,
    candidate: DSPPSolution,
) -> list[Discrepancy]:
    """Everything two solve paths of one DSPP problem must agree on."""
    ref_qp, cand_qp = reference.qp, candidate.qp
    if ref_qp.status is not cand_qp.status:
        message = (
            f"statuses diverge: reference {ref_qp.status.value} vs "
            f"candidate {cand_qp.status.value}"
        )
        return [Discrepancy(label, message, math.inf)]
    findings: list[Discrepancy] = []
    # Two polished solves on persistent workspaces sit at the exact optimum
    # of the same active-set system.  A cold solve may certify a different,
    # equally optimal active set, so it gets solver tolerance, as does a
    # declined polish.
    exact = ref_qp.polished and cand_qp.polished and pair.reference_persists
    gap = relative_gap(candidate.objective, reference.objective)
    if gap > (1e-9 if exact else _SOLVER_RTOL):
        message = (
            f"candidate objective {candidate.objective:.12g} vs "
            f"reference {reference.objective:.12g}"
        )
        findings.append(Discrepancy(label, message, gap))
    # The objective is strictly convex in the state trajectory (the
    # reconfiguration quadratic, pulled back through the invertible state
    # equation): the optimum is unique, so the states must match too.
    states, ref_states = candidate.trajectory.states, reference.trajectory.states
    x_gap = float(np.max(np.abs(states - ref_states), initial=0.0))
    x_gap /= max(1.0, float(np.max(np.abs(ref_states), initial=0.0)))
    if x_gap > 1e-3:
        message = f"state trajectories differ by {x_gap:.3e} (relative)"
        findings.append(Discrepancy(label, message, x_gap))
    # Capacity rows are never pruned, so their (T, L) multipliers line up
    # on every path.
    mismatched = _dual_mismatches(reference.capacity_duals, candidate.capacity_duals, False)
    if mismatched:
        message = f"{mismatched} capacity constraints are active on one side only"
        findings.append(Discrepancy(label, message, float(mismatched)))
    # On the same layout and solve path every row lines up, and the two
    # sides must certify the same active set.
    same_layout = pair.full_mask[0] == pair.full_mask[1]
    if pair.reference_persists and same_layout:
        mismatched = _dual_mismatches(ref_qp.y, cand_qp.y, True)
        if mismatched:
            message = f"{mismatched} constraints are active on one side only"
            findings.append(Discrepancy(label, message, float(mismatched)))
    # Pruned pairs are pinned, not solved: the scatter-back writes literal
    # zeros, and anything else would stop the next period's pruning.
    usable = instance.usable_pairs
    if not same_layout and not usable.all():
        leaked = int(np.count_nonzero(states[:, ~usable]))
        if leaked:
            message = f"{leaked} pruned-pair state entries are not exact zeros"
            findings.append(Discrepancy(label, message, float(leaked)))
    return findings


def prop_config_equivalence(
    rng: np.random.Generator, tier: ScaleTier, pair: str
) -> list[Discrepancy]:
    """The two solve paths of ``EQUIVALENCE_PAIRS[pair]`` agree, solve for
    solve, along one receding-horizon walk.

    The walk draws a problem in the well-conditioned regime the controller
    operates in (moderate loads and slack penalties) and solves it 2–3
    times.  Between solves it draws fresh forecasts, sometimes swaps the
    capacities and sometimes advances the state.  Half the walks then
    shrink the window one period at a time, as a finite run's last periods
    do.  The swaps and shrinks are drawn from a generator spawned off
    ``rng``, which leaves ``rng``'s own stream as it was without them.
    """
    config = EQUIVALENCE_PAIRS[pair]
    moves = rng.spawn(1)[0]
    instance, demand, prices = _draw_problem(
        rng,
        tier,
        load=float(rng.uniform(0.3, 0.8)),
        pruned=bool(rng.random() < config.pruned_share),
    )
    penalty = float(rng.uniform(5.0, 50.0)) if rng.random() < 0.3 else None
    def workspace(side: int) -> DSPPWorkspace:
        return DSPPWorkspace(_banded=config.banded[side], _full_mask=config.full_mask[side])

    reference_workspace, candidate_workspace = workspace(0), workspace(1)
    findings: list[Discrepancy] = []

    def compare(label: str) -> DSPPSolution:
        sides = (
            reference_workspace if config.reference_persists else workspace(0),
            candidate_workspace,
        )
        reference, candidate = [
            solve_dspp(
                instance,
                demand,
                prices,
                demand_slack_penalty=penalty,
                workspace=side,
            )
            for side in sides
        ]
        label = f"config_equivalence/{pair}/{label}"
        findings.extend(_compare_sides(label, config, instance, reference, candidate))
        return candidate

    horizon = demand.shape[1]
    candidate = compare("step0")
    for step in range(1, int(rng.integers(2, 4))):
        demand = random_demand(rng, instance, horizon, load=0.5)
        prices = random_prices(rng, instance, horizon)
        if moves.random() < 0.5:
            swap = moves.uniform(0.9, 1.2, size=instance.num_datacenters)
            instance = instance.with_capacities(instance.capacities * swap)
        if rng.random() < 0.4:
            instance = instance.with_initial_state(candidate.trajectory.states[0])
        candidate = compare(f"step{step}")
    if horizon > 1 and moves.random() < 0.5:
        for shrink in range(int(moves.integers(1, horizon))):
            instance = instance.with_initial_state(candidate.trajectory.states[0])
            demand, prices = demand[:, 1:], prices[:, 1:]
            candidate = compare(f"shrink{shrink}")
    return findings


def prop_dspp_reference(rng: np.random.Generator, tier: ScaleTier) -> list[Discrepancy]:
    """Stacked DSPP solve vs trust-constr, plus a trajectory feasibility audit."""
    instance, demand, prices = _draw_problem(rng, tier, load=float(rng.uniform(0.3, 0.95)))
    solution = solve_dspp(instance, demand, prices)
    stacked = build_stacked_qp(instance, demand, prices)
    problem = QPProblem.build(stacked.P, stacked.q, stacked.A, stacked.l, stacked.u)
    findings = check_qp_against_reference(
        problem, solution.qp, "dspp_reference", objective_tol=1e-4
    )

    # Audited costs must agree with the raw QP objective (the audit recomputes
    # them from the cleaned trajectory).
    gap = relative_gap(solution.costs.total, solution.qp.objective)
    if gap > 1e-4:
        findings.append(
            Discrepancy(
                "dspp_reference/audit",
                f"cost audit {solution.costs.total:.9g} vs QP objective "
                f"{solution.qp.objective:.9g}",
                gap,
            )
        )

    # Trajectory feasibility on the original constraint system.
    states = solution.trajectory.states
    coeff = instance.demand_coefficients
    served = np.einsum("lv,tlv->tv", coeff, states)
    demand_violation = float(np.max(demand.T - served, initial=0.0))
    used = instance.server_size * states.sum(axis=2)
    capacity_violation = float(np.max(used - instance.capacities[None, :], initial=0.0))
    scale = max(1.0, float(demand.max(initial=0.0)))
    for name, violation in (
        ("demand", demand_violation),
        ("capacity", capacity_violation),
    ):
        if violation > 1e-4 * scale:
            findings.append(
                Discrepancy(
                    f"dspp_reference/{name}",
                    f"{name} constraint violated by {violation:.3e}",
                    violation / scale,
                )
            )
    if float(states.min(initial=0.0)) < 0.0:
        findings.append(
            Discrepancy(
                "dspp_reference/nonneg",
                f"negative allocation {states.min():.3e} survived cleaning",
                -float(states.min()),
            )
        )
    return findings


def prop_cost_scale_invariance(
    rng: np.random.Generator, tier: ScaleTier
) -> list[Discrepancy]:
    """Scaling prices *and* reconfiguration weights by α scales costs by α."""
    instance, demand, prices = _draw_problem(rng, tier)
    alpha = float(rng.uniform(0.2, 5.0))
    base = solve_dspp(instance, demand, prices)
    scaled_instance = DSPPInstance(
        datacenters=instance.datacenters,
        locations=instance.locations,
        sla_coefficients=instance.sla_coefficients,
        reconfiguration_weights=alpha * instance.reconfiguration_weights,
        capacities=instance.capacities,
        initial_state=instance.initial_state,
        server_size=instance.server_size,
    )
    scaled = solve_dspp(scaled_instance, demand, alpha * prices)
    gap = relative_gap(scaled.objective, alpha * base.objective)
    if gap > _SOLVER_RTOL:
        return [
            Discrepancy(
                "cost_scale_invariance",
                f"objective at α={alpha:.3g} is {scaled.objective:.9g}, "
                f"expected {alpha * base.objective:.9g}",
                gap,
            )
        ]
    return []


def prop_demand_monotonicity(
    rng: np.random.Generator, tier: ScaleTier
) -> list[Discrepancy]:
    """Raising demand (within feasibility) cannot lower the optimal cost."""
    instance, demand, prices = _draw_problem(rng, tier, load=0.5)
    beta = float(rng.uniform(1.0, 1.6))
    low = solve_dspp(instance, demand, prices)
    high = solve_dspp(instance, beta * demand, prices)
    slack = _SOLVER_RTOL * max(1.0, abs(low.objective), abs(high.objective))
    if high.objective < low.objective - slack:
        return [
            Discrepancy(
                "demand_monotonicity",
                f"objective fell from {low.objective:.9g} to {high.objective:.9g} "
                f"when demand was scaled by β={beta:.3g}",
                (low.objective - high.objective) / max(1.0, abs(low.objective)),
            )
        ]
    return []


def prop_price_monotonicity(
    rng: np.random.Generator, tier: ScaleTier
) -> list[Discrepancy]:
    """Raising any subset of prices cannot lower the optimal cost."""
    instance, demand, prices = _draw_problem(rng, tier)
    bump = rng.uniform(0.0, 1.0, size=prices.shape) * (rng.random(size=prices.shape) < 0.5)
    low = solve_dspp(instance, demand, prices)
    high = solve_dspp(instance, demand, prices + bump)
    slack = _SOLVER_RTOL * max(1.0, abs(low.objective), abs(high.objective))
    if high.objective < low.objective - slack:
        return [
            Discrepancy(
                "price_monotonicity",
                f"objective fell from {low.objective:.9g} to {high.objective:.9g} "
                "after a nonnegative price bump",
                (low.objective - high.objective) / max(1.0, abs(low.objective)),
            )
        ]
    return []


def prop_horizon1_mpc_equals_myopic(
    rng: np.random.Generator, tier: ScaleTier
) -> list[Discrepancy]:
    """A window-1 MPC step (through the workspace path) ≡ a direct cold solve.

    With a last-value predictor the window-1 forecast *is* the current
    observation, so each controller step must reproduce the one-period
    myopic solve from the same state — applied control and objective both.
    This crosses three layers at once: predictor plumbing, the persistent
    workspace fast path, and the receding state update.
    """
    instance, demand, prices = _draw_problem(rng, tier, load=0.5)
    num_steps = int(rng.integers(2, 5))
    demand_trace = random_demand(rng, instance, num_steps, load=0.5)
    price_trace = random_prices(rng, instance, num_steps)
    controller = MPCController(
        instance,
        LastValuePredictor(instance.num_locations),
        LastValuePredictor(instance.num_datacenters),
        MPCConfig(window=1),
    )
    findings: list[Discrepancy] = []
    for k in range(num_steps):
        state_before = controller.state
        step = controller.step(demand_trace[:, k], price_trace[:, k])
        myopic = solve_dspp(
            instance.with_initial_state(state_before),
            demand_trace[:, k : k + 1],
            price_trace[:, k : k + 1],
        )
        gap = relative_gap(step.solution.objective, myopic.objective)
        if gap > _SOLVER_RTOL:
            findings.append(
                Discrepancy(
                    "horizon1_mpc_equals_myopic",
                    f"step {k}: MPC objective {step.solution.objective:.9g} vs "
                    f"myopic {myopic.objective:.9g}",
                    gap,
                )
            )
        control_gap = float(np.max(np.abs(step.applied_control - myopic.first_control)))
        scale = max(1.0, float(np.max(np.abs(myopic.first_control))))
        if control_gap / scale > 1e-3:
            findings.append(
                Discrepancy(
                    "horizon1_mpc_equals_myopic",
                    f"step {k}: applied controls differ by {control_gap:.3e}",
                    control_gap / scale,
                )
            )
    return findings


def _equilibrium_mismatches(
    label: str, serial: "BestResponseResult", sharded: "BestResponseResult"
) -> list[Discrepancy]:
    """Bitwise comparison of two Algorithm 2 outcomes."""
    findings: list[Discrepancy] = []

    def report(what: str, magnitude: float) -> None:
        findings.append(
            Discrepancy(
                "sharded_equilibrium_equals_serial",
                f"{label}: {what} differs from the serial run",
                magnitude,
            )
        )

    if sharded.iterations != serial.iterations:
        report("iteration count", abs(sharded.iterations - serial.iterations))
    if sharded.converged != serial.converged:
        report("convergence flag", 1.0)
    if sharded.cost_history != serial.cost_history:
        report(
            "cost history",
            float(
                max(
                    abs(a - b)
                    for a, b in zip(sharded.cost_history, serial.cost_history)
                )
                if len(sharded.cost_history) == len(serial.cost_history)
                else math.inf
            ),
        )
    for what, a, b in (
        ("provider costs", sharded.provider_costs, serial.provider_costs),
        ("quotas", sharded.quotas, serial.quotas),
    ):
        if not np.array_equal(a, b):
            report(what, float(np.max(np.abs(a - b))))
    if sharded.total_cost != serial.total_cost:
        report("total cost", abs(sharded.total_cost - serial.total_cost))
    if sharded.total_shortfall != serial.total_shortfall:
        report(
            "total shortfall",
            abs(sharded.total_shortfall - serial.total_shortfall),
        )
    for i, (warm, cold) in enumerate(zip(sharded.solutions, serial.solutions)):
        for what, a, b in (
            (f"solution {i} states", warm.trajectory.states, cold.trajectory.states),
            (f"solution {i} duals", warm.capacity_duals, cold.capacity_duals),
            (f"solution {i} slack", warm.demand_slack, cold.demand_slack),
        ):
            if not np.array_equal(a, b):
                report(what, float(np.max(np.abs(a - b))))
    return findings


def prop_sharded_equilibrium_equals_serial(
    rng: np.random.Generator, tier: ScaleTier
) -> list[Discrepancy]:
    """Algorithm 2 through the sharded pool ≡ the serial inline run, bitwise.

    Each provider is solved by exactly one shard against a dedicated
    workspace, and the coordinator reduces the dual reports in fixed
    provider order — so quotas, costs, iteration counts and full
    solutions must be *bitwise* identical at any jobs count, not merely
    within solver tolerance.

    Heavily over-subscribed draws can make the elastic QP itself fail to
    converge; that is solver hardness (covered by the solver checks), not
    a sharding property, so a serial-side ``RuntimeError`` vacuously
    passes the trial.  Determinism still cuts both ways: if the serial
    run succeeds, a sharded run raising is itself a discrepancy.
    """
    L = int(rng.integers(1, tier.max_datacenters + 1))
    V = int(rng.integers(1, tier.max_locations + 1))
    horizon = int(rng.integers(2, tier.max_horizon + 1))
    num_providers = int(rng.integers(2, 5))
    latency = rng.uniform(10.0, 60.0, size=(L, V))
    providers = random_providers(
        num_providers,
        tuple(f"dc{i}" for i in range(L)),
        tuple(f"v{i}" for i in range(V)),
        latency,
        horizon,
        rng,
        demand_scale=float(rng.uniform(20.0, 80.0)),
    )
    # Between scarce (quota negotiation bites) and comfortable capacity.
    peak = sum(float(p.servers_demanded().max()) for p in providers)
    capacity = np.full(L, float(rng.uniform(0.4, 1.6)) * max(peak, 1.0) / L)
    config = BestResponseConfig(epsilon=1e-3, max_iterations=8)
    try:
        serial = compute_equilibrium(providers, capacity, config, jobs=1)
    except RuntimeError:
        return []
    findings: list[Discrepancy] = []
    for jobs in (2, 4):
        try:
            sharded = compute_equilibrium(providers, capacity, config, jobs=jobs)
        except RuntimeError as exc:
            findings.append(
                Discrepancy(
                    "sharded_equilibrium_equals_serial",
                    f"jobs={jobs} raised {exc!r} where the serial run "
                    "converged — shards must replay the identical solve",
                    float("inf"),
                )
            )
            continue
        findings.extend(
            _equilibrium_mismatches(f"jobs={jobs}", serial, sharded)
        )
    return findings


def _tiny_integer_problem(
    rng: np.random.Generator,
) -> tuple[DSPPInstance, np.ndarray, np.ndarray]:
    """A deliberately tiny single-period instance for exhaustive enumeration.

    Integer initial state and generous capacities keep the brute-force box
    small and the rounding repair trivially in play.
    """
    L = int(rng.integers(1, 3))
    V = int(rng.integers(1, 3))
    instance = DSPPInstance(
        datacenters=tuple(f"dc{i}" for i in range(L)),
        locations=tuple(f"v{i}" for i in range(V)),
        sla_coefficients=rng.uniform(0.5, 2.0, size=(L, V)),
        reconfiguration_weights=rng.uniform(0.2, 2.0, size=L),
        capacities=np.full(L, 50.0),
        initial_state=rng.integers(0, 3, size=(L, V)).astype(float),
        server_size=1.0,
    )
    demand = rng.uniform(0.0, 3.0, size=(V, 1))
    prices = rng.uniform(0.5, 3.0, size=(L, 1))
    return instance, demand, prices


def prop_integer_sandwich(rng: np.random.Generator, tier: ScaleTier) -> list[Discrepancy]:
    """Continuous relaxation ≤ brute-force integer optimum ≤ repair cost.

    ``tier`` is ignored: enumeration is only affordable at the dedicated
    tiny scale this property draws itself.
    """
    del tier
    instance, demand, prices = _tiny_integer_problem(rng)
    relaxed = solve_dspp(instance, demand, prices)
    # Bound the enumeration box: no optimal integer solution allocates more
    # than what serves the whole location's demand outright (plus the
    # initial state it might hold to dodge reconfiguration cost).
    needed = instance.sla_coefficients * demand[:, 0][None, :]
    needed = np.where(np.isfinite(needed), needed, 0.0)
    box = int(np.ceil(max(float(needed.max(initial=0.0)), float(instance.initial_state.max(initial=0.0))))) + 1
    brute = brute_force_placement(instance, demand[:, 0], prices[:, 0], box)
    findings: list[Discrepancy] = []
    if brute is None:
        return [
            Discrepancy(
                "integer_sandwich",
                "no feasible integer point in the enumeration box although the "
                "continuous relaxation is feasible and capacities are generous",
                math.inf,
            )
        ]
    _, brute_cost = brute
    slack = 1e-6 * max(1.0, abs(brute_cost))
    if relaxed.objective > brute_cost + slack:
        findings.append(
            Discrepancy(
                "integer_sandwich",
                f"continuous relaxation {relaxed.objective:.9g} exceeds the exact "
                f"integer optimum {brute_cost:.9g}",
                relative_gap(relaxed.objective, brute_cost),
            )
        )
    try:
        repaired = solve_dspp_integer(instance, demand, prices)
    except IntegerRepairError:
        return findings + [
            Discrepancy(
                "integer_sandwich",
                "round_repair failed although a feasible integer point exists",
                math.inf,
            )
        ]
    if repaired.objective < brute_cost - slack:
        findings.append(
            Discrepancy(
                "integer_sandwich",
                f"rounded solution cost {repaired.objective:.9g} beats the exact "
                f"integer optimum {brute_cost:.9g}",
                relative_gap(repaired.objective, brute_cost),
            )
        )
    return findings


def prop_elastic_infeasible(
    rng: np.random.Generator, tier: ScaleTier
) -> list[Discrepancy]:
    """Demand beyond ``max_supportable_demand`` must raise; elastic must pay.

    The hard-constrained solve has to produce a
    :class:`~repro.core.dspp.DSPPInfeasibleError`; the elastic solve of the
    same data must succeed, report positive slack, and account for it in
    the objective exactly as ``costs.total + penalty * slack``.
    """
    instance, _, prices = _draw_problem(rng, tier)
    horizon = prices.shape[1]
    # Strictly above the dedicated-everything bound for one location.
    demand = random_demand(rng, instance, horizon, load=0.4)
    hot = int(rng.integers(0, instance.num_locations))
    demand[hot, :] = instance.max_supportable_demand()[hot] * float(rng.uniform(1.1, 1.5))
    findings: list[Discrepancy] = []
    try:
        _ = solve_dspp(instance, demand, prices)  # must raise; result unused
        findings.append(
            Discrepancy(
                "elastic_infeasible",
                "hard-constrained solve accepted demand above the provable "
                "feasibility bound",
                math.inf,
            )
        )
    except DSPPInfeasibleError:
        pass
    penalty = float(rng.uniform(5.0, 50.0))
    # The slack-augmented QP is the worst-conditioned problem in the fuzz
    # grid (demand far beyond capacity, large penalty), so give ADMM a
    # higher iteration budget than the defaults tuned for feasible solves.
    elastic = solve_dspp(
        instance,
        demand,
        prices,
        demand_slack_penalty=penalty,
        settings=QPSettings(max_iterations=80000),
    )
    total_slack = float(elastic.demand_slack.sum())
    if total_slack <= 0.0:
        findings.append(
            Discrepancy(
                "elastic_infeasible",
                "elastic solve reported zero slack on an infeasible instance",
                math.inf,
            )
        )
    expected = elastic.costs.total + penalty * total_slack
    gap = relative_gap(elastic.objective, expected)
    if gap > 1e-6:
        findings.append(
            Discrepancy(
                "elastic_infeasible",
                f"elastic objective {elastic.objective:.9g} does not equal "
                f"costs + penalty*slack = {expected:.9g}",
                gap,
            )
        )
    return findings


def prop_routing_differential(
    rng: np.random.Generator, tier: ScaleTier
) -> list[Discrepancy]:
    """The transportation LP never loses to the proportional policy.

    Both assignments must route the full demand within the per-pair SLA
    capacities, and the LP's demand-weighted latency must be no worse than
    the decentralized policy's (it minimizes over a superset).
    """
    allocation, demand, coeff, latency = random_routing_problem(rng, tier)
    proportional = proportional_assignment(allocation, demand, coeff)
    optimal = optimal_assignment(allocation, demand, coeff, latency)
    findings: list[Discrepancy] = []
    capacity = allocation * coeff
    scale = max(1.0, float(demand.max(initial=0.0)))
    for name, sigma in (("proportional", proportional), ("optimal", optimal.assignment)):
        routed_gap = float(np.max(np.abs(sigma.sum(axis=0) - demand)))
        over_capacity = float(np.max(sigma - capacity, initial=0.0))
        if routed_gap > 1e-6 * scale:
            findings.append(
                Discrepancy(
                    "routing_differential",
                    f"{name} assignment mis-routes demand by {routed_gap:.3e}",
                    routed_gap / scale,
                )
            )
        if over_capacity > 1e-6 * scale:
            findings.append(
                Discrepancy(
                    "routing_differential",
                    f"{name} assignment exceeds a pair capacity by {over_capacity:.3e}",
                    over_capacity / scale,
                )
            )
    proportional_latency = float((latency * proportional).sum())
    slack = 1e-6 * max(1.0, proportional_latency)
    if optimal.total_weighted_latency > proportional_latency + slack:
        findings.append(
            Discrepancy(
                "routing_differential",
                f"LP latency {optimal.total_weighted_latency:.9g} exceeds the "
                f"proportional policy's {proportional_latency:.9g}",
                relative_gap(optimal.total_weighted_latency, proportional_latency),
            )
        )
    return findings


def prop_mm1_sim(rng: np.random.Generator, tier: ScaleTier) -> list[Discrepancy]:
    """Analytic M/M/1 sojourn times vs the event-driven simulator."""
    del tier
    service_rate = float(rng.uniform(0.5, 4.0))
    rho = float(rng.uniform(0.2, 0.8))
    return check_mm1_against_sim(rng, rho * service_rate, service_rate, "mm1_sim")


def prop_mm1_inversion(rng: np.random.Generator, tier: ScaleTier) -> list[Discrepancy]:
    """The SLA inversion (eq. 9-11) and delay monotonicity, analytically."""
    del tier
    findings: list[Discrepancy] = []
    mu = float(rng.uniform(0.5, 4.0))
    sigma = float(rng.uniform(0.1, 50.0))
    max_delay = float(1.0 / mu * rng.uniform(1.1, 10.0))
    servers = required_servers(sigma, mu, max_delay)
    if servers > 0:
        achieved = queueing_delay(servers * (1.0 + 1e-12), sigma, mu)
        if achieved > max_delay * (1.0 + 1e-6):
            findings.append(
                Discrepancy(
                    "mm1_inversion",
                    f"required_servers({sigma:.3g}, {mu:.3g}, {max_delay:.3g}) = "
                    f"{servers:.6g} misses the bound: delay {achieved:.6g}",
                    achieved / max_delay - 1.0,
                )
            )
        more = queueing_delay(servers * 2.0, sigma, mu)
        if more > achieved * (1.0 + 1e-9):
            findings.append(
                Discrepancy(
                    "mm1_inversion",
                    "queueing delay increased when servers were doubled",
                    more - achieved,
                )
            )
    return findings


def _small_event_setup(
    rng: np.random.Generator, tier: ScaleTier
) -> tuple[Scenario, int]:
    """A tier-capped small scenario plus a derived replay seed."""
    num_datacenters = int(rng.integers(2, max(2, min(tier.max_datacenters, 3)) + 1))
    num_locations = int(rng.integers(2, max(2, min(tier.max_locations, 3)) + 1))
    scenario = build_small_scenario(
        num_periods=4,
        num_datacenters=num_datacenters,
        num_locations=num_locations,
        seed=int(rng.integers(2**31)),
    )
    return scenario, int(rng.integers(2**31))


def prop_fluid_matches_events(
    rng: np.random.Generator, tier: ScaleTier
) -> list[Discrepancy]:
    """Request-level replay vs the fluid M/M/1 predictions, load-matched.

    An MPC trajectory is computed for a small scenario, then replayed at
    request granularity by :class:`repro.events.engine.EventEngine`; per
    ``(period, l, v)`` cell the measured mean sojourn and SLA violation
    rate must match the M/M/1 closed forms evaluated *at the measured
    per-server arrival rate* (so the comparison is load-matched and
    tests the queueing model, not the forecast).

    Tolerance derivation (see also
    :func:`repro.simulation.queue_sim.effective_sample_size`): for a
    stable M/M/1 queue at utilization ``rho`` the sojourn time is
    ``Exp(mu - lambda)`` with mean and standard deviation both
    ``m = 1/(mu - lambda)``.  Consecutive sojourns are positively
    correlated through shared busy periods, so the sample mean's
    standard error uses the discounted count ``n_eff = n (1 - rho)^2``
    rather than ``n``.  The mean-delay gate is

        ``|measured - m| <= z * m / sqrt(n_eff) + 0.08 * m``,  ``z = 6``

    a six-standard-error interval (head-room for the ~10^5 cells a
    6-seed x 200-trial campaign examines: a false alarm needs a
    six-sigma excursion) plus an 8% relative floor absorbing the
    residual cold-start bias that per-period warmup truncation leaves.
    The violation-rate gate applies the binomial standard error at the
    predicted rate ``p = exp(-(mu - lambda)(dbar - d_lv))`` with the
    same ``n_eff`` discount (indicator samples inherit the sojourn
    autocorrelation):

        ``|rate - p| <= z * sqrt(p (1 - p) / n_eff) + 0.05``.

    Cells with fewer than 400 measured requests, ``n_eff < 25``, or
    ``rho > 0.9`` are skipped — below that there is no stable estimate
    to compare against.
    """
    scenario, replay_seed = _small_event_setup(rng, tier)
    controller = MPCController(
        scenario.instance,
        OraclePredictor(scenario.demand),
        OraclePredictor(scenario.prices),
        MPCConfig(window=2, slack_penalty=200.0),
    )
    trajectory = SimulationEngine(scenario, controller).run()
    calibration = CalibrationCollector()
    config = EventReplayConfig(
        seed=replay_seed, total_requests=24_000.0, warmup_fraction=0.2
    )
    EventEngine(
        scenario, trajectory.states, config=config, collectors=(calibration,)
    ).run()

    z = 6.0
    findings: list[Discrepancy] = []
    for cell in calibration.cells:
        if cell.measured < 400 or cell.utilization > 0.9:
            continue
        if not math.isfinite(cell.predicted_sojourn):
            continue
        n_eff = effective_sample_size(cell.measured, cell.utilization)
        if n_eff < 25.0:
            continue
        m = cell.predicted_sojourn
        mean_tol = z * m / math.sqrt(n_eff) + 0.08 * m
        mean_gap = abs(cell.mean_sojourn - m)
        if mean_gap > mean_tol:
            findings.append(
                Discrepancy(
                    "fluid_matches_events",
                    f"cell (p={cell.period}, l={cell.datacenter}, "
                    f"v={cell.location}): measured mean sojourn "
                    f"{cell.mean_sojourn:.6g} vs M/M/1 prediction {m:.6g} "
                    f"at rho={cell.utilization:.3f}, n={cell.measured} "
                    f"(tolerance {mean_tol:.3g})",
                    mean_gap / mean_tol,
                )
            )
        p = cell.predicted_violation_rate
        rate_tol = z * math.sqrt(max(p * (1.0 - p), 0.0) / n_eff) + 0.05
        rate_gap = abs(cell.violation_rate - p)
        if rate_gap > rate_tol:
            findings.append(
                Discrepancy(
                    "fluid_matches_events",
                    f"cell (p={cell.period}, l={cell.datacenter}, "
                    f"v={cell.location}): measured violation rate "
                    f"{cell.violation_rate:.4f} vs predicted {p:.4f} "
                    f"at rho={cell.utilization:.3f}, n={cell.measured} "
                    f"(tolerance {rate_tol:.3g})",
                    rate_gap / rate_tol,
                )
            )
    return findings


def prop_events_deterministic_replay(
    rng: np.random.Generator, tier: ScaleTier
) -> list[Discrepancy]:
    """Same seed => bitwise-identical replay, any jobs count or collectors.

    Replays a static trajectory three times — serial with the full
    collector set, parallel (``jobs=2``) with only the log collector,
    and serial again — over a randomly drawn arrival process.  The event
    logs must be exactly equal (NaN markers included) and every derived
    metric must be exactly reproduced: randomness may depend on the seed
    material only, never on worker count, collector set, or call order.
    """
    scenario, replay_seed = _small_event_setup(rng, tier)
    instance = scenario.instance
    V = instance.num_locations
    K = scenario.num_periods
    per_pair = np.tile(
        0.6 * instance.capacities[:, None] / (instance.server_size * V), (1, V)
    )
    states = np.tile(per_pair, (K - 1, 1, 1))

    kind = int(rng.integers(3))
    process: PoissonArrivals | MMPPArrivals | RegionalShockArrivals
    if kind == 0:
        process = PoissonArrivals(rates=scenario.demand)
    elif kind == 1:
        process = MMPPArrivals(
            rates=scenario.demand, burstiness=float(rng.uniform(0.3, 0.9))
        )
    else:
        process = RegionalShockArrivals(
            rates=scenario.demand,
            regions=tuple(v % 2 for v in range(V)),
            sigma=float(rng.uniform(0.3, 0.8)),
            shock_probability=0.5,
        )
    config = EventReplayConfig(
        seed=replay_seed, total_requests=4_000.0, warmup_fraction=0.1
    )

    def replay(
        jobs: int, with_metrics: bool
    ) -> tuple[np.ndarray, EventLog, LocationStats | None, np.ndarray | None]:
        log = EventLogCollector()
        latency = LatencyCollector() if with_metrics else None
        throughput = ThroughputCollector() if with_metrics else None
        collectors: list[Collector] = [log]
        if latency is not None and throughput is not None:
            collectors += [latency, throughput]
        result = EventEngine(
            scenario, states, config=config, process=process, collectors=collectors
        ).run(jobs=jobs)
        stats = latency.location_stats() if latency is not None else None
        rows = throughput.per_period() if throughput is not None else None
        return result.status_counts, log.log(), stats, rows

    counts_a, log_a, stats_a, rows_a = replay(jobs=1, with_metrics=True)
    counts_b, log_b, _, _ = replay(jobs=2, with_metrics=False)
    counts_c, log_c, stats_c, rows_c = replay(jobs=1, with_metrics=True)

    findings: list[Discrepancy] = []
    if not logs_equal(log_a, log_b):
        findings.append(
            Discrepancy(
                "events_deterministic_replay",
                "event log differs between jobs=1 (full collectors) and "
                "jobs=2 (log-only)",
                1.0,
            )
        )
    if not logs_equal(log_a, log_c):
        findings.append(
            Discrepancy(
                "events_deterministic_replay",
                "event log differs between two identical serial replays",
                1.0,
            )
        )
    if not (
        np.array_equal(counts_a, counts_b) and np.array_equal(counts_a, counts_c)
    ):
        findings.append(
            Discrepancy(
                "events_deterministic_replay",
                "status counts differ across replays of the same seed",
                1.0,
            )
        )
    if stats_a is not None and stats_c is not None:
        for name in (
            "arrivals",
            "served",
            "dropped",
            "stranded",
            "measured",
            "violations",
            "mean_latency",
            "violation_rate",
        ):
            first = getattr(stats_a, name)
            second = getattr(stats_c, name)
            if not np.array_equal(first, second, equal_nan=bool(first.dtype.kind == "f")):
                findings.append(
                    Discrepancy(
                        "events_deterministic_replay",
                        f"LatencyCollector field {name!r} not exactly reproduced",
                        1.0,
                    )
                )
    if rows_a is not None and rows_c is not None and not np.array_equal(rows_a, rows_c):
        findings.append(
            Discrepancy(
                "events_deterministic_replay",
                "ThroughputCollector rows not exactly reproduced",
                1.0,
            )
        )
    return findings


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Same shape, dtype and bytes (NaN payloads included)."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _same_summary(a: RunSummary, b: RunSummary) -> bool:
    """Field-wise bitwise equality of two run summaries (NaN == NaN)."""
    return all(
        np.float64(x).tobytes() == np.float64(y).tobytes()
        for x, y in zip(dataclasses.astuple(a), dataclasses.astuple(b))
    )


def _comparable_events(events: tuple[DegradationEvent, ...]) -> list[tuple[object, ...]]:
    """Degradation events as compared across a restore.

    A ``checkpoint_corrupted`` detail names a byte offset in the damaged
    file, and a resumed run's generations legitimately differ from the
    uninterrupted run's (they carry the restore bookkeeping), so only that
    detail is left out.
    """
    return [
        (
            event.period,
            event.rung,
            event.outcome,
            "" if event.outcome == "checkpoint_corrupted" else event.detail,
            event.attempt,
        )
        for event in events
    ]


def prop_service_crash_recovery(
    rng: np.random.Generator, tier: ScaleTier
) -> list[Discrepancy]:
    """Kill-and-restore the resident service ≡ the uninterrupted run, bitwise.

    Runs the checkpointed :class:`~repro.service.PlacementService` twice
    over the same scenario and (optionally) the same deterministic fault
    plan: once uninterrupted, once abandoned mid-horizon and rebuilt via
    :meth:`~repro.service.PlacementService.restore` from its checkpoint
    directory — exactly what a ``kill -9`` plus restart does.  Everything
    the checkpoint carries must come back bitwise: states, controls,
    routing assignments, the metrics summary, the monitoring demand and
    price histories, the per-period terminal ladder rungs and the
    degradation log (less the resumed run's own ``restored`` and
    ``checkpoint_fallback`` events).  Every period — faulted or not — must
    terminate at a known rung (the ladder never wedges: its ``hold`` rung
    performs no solve).
    """
    num_periods = int(rng.integers(4, 6 if tier.max_horizon <= 6 else 9))
    scenario = build_small_scenario(
        num_periods=num_periods,
        num_datacenters=min(2, tier.max_datacenters),
        num_locations=min(3, tier.max_locations),
        seed=int(rng.integers(0, 2**31)),
    )
    config = ServiceConfig(
        window=int(rng.integers(1, min(3, tier.max_horizon) + 1)),
        # Retain every generation so corruption faults can never exhaust
        # the fallback chain within a trial.
        keep_checkpoints=num_periods + 1,
    )
    fault_plan = (
        make_fault_plan(int(rng.integers(0, 2**31)), num_periods)
        if rng.random() < 0.5
        else None
    )
    crash_at = int(rng.integers(1, num_periods - 1))

    findings: list[Discrepancy] = []
    with tempfile.TemporaryDirectory() as root:
        clean_dir = Path(root) / "clean"
        crash_dir = Path(root) / "crash"
        clean = PlacementService(
            scenario, config, checkpoint_dir=clean_dir, fault_plan=fault_plan
        ).run()
        assert clean is not None
        interrupted = PlacementService(
            scenario, config, checkpoint_dir=crash_dir, fault_plan=fault_plan
        )
        assert interrupted.run(until=crash_at) is None
        del interrupted  # the "crashed" process: its memory is gone
        resumed = PlacementService.restore(crash_dir).run()
        assert resumed is not None

    if not np.array_equal(clean.states, resumed.states):
        findings.append(
            Discrepancy(
                "service_crash_recovery",
                f"states after restore at period {crash_at} are not bitwise "
                "identical to the uninterrupted run",
                float(np.max(np.abs(clean.states - resumed.states), initial=0.0)),
            )
        )
    if not np.array_equal(clean.controls, resumed.controls):
        findings.append(
            Discrepancy(
                "service_crash_recovery",
                f"controls after restore at period {crash_at} are not bitwise "
                "identical to the uninterrupted run",
                float(
                    np.max(np.abs(clean.controls - resumed.controls), initial=0.0)
                ),
            )
        )
    if clean.terminal_rungs != resumed.terminal_rungs:
        findings.append(
            Discrepancy(
                "service_crash_recovery",
                f"terminal ladder rungs diverged: clean={clean.terminal_rungs} "
                f"resumed={resumed.terminal_rungs}",
                1.0,
            )
        )
    if len(clean.routing) != len(resumed.routing) or not all(
        _bitwise_equal(a.assignment, b.assignment)
        for a, b in zip(clean.routing, resumed.routing)
    ):
        findings.append(
            Discrepancy(
                "service_crash_recovery",
                f"routing assignments after restore at period {crash_at} are "
                "not bitwise identical to the uninterrupted run",
                1.0,
            )
        )
    if not _same_summary(clean.summary, resumed.summary):
        findings.append(
            Discrepancy(
                "service_crash_recovery",
                f"run summary diverged: clean={clean.summary} "
                f"resumed={resumed.summary}",
                1.0,
            )
        )
    for history in ("demand_history", "price_history"):
        if not _bitwise_equal(
            getattr(clean.monitoring, history)(),
            getattr(resumed.monitoring, history)(),
        ):
            findings.append(
                Discrepancy(
                    "service_crash_recovery",
                    f"monitoring {history} after restore at period {crash_at} "
                    "is not bitwise identical to the uninterrupted run",
                    1.0,
                )
            )
    resumed_events = tuple(
        event
        for event in resumed.log.events
        if not (
            event.rung == "service"
            and event.outcome in ("restored", "checkpoint_fallback")
        )
    )
    if _comparable_events(clean.log.events) != _comparable_events(resumed_events):
        findings.append(
            Discrepancy(
                "service_crash_recovery",
                f"degradation log diverged after restore at period {crash_at}: "
                f"clean has {len(clean.log)} events, resumed "
                f"{len(resumed_events)} (less restore bookkeeping)",
                1.0,
            )
        )
    for label, result in (("clean", clean), ("resumed", resumed)):
        if len(result.terminal_rungs) != num_periods - 1:
            findings.append(
                Discrepancy(
                    "service_crash_recovery",
                    f"{label} run terminated {len(result.terminal_rungs)} of "
                    f"{num_periods - 1} periods — the ladder must terminate "
                    "every period",
                    1.0,
                )
            )
        for rung in result.terminal_rungs:
            if rung not in LADDER_RUNGS:
                findings.append(
                    Discrepancy(
                        "service_crash_recovery",
                        f"{label} run reports unknown terminal rung {rung!r}",
                        1.0,
                    )
                )
    return findings
