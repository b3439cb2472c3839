"""Tests for the persistent QP workspace (repro.solvers.workspace)."""

from __future__ import annotations

import pickle
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.loop import run_closed_loop
from repro.control.mpc import MPCConfig, MPCController
from repro.core.dspp import DSPPWorkspace, solve_dspp
from repro.core.instance import DSPPInstance
from repro.core.matrices import build_qp_structure, build_qp_vectors
from repro.prediction.oracle import OraclePredictor
from repro.simulation.scenario import build_paper_scenario
from repro.solvers.banded import build_banded_active_set_system, use_banded_backend
from repro.solvers.kkt import (
    build_active_set_system,
    certify_kkt_point,
    guess_active_set,
    kkt_residuals,
    refine_active_set_solution,
    solve_active_set_system,
)
from repro.solvers.qp import QPProblem, QPSettings, QPStatus, solve_qp
from repro.solvers.workspace import QPWorkspace
from repro.verify.generators import (
    TIERS,
    random_demand,
    random_instance,
    random_prices,
    random_qp,
)


def _random_qp(rng, n=8, m=12):
    """A strongly convex random QP (unique optimum) with finite box rows."""
    M = rng.normal(size=(n, n))
    P = sp.csc_matrix(M @ M.T + n * np.eye(n))
    q = rng.normal(size=n)
    A = sp.csc_matrix(rng.normal(size=(m, n)))
    center = rng.normal(size=m)
    width = rng.uniform(0.5, 2.0, size=m)
    return P, q, A, center - width, center + width


def _perturb(rng, q, l, u, scale=0.1):
    q2 = q + scale * rng.normal(size=q.size)
    shift = scale * rng.normal(size=l.size)
    return q2, l + shift, u + shift


class TestWorkspaceEquivalence:
    def test_matches_solve_qp_across_random_updates(self, rng):
        P, q, A, l, u = _random_qp(rng)
        ws = QPWorkspace()
        ws.setup(P, A, q=q, l=l, u=u)
        for _ in range(5):
            cold = solve_qp(P, q, A, l, u)
            warm = ws.solve()
            assert warm.status is QPStatus.OPTIMAL
            # Strongly convex: the optimum is unique, so x must agree too.
            assert warm.objective == pytest.approx(cold.objective, rel=1e-6, abs=1e-8)
            np.testing.assert_allclose(warm.x, cold.x, rtol=1e-4, atol=1e-5)
            q, l, u = _perturb(rng, q, l, u)
            ws.update(q=q, l=l, u=u)

    def test_early_polish_matches_default_tolerances(self, rng):
        P, q, A, l, u = _random_qp(rng)
        ws = QPWorkspace()
        ws.setup(P, A, q=q, l=l, u=u)
        for _ in range(4):
            cold = solve_qp(P, q, A, l, u, settings=QPSettings(early_polish=False))
            warm = ws.solve()
            assert warm.status is QPStatus.OPTIMAL
            # The verified-early-polish path certifies against the strict
            # tolerances, so accuracy must not degrade.
            assert warm.objective == pytest.approx(cold.objective, rel=1e-6, abs=1e-8)
            q, l, u = _perturb(rng, q, l, u)
            ws.update(q=q, l=l, u=u)

    def test_cached_active_set_skips_admm_on_repeat_solve(self, rng):
        P, q, A, l, u = _random_qp(rng)
        ws = QPWorkspace()
        ws.setup(P, A, q=q, l=l, u=u)
        first = ws.solve()
        assert first.status is QPStatus.OPTIMAL
        # Identical data again: a workspace built without settings caches
        # its certified active-set system, which is certified optimal
        # without a single ADMM iteration.
        ws.update(q=q, l=l, u=u)
        second = ws.solve()
        assert second.status is QPStatus.OPTIMAL
        assert second.iterations == 0
        np.testing.assert_allclose(second.x, first.x, rtol=1e-6, atol=1e-8)


class TestCrossoverFallback:
    def test_failed_crossover_hands_admm_the_previous_iterates(self, rng):
        P, q, A, l, u = random_qp(rng, "small")
        dense_A = A.toarray()
        ws = QPWorkspace()
        ws.setup(P, A, q=q, l=l, u=u)
        ws.solve()
        crossover, admm = ws._crossover, ws._admm
        admm_starts = []

        def stored():
            return ws._x.copy(), ws._z.copy(), ws._y.copy()

        def checked_crossover(*args, **kwargs):
            before = stored()
            result = crossover(*args, **kwargs)
            if result is None:
                # A rejected trial point is not stored over the iterates.
                for old, new in zip(before, stored()):
                    np.testing.assert_array_equal(new, old)
            return result

        def recorded_admm(x, z, y):
            admm_starts.append((x.copy(), z.copy(), y.copy()))
            return admm(x, z, y)

        ws._crossover = checked_crossover
        ws._admm = recorded_admm
        fallbacks = 0
        for _ in range(4):
            # Bounds move with A @ delta, so the walk stays feasible.
            q = q + rng.normal(size=q.size)
            shift = dense_A @ rng.normal(size=q.size)
            l, u = l + shift, u + shift
            ws.update(q=q, l=l, u=u)
            before = stored()
            admm_starts.clear()
            assert ws.solve().status is QPStatus.OPTIMAL
            if admm_starts:
                fallbacks += 1
                for start, old in zip(admm_starts[0], before):
                    np.testing.assert_array_equal(start, old)
        assert fallbacks > 0


class TestPolishAfterADMM:
    """An ADMM pass that ends OPTIMAL before any early polish certifies is
    polished by the same certified crossover as every other solve."""

    def test_converged_pass_is_certified_and_cached(self):
        # min (x0-2)^2 + (x1-2)^2 on the unit box: both upper bounds bind.
        P, q, A = 2.0 * np.eye(2), np.array([-4.0, -4.0]), np.eye(2)
        ws = QPWorkspace()
        ws.setup(P, A, q=q, l=np.zeros(2), u=np.ones(2))
        ws.solve()
        # Pinning x0 = 1 keeps the optimum but changes the equality
        # pattern, which drops the cached system: the next solve runs ADMM
        # from the stored iterates.  It converges at the second residual
        # check; the first cannot early-polish (no signature to compare
        # yet), and the second tests convergence before polishing.
        l = np.array([1.0, 0.0])
        ws.update(l=l, u=np.ones(2))
        assert ws._polish_system is None
        solution = ws.solve()
        assert solution.status is QPStatus.OPTIMAL and solution.iterations > 0
        assert solution.polished
        problem = ws.problem
        _, certified = certify_kkt_point(
            problem, problem.A.T, solution.x, solution.y, 1e-6, 1e-6
        )
        assert certified is not None
        np.testing.assert_array_equal(solution.x, certified.x)
        # The certified system is cached: an identical update re-solves it
        # without ADMM.
        ws.update(l=l, u=np.ones(2))
        assert ws.solve().iterations == 0

    def test_interior_optimum_ships_the_admm_point(self):
        # Nothing is active at the optimum, so there is no active-set
        # system to polish with: the solve returns ADMM's point.
        solution = solve_qp(2.0 * np.eye(1), [-1.0], np.eye(1), [-10.0], [10.0])
        assert solution.status is QPStatus.OPTIMAL and solution.iterations > 0
        assert not solution.polished
        assert solution.x[0] == pytest.approx(0.5, abs=1e-4)

    def test_every_polished_solution_of_a_closed_loop_is_certified(self, monkeypatch):
        # This loop's crossovers reject more trial points than they accept
        # (70 against 23 solves): KKT points with a row held by a wrong-sign
        # multiplier or a bound violated.  Each walks on to the set the
        # rejected point proposes, so every solve ships a certified point,
        # never a rejected one.
        scenario = build_paper_scenario(num_periods=24, total_peak_rate=800.0, seed=11)
        solve = QPWorkspace.solve
        polished = []

        def certified_solve(ws):
            solution = solve(ws)
            if solution.polished:
                problem = ws.problem
                _, certified = certify_kkt_point(
                    problem, problem.A.T, solution.x, solution.y, 1e-6, 1e-6
                )
                polished.append(certified is not None)
            return solution

        monkeypatch.setattr(QPWorkspace, "solve", certified_solve)
        controller = MPCController(
            scenario.instance,
            OraclePredictor(scenario.demand),
            OraclePredictor(scenario.prices),
            MPCConfig(window=6),
        )
        run_closed_loop(controller, scenario.demand, scenario.prices)
        assert polished and all(polished)


class TestFactorizationCaching:
    """The ADMM KKT system is factorized by the first ADMM pass that needs
    it; set-up, a restore and an equality-pattern change only drop it."""

    def test_setup_defers_factorization_to_the_first_admm_solve(self, rng):
        P, q, A, l, u = _random_qp(rng)
        ws = QPWorkspace()
        ws.setup(P, A, q=q, l=l, u=u)
        assert ws.num_setups == 1
        assert ws.num_factorizations == 0
        first = ws.solve()
        assert first.status is QPStatus.OPTIMAL and first.iterations > 0
        assert ws.num_factorizations == 1

    def test_updates_do_not_refactorize_same_pattern(self, rng):
        P, q, A, l, u = _random_qp(rng)
        ws = QPWorkspace()
        ws.setup(P, A, q=q, l=l, u=u)
        for k in range(3):
            ws.solve()
            # Solves may refactorize on adaptive-rho steps; an update with
            # an unchanged equality pattern never does.
            before = ws.num_factorizations
            q, l, u = _perturb(rng, q, l, u)
            ws.update(q=q, l=l, u=u)
            assert ws.num_factorizations == before
        assert ws.num_setups == 1
        assert ws.num_updates == 3

    def test_crossover_certified_solve_factorizes_nothing(self, rng):
        P, q, A, l, u = _random_qp(rng)
        ws = QPWorkspace()
        ws.setup(P, A, q=q, l=l, u=u)
        assert ws.solve().iterations > 0
        before = ws.num_factorizations
        # An identity carry keeps the iterates and the cached active set
        # through a fresh set-up; the crossover then certifies the repeat
        # solve, so neither the set-up nor the solve factorizes.
        m, n = A.shape
        ws.setup(P, A, q=q, l=l, u=u, carry=(np.arange(n), np.arange(m)))
        repeat = ws.solve()
        assert repeat.status is QPStatus.OPTIMAL and repeat.iterations == 0
        assert ws.num_factorizations == before

    def test_equality_pattern_change_refactorizes(self, rng):
        P, q, A, l, u = _random_qp(rng)
        ws = QPWorkspace()
        ws.setup(P, A, q=q, l=l, u=u)
        ws.solve()
        before = ws.num_factorizations
        u2 = u.copy()
        u2[0] = l[0]  # row 0 becomes an equality
        ws.update(u=u2)
        assert ws.num_factorizations == before
        # The pattern change also drops the cached active set, so the next
        # solve runs ADMM, which factorizes for the new step sizes.
        solution = ws.solve()
        assert solution.status is QPStatus.OPTIMAL and solution.iterations > 0
        assert ws.num_factorizations > before
        assert abs(solution.x @ ws.problem.A[0].toarray().ravel() - l[0]) < 1e-4

    def test_restored_workspace_factorizes_only_when_admm_runs(self, rng):
        P, q, A, l, u = _random_qp(rng)
        ws = QPWorkspace()
        ws.setup(P, A, q=q, l=l, u=u)
        ws.solve()
        restored = pickle.loads(pickle.dumps(ws))
        assert restored.num_factorizations == ws.num_factorizations
        before = restored.num_factorizations
        certified = restored.solve()
        assert certified.iterations == 0
        assert restored.num_factorizations == before
        # Without the cached active set the next solve must run ADMM.
        restored._polish_system = None
        assert restored.solve().iterations > 0
        assert restored.num_factorizations > before

    def test_failed_banded_factorization_falls_back_to_sparse(self, rng, monkeypatch):
        import repro.solvers.workspace as workspace_module

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("singular block")

        monkeypatch.setattr(workspace_module, "BandedKKTSolver", failing)
        _, structure, q, l, u = _structured_problem(rng)
        ws = QPWorkspace(_banded=True)
        ws.setup(structure.P, structure.A, q=q, l=l, u=u, blocks=structure.blocks)
        assert ws._use_banded
        warm = ws.solve()
        assert not ws._use_banded
        assert warm.status is QPStatus.OPTIMAL and warm.iterations > 0
        cold = solve_qp(structure.P, q, structure.A, l, u)
        assert warm.objective == pytest.approx(cold.objective, rel=1e-6, abs=1e-8)

    def test_max_iterations_reports_cumulative_count(self, rng):
        P, q, A, l, u = _random_qp(rng)
        # Fewer iterations than one residual check: no pass can terminate.
        strict = QPSettings(max_iterations=5)
        ws = QPWorkspace(settings=strict)
        ws.setup(P, A, q=q, l=l, u=u)
        first = ws.solve()
        assert first.status is QPStatus.MAX_ITERATIONS
        q2, l2, u2 = _perturb(rng, q, l, u, scale=1.0)
        ws.update(q=q2, l=l2, u=u2)
        # Warm-seeded solve exhausts the budget, then the internal cold
        # restart runs another full pass; the count must cover both.
        second = ws.solve()
        assert second.status is QPStatus.MAX_ITERATIONS
        assert second.iterations == 2 * strict.max_iterations


class TestEdgeCases:
    def test_unconstrained_problem(self, rng):
        n = 6
        M = rng.normal(size=(n, n))
        P = sp.csc_matrix(M @ M.T + n * np.eye(n))
        q = rng.normal(size=n)
        A = sp.csc_matrix((0, n))
        ws = QPWorkspace()
        ws.setup(P, A, q=q)
        solution = ws.solve()
        assert solution.status is QPStatus.OPTIMAL
        expected = np.linalg.solve(P.toarray(), -q)
        np.testing.assert_allclose(solution.x, expected, rtol=1e-4, atol=1e-5)

    def test_unconstrained_iteration_never_refactorizes(self, rng):
        # Ill-conditioned enough to run into the cap, past several
        # adaptive-rho intervals: there are no step sizes to adapt.
        n = 6
        M = rng.normal(size=(n, n)) * 10.0 ** np.arange(-3.0, 3.0)
        P = M @ M.T + 1e-6 * np.eye(n)
        ws = QPWorkspace(settings=QPSettings(max_iterations=200))
        ws.setup(P, np.zeros((0, n)), q=rng.normal(size=n))
        assert ws.solve().status is QPStatus.MAX_ITERATIONS
        assert ws.num_factorizations == 1

    def test_solve_before_setup_raises(self):
        ws = QPWorkspace()
        assert not ws.is_setup
        with pytest.raises(RuntimeError, match="setup"):
            ws.solve()
        with pytest.raises(RuntimeError, match="setup"):
            ws.update(q=np.zeros(3))
        with pytest.raises(RuntimeError, match="setup"):
            _ = ws.problem

    def test_update_validates_shapes_and_bounds(self, rng):
        P, q, A, l, u = _random_qp(rng)
        ws = QPWorkspace()
        ws.setup(P, A, q=q, l=l, u=u)
        with pytest.raises(ValueError, match="q must have shape"):
            ws.update(q=np.zeros(q.size + 1))
        with pytest.raises(ValueError, match="l and u"):
            ws.update(l=np.zeros(l.size + 1))
        with pytest.raises(ValueError, match="infeasible"):
            ws.update(l=u + 1.0, u=u)

    def test_infeasible_problem_detected(self, rng):
        n = 4
        P = sp.identity(n, format="csc")
        q = np.zeros(n)
        # x0 >= 1 and x0 <= -1 simultaneously.
        A = sp.csc_matrix(np.vstack([np.eye(n)[0], np.eye(n)[0]]))
        l = np.array([1.0, -np.inf])
        u = np.array([np.inf, -1.0])
        ws = QPWorkspace()
        ws.setup(P, A, q=q, l=l, u=u)
        solution = ws.solve()
        assert solution.status is QPStatus.PRIMAL_INFEASIBLE


def _structured_problem(rng, horizon=5, elastic=False):
    """A stacked-horizon DSPP QP plus its block view, from the fuzz
    generators (feasible by construction at moderate load)."""
    tier = TIERS["small"]
    instance = random_instance(rng, tier)
    demand = random_demand(rng, instance, horizon, load=0.5)
    prices = random_prices(rng, instance, horizon)
    structure = build_qp_structure(instance, horizon, elastic=elastic)
    penalty = 10.0 if elastic else None
    q, l, u = build_qp_vectors(
        structure, instance, demand, prices, demand_slack_penalty=penalty
    )
    return instance, structure, q, l, u


# The private workspace argument each backend name maps to (None: the
# use_banded_backend rule).
_BANDED = {"sparse": False, "banded": True, "auto": None}


@pytest.mark.parametrize("backend", ["sparse", "banded", "auto"])
class TestBlockBackendWorkspace:
    """QPWorkspace over a stacked-horizon QP, parametrized across KKT
    backends.  The banded path factors the identical Ruiz-scaled KKT
    system through the block-tridiagonal recursion, so every backend must
    reproduce the cold sparse reference solve for solve."""

    def test_matches_cold_across_forecast_updates(self, rng, backend):
        instance, structure, q, l, u = _structured_problem(rng)
        ws = QPWorkspace(_banded=_BANDED[backend])
        ws.setup(structure.P, structure.A, q=q, l=l, u=u, blocks=structure.blocks)
        horizon = structure.blocks.num_steps
        for _ in range(3):
            warm = ws.solve()
            cold = solve_qp(structure.P, q, structure.A, l, u)
            assert warm.status is QPStatus.OPTIMAL
            assert warm.objective == pytest.approx(
                cold.objective, rel=1e-6, abs=1e-8
            )
            demand = random_demand(rng, instance, horizon, load=0.5)
            prices = random_prices(rng, instance, horizon)
            q, l, u = build_qp_vectors(structure, instance, demand, prices)
            ws.update(q=q, l=l, u=u)

    def test_elastic_structure_supported(self, rng, backend):
        _, structure, q, l, u = _structured_problem(rng, elastic=True)
        ws = QPWorkspace(_banded=_BANDED[backend])
        ws.setup(structure.P, structure.A, q=q, l=l, u=u, blocks=structure.blocks)
        warm = ws.solve()
        cold = solve_qp(structure.P, q, structure.A, l, u)
        assert warm.status is QPStatus.OPTIMAL
        assert warm.objective == pytest.approx(cold.objective, rel=1e-6, abs=1e-8)

    def test_single_period_horizon(self, rng, backend):
        _, structure, q, l, u = _structured_problem(rng, horizon=1)
        ws = QPWorkspace(_banded=_BANDED[backend])
        ws.setup(structure.P, structure.A, q=q, l=l, u=u, blocks=structure.blocks)
        warm = ws.solve()
        cold = solve_qp(structure.P, q, structure.A, l, u)
        assert warm.status is QPStatus.OPTIMAL
        assert warm.objective == pytest.approx(cold.objective, rel=1e-6, abs=1e-8)


def _pruned_instance(capacity):
    """A 4x6 instance with SLA-unusable pairs: location 0 is reachable
    from center 0 only, and center 3 reaches no location at all."""
    rng = np.random.default_rng(0)
    L, V = 4, 6
    usable = rng.random((L, V)) < 0.6
    usable[:, 0] = False
    usable[0, 0] = True
    usable[3, :] = False
    usable[0, ~usable.any(axis=0)] = True
    return DSPPInstance(
        datacenters=tuple(f"d{i}" for i in range(L)),
        locations=tuple(f"v{i}" for i in range(V)),
        sla_coefficients=np.where(usable, rng.uniform(0.05, 0.2, size=(L, V)), np.inf),
        reconfiguration_weights=rng.uniform(0.5, 2.0, size=L),
        capacities=np.full(L, capacity),
        initial_state=np.zeros((L, V)),
    )


@pytest.mark.parametrize("pruned", [False, True], ids=["dense", "reduced"])
@pytest.mark.parametrize("elastic", [False, True], ids=["inelastic", "elastic"])
@pytest.mark.parametrize("capacity", [1e5, 5.0], ids=["loose", "tight"])
class TestBandedActiveSetSystem:
    """The banded active-set system solves the same saddle system as the
    sparse one, on the optimal working set of a converged solve."""

    def test_matches_sparse_active_set_system(self, pruned, elastic, capacity):
        horizon = 5
        instance = _pruned_instance(capacity)
        rng = np.random.default_rng(1)
        demand = rng.uniform(5.0, 15.0, size=(instance.num_locations, horizon))
        prices = rng.uniform(0.5, 2.0, size=(instance.num_datacenters, horizon))
        structure = build_qp_structure(
            instance, horizon, elastic=elastic, pruned=pruned
        )
        q, l, u = build_qp_vectors(
            structure, instance, demand, prices,
            demand_slack_penalty=5.0 if elastic else None,
        )
        problem = QPProblem(structure.P, q, structure.A, l, u)
        optimum = solve_qp(structure.P, q, structure.A, l, u)
        assert optimum.status is QPStatus.OPTIMAL
        lower, upper = guess_active_set(problem, structure.A @ optimum.x, optimum.y)
        view = structure.blocks
        system = build_banded_active_set_system(view, lower, upper)
        assert system is not None
        assert system._has_cap == (capacity < 1e5)  # an active capacity row
        assert system._chain_inv.shape[0] == view.pairs_per_step
        # Both refined: the sparse trial point solves the regularized system.
        x, y = system.refine(problem, *system.solve(problem))
        sparse = build_active_set_system(problem, lower, upper)
        x_ref, y_ref = refine_active_set_solution(
            problem, sparse, *solve_active_set_system(problem, sparse)
        )
        np.testing.assert_allclose(x, x_ref, rtol=1e-9, atol=1e-9 * np.max(np.abs(x_ref)))
        np.testing.assert_allclose(y, y_ref, rtol=1e-9, atol=1e-9 * np.max(np.abs(y_ref)))


class TestBandedBackendDispatch:
    def test_banded_without_blocks_runs_sparse(self, rng):
        P, q, A, l, u = _random_qp(rng)
        ws = QPWorkspace(_banded=True)
        ws.setup(P, A, q=q, l=l, u=u)
        assert not ws._use_banded
        assert ws.solve().status is QPStatus.OPTIMAL

    @pytest.mark.parametrize("horizon, banded", [(6, True), (3, False)])
    def test_rule_picks_the_backend_at_paper_scale(self, horizon, banded):
        """96 pairs per period: banded from 4 periods on, sparse below."""
        scenario = build_paper_scenario(num_periods=8, seed=0)
        instance = scenario.instance
        structure = build_qp_structure(instance, horizon)
        q, l, u = build_qp_vectors(
            structure,
            instance,
            scenario.demand[:, :horizon],
            scenario.prices[:, :horizon],
        )
        ws = QPWorkspace()
        ws.setup(structure.P, structure.A, q=q, l=l, u=u, blocks=structure.blocks)
        assert ws._use_banded is use_banded_backend(structure.blocks) is banded

    def test_backends_run_identical_admm_schedules(self, rng):
        # The KKT solve is the only thing that differs, and both backends
        # refine it far below ADMM's working precision — so the iteration
        # counts (and therefore the whole trajectory schedule) coincide.
        _, structure, q, l, u = _structured_problem(rng)
        results = {}
        for backend in ("sparse", "banded"):
            ws = QPWorkspace(_banded=backend == "banded")
            ws.setup(
                structure.P, structure.A, q=q, l=l, u=u, blocks=structure.blocks
            )
            results[backend] = ws.solve()
        assert results["sparse"].iterations == results["banded"].iterations
        assert results["banded"].objective == pytest.approx(
            results["sparse"].objective, rel=1e-9, abs=1e-9
        )


class TestDSPPWorkspace:
    def test_mpc_sequence_matches_cold_with_capacity_swap(self, small_instance, rng):
        T = 3
        num_steps = 5
        ws = DSPPWorkspace()
        state = small_instance.initial_state
        capacities = small_instance.capacities
        for k in range(num_steps):
            demand = rng.uniform(5.0, 20.0, size=(2, T))
            prices = rng.uniform(0.5, 2.0, size=(2, T))
            if k == 2:  # capacity swap mid-sequence: still a vector update
                capacities = capacities * np.array([0.5, 2.0])
            instance = replace(
                small_instance, initial_state=state, capacities=capacities
            )
            cold = solve_dspp(instance, demand, prices)
            warm = solve_dspp(instance, demand, prices, workspace=ws)
            # The stacked P is only PSD, so trajectories may differ along
            # flat directions; the objective is the well-defined quantity.
            assert warm.objective == pytest.approx(
                cold.objective, rel=1e-5, abs=1e-6
            )
            state = np.maximum(state + cold.first_control, 0.0)
        assert ws.num_setups == 1
        assert ws.num_updates == num_steps - 1

    def test_horizon_change_rebuilds_transparently(self, small_instance, rng):
        ws = DSPPWorkspace()
        demand3 = rng.uniform(5.0, 20.0, size=(2, 3))
        prices3 = rng.uniform(0.5, 2.0, size=(2, 3))
        solve_dspp(small_instance, demand3, prices3, workspace=ws)
        demand4 = rng.uniform(5.0, 20.0, size=(2, 4))
        prices4 = rng.uniform(0.5, 2.0, size=(2, 4))
        warm = solve_dspp(small_instance, demand4, prices4, workspace=ws)
        cold = solve_dspp(small_instance, demand4, prices4)
        assert ws.num_setups == 2
        assert warm.objective == pytest.approx(cold.objective, rel=1e-5, abs=1e-6)

    def test_invalidate_drops_cache(self, small_instance, rng):
        ws = DSPPWorkspace()
        demand = rng.uniform(5.0, 20.0, size=(2, 3))
        prices = rng.uniform(0.5, 2.0, size=(2, 3))
        solve_dspp(small_instance, demand, prices, workspace=ws)
        ws.invalidate()
        solve_dspp(small_instance, demand, prices, workspace=ws)
        assert ws.num_setups == 1  # fresh inner workspace after invalidate

    def test_caller_settings_honoured_verbatim(self, small_instance, rng):
        ws = DSPPWorkspace()
        demand = rng.uniform(5.0, 20.0, size=(2, 3))
        prices = rng.uniform(0.5, 2.0, size=(2, 3))
        # With early polish off nothing caches the certified system, so a
        # repeat solve of the same data still runs ADMM.
        settings = QPSettings(early_polish=False)
        for _ in range(2):
            warm = solve_dspp(
                small_instance, demand, prices, settings=settings, workspace=ws
            )
            assert warm.qp.iterations > 0
        assert ws._qp.settings is settings
        assert ws._qp._polish_system is None

    def test_plain_settings_cache_the_certified_system(self, small_instance, rng):
        # Early polish is on unless a caller turns it off, so plain
        # QPSettings() re-solve identical data from the cached active set.
        ws = DSPPWorkspace()
        demand = rng.uniform(5.0, 20.0, size=(2, 3))
        prices = rng.uniform(0.5, 2.0, size=(2, 3))
        solutions = [
            solve_dspp(small_instance, demand, prices, settings=QPSettings(), workspace=ws)
            for _ in range(2)
        ]
        assert solutions[0].qp.polished
        assert solutions[1].qp.iterations == 0


def _walk_to_end(scenario, window, banded=None, cold=False):
    """Walk one ``DSPPWorkspace`` over a scenario with oracle windows, to
    the run's last period; yields ``(horizon, warm, cold-or-None)`` per
    period, the state advanced along the warm solution."""
    instance = scenario.instance
    num_periods = scenario.demand.shape[1]
    ws = DSPPWorkspace(_banded=banded)
    state = instance.initial_state
    for k in range(num_periods):
        horizon = min(window, num_periods - k)
        now = instance.with_initial_state(state)
        demand = scenario.demand[:, k : k + horizon]
        prices = scenario.prices[:, k : k + horizon]
        warm = solve_dspp(now, demand, prices, workspace=ws)
        reference = solve_dspp(now, demand, prices) if cold else None
        yield horizon, warm, reference
        state = warm.trajectory.states[0]


class TestHorizonTailCarry:
    """A window that drops its first period keeps the warm solver state."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tail_solves_skip_admm_and_match_cold(self, seed):
        scenario = build_paper_scenario(num_periods=12, seed=seed)
        tail = [
            (horizon, warm, cold)
            for horizon, warm, cold in _walk_to_end(scenario, window=6, cold=True)
            if horizon < 6
        ]
        assert [horizon for horizon, _, _ in tail] == [5, 4, 3, 2, 1]
        for horizon, warm, cold in tail:
            assert warm.qp.iterations == 0, f"T={horizon} ran ADMM"
            assert abs(warm.objective - cold.objective) <= 1e-9 * max(
                1.0, abs(cold.objective)
            ), f"T={horizon}"

    @pytest.mark.parametrize("elastic", [False, True])
    @pytest.mark.parametrize("pruned", [False, True])
    def test_shift_indices_restrict_to_the_shorter_structure(self, elastic, pruned):
        rng = np.random.default_rng(3)
        instance = random_instance(rng, TIERS["medium"])
        if pruned:
            sla = instance.sla_coefficients.copy()
            sla[0, 0] = np.inf
            instance = replace(instance, sla_coefficients=sla)
        long = build_qp_structure(instance, 4, elastic=elastic, pruned=pruned)
        short = build_qp_structure(instance, 3, elastic=elastic, pruned=pruned)
        columns, rows = long.blocks.shift_indices()
        assert (short.A != long.A[rows][:, columns]).nnz == 0
        assert (short.P != long.P[columns][:, columns]).nnz == 0
        with pytest.raises(ValueError, match="one-period"):
            build_qp_structure(instance, 1).blocks.shift_indices()

    def test_setup_rejects_a_mismatched_carry(self, rng):
        P, q, A, l, u = _random_qp(rng)
        ws = QPWorkspace()
        carry = (np.arange(8), np.arange(12))
        with pytest.raises(ValueError, match="carry"):
            ws.setup(P, A, q=q, l=l, u=u, carry=carry)
        ws.setup(P, A, q=q, l=l, u=u)
        with pytest.raises(ValueError, match="carry"):
            ws.setup(P, A, q=q, l=l, u=u, carry=(np.arange(7), np.arange(12)))
        ws.setup(P, A, q=q, l=l, u=u, carry=carry)
        assert ws.solve().status is QPStatus.OPTIMAL


class TestWorkspaceProperties:
    """Hypothesis-driven equivalence: warm/crossover solves vs fresh solve_qp.

    The directed tests above pin a handful of update walks; these
    properties draw the QP, the walk length and the perturbation scale
    from hypothesis, using the feasible-by-construction generator from
    ``repro.verify`` so every step of the walk keeps a nonempty polytope
    (updates translate the constraint bounds by ``A @ delta``, which moves
    the hidden witness along with the feasible set).
    """

    @staticmethod
    def _walk(seed, num_updates, scale, qp_settings):
        rng = np.random.default_rng([seed, num_updates])
        P, q, A, l, u = random_qp(rng, "small")
        dense_A = A.toarray()
        ws = QPWorkspace(settings=qp_settings)
        ws.setup(P, A, q=q, l=l, u=u)
        for _ in range(num_updates + 1):
            warm = ws.solve()
            cold = solve_qp(P, q, A, l, u, settings=qp_settings)
            assert warm.status is QPStatus.OPTIMAL
            assert cold.status is QPStatus.OPTIMAL
            # Strongly convex: unique optimum, so x must agree as well.
            assert warm.objective == pytest.approx(
                cold.objective, rel=5e-5, abs=1e-6
            )
            np.testing.assert_allclose(warm.x, cold.x, rtol=1e-3, atol=1e-3)
            q = q + scale * rng.normal(size=q.size)
            shift = dense_A @ (scale * rng.normal(size=q.size))
            l = l + shift
            u = u + shift
            ws.update(q=q, l=l, u=u)

    @given(
        seed=st.integers(0, 2**31 - 1),
        num_updates=st.integers(1, 4),
        scale=st.floats(0.01, 0.5),
    )
    @settings(max_examples=15)
    def test_warm_matches_cold_on_random_walks(self, seed, num_updates, scale):
        self._walk(seed, num_updates, scale, QPSettings(early_polish=False))

    @given(
        seed=st.integers(0, 2**31 - 1),
        num_updates=st.integers(1, 4),
        scale=st.floats(0.01, 0.5),
    )
    @settings(max_examples=15)
    def test_crossover_matches_cold_on_random_walks(self, seed, num_updates, scale):
        self._walk(seed, num_updates, scale, QPSettings())


class _NoProduct:
    """Stands in for ``A'`` where the certificate must not form ``A'y``."""

    def __init__(self, shape):
        self.shape = shape

    def __matmul__(self, other):
        raise AssertionError("A'y formed after a primal rejection")


class TestStagedCertificate:
    """``certify_kkt_point`` on small hand-built QPs (eps_abs = eps_rel = 1e-6)."""

    EPS = 1e-6

    @staticmethod
    def _coupled_box():
        # min 1/2|x|^2 - 2 x1 - 2 x2  s.t.  x1 + x2 <= 2,  0 <= x1, x2 <= 10.
        # Optimum x = (1, 1); the coupling row carries y = +1.
        return QPProblem.build(
            np.eye(2),
            [-2.0, -2.0],
            [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]],
            [-np.inf, 0.0, 0.0],
            [2.0, 10.0, 10.0],
        )

    def _certify(self, problem, x, y, a_t=None):
        a_t = problem.A.T if a_t is None else a_t
        return certify_kkt_point(
            problem, a_t, np.asarray(x, float), np.asarray(y, float), self.EPS, self.EPS
        )

    def test_accepts_exact_kkt_point(self):
        problem = self._coupled_box()
        x, y = np.array([1.0, 1.0]), np.array([1.0, 0.0, 0.0])
        ax, solution = self._certify(problem, x, y)
        np.testing.assert_array_equal(ax, problem.A @ x)
        assert solution is not None
        assert solution.status is QPStatus.OPTIMAL and solution.polished
        # The fields come from the certificate's own products, bit for bit
        # what the solver-independent residuals and objective compute.
        residuals = kkt_residuals(problem, x, y)
        assert solution.primal_residual == residuals.primal
        assert solution.dual_residual == residuals.dual
        assert solution.objective == problem.objective(x) == -3.0

    def test_rejects_primal_violation_before_forming_dual_products(self):
        problem = self._coupled_box()
        # Stationary (x + q + A'y = 0) but x1 + x2 = 3 breaks the bound 2.
        x, y = np.array([1.5, 1.5]), np.array([0.5, 0.0, 0.0])
        assert kkt_residuals(problem, x, y).dual == 0.0
        ax, solution = self._certify(problem, x, y, a_t=_NoProduct((2, 3)))
        assert solution is None
        np.testing.assert_array_equal(ax, [3.0, 1.5, 1.5])

    def test_rejects_multiplier_on_infinite_bound(self):
        # min 1/2 x^2 - x  s.t.  x >= 0: the optimum is x = 1 with y = 0.
        # (0, +1) is feasible and stationary, but y presses on u = +inf.
        problem = QPProblem.build([[1.0]], [-1.0], [[1.0]], [0.0], [np.inf])
        x, y = np.array([0.0]), np.array([1.0])
        residuals = kkt_residuals(problem, x, y)
        assert residuals.primal == 0.0 and residuals.dual == 0.0
        _, solution = self._certify(problem, x, y)
        assert solution is None

    def test_rejects_spread_gap(self):
        # min 1/2|x|^2 + q'x  s.t.  x_i <= 0 on 50 rows; each trial row
        # sits 1e-6 inside its bound with y_i = 1: every row residual is
        # within eps, but the summed gap 5e-5 is not.
        k, slack = 50, 1e-6
        x = np.full(k, -slack)
        y = np.ones(k)
        problem = QPProblem.build(
            np.eye(k), -x - y, np.eye(k), np.full(k, -np.inf), np.zeros(k)
        )
        assert kkt_residuals(problem, x, y).worst <= self.EPS
        _, solution = self._certify(problem, x, y)
        assert solution is None


class TestCachedTransposes:
    def test_steady_state_solves_build_no_transpose(self, monkeypatch):
        # Seed 6: the set-up solve's ADMM pass reaches an adaptive-rho
        # refactorization before its early polish certifies.
        scenario = build_paper_scenario(num_periods=12, seed=6)
        instance = scenario.instance
        window = 6
        ws = DSPPWorkspace()
        transposed = []
        for cls in (sp.csc_matrix, sp.csr_matrix, sp.coo_matrix):

            def counting(self, *args, _original=cls.transpose, **kwargs):
                transposed.append(self)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "transpose", counting)

        state = instance.initial_state
        per_solve = []
        for k in range(6):
            before = len(transposed)
            solution = solve_dspp(
                instance.with_initial_state(state),
                scenario.demand[:, k : k + window],
                scenario.prices[:, k : k + window],
                workspace=ws,
            )
            state = np.maximum(state + solution.first_control, 0.0)
            per_solve.append(len(transposed) - before)
            if k == 0:
                # The set-up solve runs ADMM with an adaptive-rho
                # refactorization (banded backend).
                assert solution.qp.iterations > 0
                assert ws._qp.num_factorizations >= 2
        qp = ws._qp
        own = [m for m in transposed if m is qp.problem.A or m is qp._work.A]
        assert len(own) == 2  # A' and its scaled twin, once per setup
        assert per_solve[1:] == [0] * 5
        assert ws.num_setups == 1

        snapshot = ws.__getstate__()["_qp"]
        for field in ("_a_t", "_work_a_t", "_failed_masks", "_early_polished", "_lu"):
            assert field not in snapshot
        assert not any(sp.issparse(value) for value in snapshot.values())

    def test_sparse_active_set_system_transposes_once_per_build(self, monkeypatch):
        import repro.solvers.workspace as workspace_module

        transposed = []
        for cls in (sp.csc_matrix, sp.csr_matrix, sp.coo_matrix):

            def counting(self, *args, _original=cls.transpose, **kwargs):
                transposed.append(self)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "transpose", counting)
        builds, solves = [], []

        def counted(record, fn):
            def wrapper(*args, **kwargs):
                before = len(transposed)
                result = fn(*args, **kwargs)
                record.append((len(transposed) - before, result))
                return result

            return wrapper

        for name, record in (
            ("build_active_set_system", builds),
            ("solve_active_set_system", solves),
        ):
            monkeypatch.setattr(
                workspace_module, name, counted(record, getattr(workspace_module, name))
            )
        scenario = build_paper_scenario(num_periods=12, seed=0)
        for _ in _walk_to_end(scenario, window=6, banded=False):
            pass
        built = [system for _, system in builds if system is not None]
        assert built and len(solves) > len(built)
        own = [m for m in transposed if any(m is s.a_active for s in built)]
        assert len(own) == len(built)  # one a_active.T per built system
        assert [count for count, _ in solves] == [0] * len(solves)

    def test_snapshot_drops_transposes_and_scratch(self, rng):
        P, q, A, l, u = _random_qp(rng)
        ws = QPWorkspace()
        ws.setup(P, A, q=q, l=l, u=u)
        ws.solve()
        state = ws.__getstate__()
        for field in ("_a_t", "_work_a_t", "_failed_masks", "_early_polished", "_lu", "_work"):
            assert field not in state
        restored = pickle.loads(pickle.dumps(ws))
        assert restored._a_t is not None and restored._work_a_t is not None
        q, l, u = _perturb(rng, q, l, u)
        ws.update(q=q, l=l, u=u)
        restored.update(q=q, l=l, u=u)
        np.testing.assert_array_equal(restored.solve().x, ws.solve().x)
