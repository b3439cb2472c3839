"""The warm crossover pays only for work that changes its answer.

Covers the three savings of ``QPWorkspace._crossover`` and the banded
builder: the re-certify step (an unchanged re-solve reuses the stored
point), the bound screen (only a trial point that passes the
certificate's bound test is refined) and the per-view table of chain
inverses, plus the rule that none of their caches enters a pickle.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

import repro.solvers.qp as qp_module
import repro.solvers.workspace as workspace_module
from repro.core.dspp import DSPPWorkspace, solve_dspp
from repro.core.instance import DSPPInstance
from repro.core.matrices import build_qp_structure, build_qp_vectors
from repro.game.mpc_game import MPCGameConfig, run_mpc_game
from repro.game.players import ServiceProvider
from repro.service import PlacementService, ServiceConfig
from repro.simulation.scenario import build_paper_scenario
from repro.solvers.banded import _chains, _view_tables, build_banded_active_set_system
from repro.solvers.kkt import certify_kkt_point, guess_active_set
from repro.solvers.qp import QPProblem, solve_qp
from repro.solvers.workspace import QPWorkspace

BACKENDS = ["banded", "sparse"]


def _instance(L: int, V: int, capacity: float, seed: int) -> DSPPInstance:
    rng = np.random.default_rng(seed)
    return DSPPInstance(
        datacenters=tuple(f"d{i}" for i in range(L)),
        locations=tuple(f"v{i}" for i in range(V)),
        sla_coefficients=rng.uniform(0.05, 0.2, size=(L, V)),
        reconfiguration_weights=rng.uniform(0.5, 2.0, size=L),
        capacities=np.full(L, capacity),
        initial_state=np.zeros((L, V)),
    )


def _horizon_qp(horizon: int = 6, seed: int = 0):
    """A 4x12 inelastic horizon QP whose capacity rows are all slack."""
    instance = _instance(4, 12, 1e5, seed)
    rng = np.random.default_rng(seed + 1)
    demand = rng.uniform(5.0, 15.0, size=(instance.num_locations, horizon))
    prices = rng.uniform(0.5, 2.0, size=(instance.num_datacenters, horizon))
    structure = build_qp_structure(instance, horizon)
    q, l, u = build_qp_vectors(structure, instance, demand, prices)
    return structure, q, l, u


def _counting(monkeypatch, *names: str) -> dict[str, int]:
    """Count calls of ``QPWorkspace`` methods, by name."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(QPWorkspace, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(QPWorkspace, name, counted)
    return counts


def _solved_workspace(backend: str):
    structure, q, l, u = _horizon_qp()
    ws = QPWorkspace(_banded=backend == "banded")
    ws.setup(structure.P, structure.A, q=q, l=l, u=u, blocks=structure.blocks)
    first = ws.solve()
    assert first.polished and ws._polish_system is not None
    return structure, ws, q, l, u


@pytest.mark.parametrize("backend", BACKENDS)
class TestRecertify:
    def test_inactive_bound_move_recertifies_without_a_solve(self, backend, monkeypatch):
        structure, ws, q, l, u = _solved_workspace(backend)
        view = structure.blocks
        restored = pickle.loads(pickle.dumps(ws))
        assert restored._certified is None
        u2 = u.copy()
        capacity = slice(view.capacity_row_offset, view.nonneg_row_offset)
        assert not np.any(ws._polish_system.active_upper[capacity])
        u2[capacity] *= 1.1
        counts = _counting(monkeypatch, "_solve_active_system", "_build_active_system")

        ws.update(q=q, l=l, u=u2)
        live = ws.solve()
        assert counts == {"_solve_active_system": 0, "_build_active_system": 0}
        assert live.polished and live.iterations == 0

        restored.update(q=q, l=l, u=u2)
        again = restored.solve()
        assert counts["_solve_active_system"] >= 1
        np.testing.assert_array_equal(again.x.view(np.uint64), live.x.view(np.uint64))
        np.testing.assert_array_equal(again.y.view(np.uint64), live.y.view(np.uint64))
        assert again.objective == live.objective

    def test_active_bound_move_below_tolerance_re_solves(self, backend, monkeypatch):
        structure, ws, q, l, u = _solved_workspace(backend)
        _, stale_x, stale_y, _, _ = ws._certified
        row = int(np.flatnonzero(ws._polish_system.active_lower)[0])
        l2 = l.copy()
        l2[row] += 5e-10
        # The stale point would pass the certificate on the moved data.
        moved = QPProblem(structure.P, q, structure.A, l2, u)
        _, stale = certify_kkt_point(
            moved, ws._a_t, stale_x, stale_y, qp_module._EPS_ABS, qp_module._EPS_REL
        )
        assert stale is not None
        counts = _counting(monkeypatch, "_solve_active_system")

        ws.update(q=q, l=l2, u=u)
        fresh = ws.solve()
        assert counts["_solve_active_system"] >= 1
        assert fresh.polished
        assert not np.array_equal(fresh.x, stale_x)
        assert (structure.A @ fresh.x)[row] == pytest.approx(l2[row], abs=1e-12)


@pytest.mark.parametrize("backend", BACKENDS)
def test_screened_walk_ships_the_always_refined_points(backend, monkeypatch):
    """Refining only screened points ships bitwise what refining every
    trial point ships, with fewer refinement passes."""

    def walk():
        scenario = build_paper_scenario(num_periods=16, seed=0)
        instance = scenario.instance
        ws = DSPPWorkspace(_banded=backend == "banded")
        state = instance.initial_state
        shipped = []
        for k in range(scenario.demand.shape[1] - 6):
            now = instance.with_initial_state(state)
            solution = solve_dspp(
                now,
                scenario.demand[:, k : k + 6],
                scenario.prices[:, k : k + 6],
                workspace=ws,
            )
            shipped.append(solution.qp.x)
            state = solution.trajectory.states[0]
        return shipped

    counts = _counting(monkeypatch, "_solve_active_system", "_refine_active_system")
    screened = walk()
    screened_counts = dict(counts)
    monkeypatch.setattr(workspace_module, "passes_bound_screen", lambda *args: True)
    counts.update(dict.fromkeys(counts, 0))
    refined = walk()
    assert counts["_refine_active_system"] == counts["_solve_active_system"]
    assert screened_counts["_solve_active_system"] == counts["_solve_active_system"]
    assert screened_counts["_refine_active_system"] < counts["_refine_active_system"]
    assert len(screened) == len(refined)
    for a, b in zip(screened, refined):
        np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("horizon", [6, 24])
def test_chain_table_is_bitwise_direct_inversion(horizon):
    structure = build_qp_structure(_instance(4, 12, 1e5, seed=3), horizon)
    view = structure.blocks
    tables = _view_tables(view)
    hessian = view.control_hessian
    rng = np.random.default_rng(horizon)
    seen: set[bytes] = set()
    for density in (0.9, 0.5, 0.9):
        free = rng.random((horizon, view.pairs_per_step)) < density
        table_inv = tables.chain_inverses(free)
        direct = np.linalg.inv(_chains(free, hessian))
        np.testing.assert_array_equal(table_inv.view(np.uint64), direct.view(np.uint64))
        seen |= {
            hessian[p].tobytes() + np.packbits(free[:, p]).tobytes()
            for p in range(free.shape[1])
        }
        assert len(tables._slots) == len(seen)  # only keys seen
    assert _view_tables(view) is tables

    # A built system reads its chains from the same table.
    q, l, u = build_qp_vectors(
        structure,
        _instance(4, 12, 1e5, seed=3),
        rng.uniform(5.0, 15.0, size=(12, horizon)),
        rng.uniform(0.5, 2.0, size=(4, horizon)),
    )
    problem = QPProblem(structure.P, q, structure.A, l, u)
    optimum = solve_qp(structure.P, q, structure.A, l, u)
    lower, upper = guess_active_set(problem, structure.A @ optimum.x, optimum.y)
    system = build_banded_active_set_system(view, lower, upper)
    assert system is not None
    direct = np.linalg.inv(_chains(system._free_x, hessian))
    np.testing.assert_array_equal(system._chain_inv.view(np.uint64), direct.view(np.uint64))


def test_no_cache_enters_a_snapshot():
    """The re-certify cache and the view's tables stay out of every
    pickle: a snapshot is byte-identical with the caches full or empty."""
    scenario = build_paper_scenario(num_periods=12, seed=0)
    instance = scenario.instance
    ws = DSPPWorkspace()
    for k in range(3):
        solve_dspp(
            instance, scenario.demand[:, k : k + 6], scenario.prices[:, k : k + 6], workspace=ws
        )
    qp = ws._qp
    view = qp._blocks
    assert qp._certified is not None and "banded" in view.memo
    assert "_certified" not in qp.__getstate__()
    assert "_memo" not in view.__getstate__()
    with_caches = (pickle.dumps(ws), pickle.dumps(qp), pickle.dumps(view))
    qp._certified = None
    view.memo.clear()
    assert (pickle.dumps(ws), pickle.dumps(qp), pickle.dumps(view)) == with_caches
    assert pickle.loads(pickle.dumps(view)).memo == {}


def _game_providers(
    num_providers: int, num_periods: int
) -> tuple[list[ServiceProvider], np.ndarray]:
    """A paper-scale (4 x 24) population at 1.5 x aggregate peak capacity."""
    L, V = 4, 24
    hours = np.arange(num_periods, dtype=float)
    providers = []
    for i in range(num_providers):
        rng = np.random.default_rng([0, i])
        diurnal = 1.0 + 0.4 * np.sin(2.0 * np.pi * (hours + 3.0 * i) / 24.0)
        demand = 30.0 * diurnal[None, :] * rng.uniform(0.8, 1.2, size=(V, 1))
        demand = np.maximum(demand + rng.normal(scale=1.0, size=(V, num_periods)), 1.0)
        prices = rng.uniform(0.5, 2.0, size=(L, 1)) * diurnal[None, :]
        prices = np.maximum(prices + rng.normal(scale=0.05, size=(L, num_periods)), 0.05)
        providers.append(
            ServiceProvider(
                name=f"sp{i}", instance=_instance(L, V, 1e6, seed=i), demand=demand, prices=prices
            )
        )
    peak = sum(float(p.servers_demanded().max()) for p in providers)
    return providers, np.full(L, 1.5 * peak / L)


def test_game_crossover_counts(monkeypatch):
    """Count gate on a small paper-scale game (2 providers, 9 periods,
    W=6, 4 rounds).  It reads 116 active-set solves, 76 refinement passes
    and 73 builds; without the re-certify step the solves read 125, and
    refining every trial point makes the passes equal the solves.  The
    caps leave about 3% for floating-point differences between hosts."""
    counts = _counting(
        monkeypatch, "_solve_active_system", "_refine_active_system", "_build_active_system"
    )
    providers, capacity = _game_providers(2, 9)
    result = run_mpc_game(
        providers, capacity, MPCGameConfig(window=6, coordination_rounds=4), jobs=1
    )
    assert np.isfinite(result.total_cost)
    assert counts["_solve_active_system"] <= 120
    assert counts["_refine_active_system"] <= 79
    assert counts["_build_active_system"] <= 75


@pytest.mark.parametrize("seed", [7, 14])
def test_shipped_polished_points_violate_no_bound(seed, monkeypatch):
    """Every polished point a serve-paper pass ships holds its bounds to
    1e-9 absolute (not merely the certificate's relative tolerance: a
    nonnegativity row sits next to demand rows of ``|Ax|`` in the
    hundreds)."""
    worst = [0.0]
    original = QPWorkspace.solve

    def solve(self):
        solution = original(self)
        if solution.polished:
            problem = self.problem
            ax = problem.A @ solution.x
            violation = np.maximum(problem.l - ax, ax - problem.u)
            worst[0] = max(worst[0], float(np.max(violation, initial=0.0)))
        return solution

    monkeypatch.setattr(QPWorkspace, "solve", solve)
    scenario = build_paper_scenario(num_periods=169, seed=seed)
    service = PlacementService(scenario, ServiceConfig(window=6))
    result = service.run()
    assert result is not None
    assert worst[0] <= 1e-9
