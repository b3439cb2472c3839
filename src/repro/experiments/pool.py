"""Persistent provider-sharded process pool for the best-response game.

Algorithm 2 solves ``N`` independent per-provider DSPPs every
coordination round, and the closed-loop W-MPC game repeats those rounds
every control period.  The solves are embarrassingly parallel *within* a
round, but a throwaway process pool per round would forfeit the one
thing that makes repeat rounds fast: the per-provider
:class:`~repro.core.dspp.DSPPWorkspace`, whose cached Ruiz scaling and
KKT factorization turn every quota round after the first into a
vector-only ``update()``.

:class:`ProviderPool` therefore keeps the workers *alive* and the warm
workspaces *where their providers are*:

* each worker is a long-lived process owning the fixed provider shard
  ``{i : i mod jobs == rank}`` — the mapping never changes, so a
  provider's workspace never migrates between processes;
* provider instances (and their full demand/price trajectories) ship
  once, at pool creation; each round only quota rows cross the process
  boundary going down and small ``(cost, dual, shortfall)`` reports
  come back up;
* the pool survives across best-response rounds *and* across MPC-game
  periods — the per-period problem updates
  (:meth:`ProviderPool.set_problems`) are vector payloads (state,
  forecast windows), so the factorizations stay warm for the whole
  horizon;
* at ``jobs=None``/``1`` no process is spawned at all: the same shard
  code runs inline, so serial semantics — and bitwise results — are
  exactly those of a plain loop over :func:`~repro.core.dspp.solve_dspp`.

Determinism: every provider is solved by exactly one shard with its own
dedicated workspace, so the per-provider solve sequence is identical at
any ``jobs`` count, and the coordinator-side reduction assembles the
dual reports into a fixed ``(N, L)`` array ordered by provider index
before :meth:`~repro.solvers.dual.QuotaCoordinator.update` sees them.
Equilibria computed at ``--jobs 8`` are bitwise identical to serial —
enforced by the ``sharded_equilibrium_equals_serial`` check in
:mod:`repro.verify` and benchmarked by ``benchmarks/run_bench_game.py``.

Requesting more workers than providers wastes nothing: the pool clamps
``jobs`` to ``N`` (a worker with an empty shard would only idle).  A
pool created inside a daemonic worker process (e.g. a
:func:`~repro.experiments.runner.run_sweep` task) silently falls back
to inline execution, since daemonic processes may not spawn children —
the results are identical either way.

Fault tolerance: the coordinator never blocks forever on a worker.
Every receive runs under ``PoolSettings.recv_timeout``; a worker that
dies (or stops responding) mid-command is detected, killed, and —
within the ``max_respawns`` budget, after a bounded exponential
backoff — respawned with its provider shard and retained per-period
problem data re-shipped, and the in-flight command re-sent, so an
equilibrium round completes *through* a worker crash.  A respawned
worker starts with cold workspaces: its solves remain correct (the
equilibrium checks still hold to solver tolerance) but are not
guaranteed bitwise-identical to the uninterrupted run.  Once the budget
is exhausted the coordinator raises :class:`DeadWorkerError`, naming
the worker and the provider shard it owned.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.core.dspp import DSPPSolution, DSPPWorkspace, solve_dspp
from repro.experiments.runner import resolve_jobs
from repro.solvers.qp import QPSettings

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (game -> pool)
    from multiprocessing.connection import Connection
    from multiprocessing.process import BaseProcess

    from repro.game.players import ServiceProvider

__all__ = [
    "DeadWorkerError",
    "PoolSettings",
    "ProviderPool",
    "RoundResult",
    "shard_indices",
]


class DeadWorkerError(RuntimeError):
    """A pool worker died (or stopped responding) and could not be replaced.

    Attributes:
        rank: the worker's shard rank.
        pid: the dead process's pid (``None`` if it never started).
        shard: the provider indices the worker owned.
    """

    def __init__(self, rank: int, pid: int | None, shard: Sequence[int], reason: str) -> None:
        self.rank = rank
        self.pid = pid
        self.shard = tuple(shard)
        super().__init__(
            f"pool worker rank={rank} pid={pid} owning providers "
            f"{list(self.shard)} {reason}"
        )


@dataclass(frozen=True)
class PoolSettings:
    """Solver configuration shipped to every worker at pool creation.

    Attributes:
        qp_settings: solver settings for the per-provider sub-problems
            (``None``: each layer's defaults).
        slack_penalty: per-unit demand-shortfall penalty of the elastic
            sub-problems.
        recv_timeout: seconds the coordinator waits for a worker's reply
            before declaring it dead (heartbeat window; generous — a
            healthy round is milliseconds).
        max_respawns: total worker respawns the pool will perform over
            its lifetime before raising :class:`DeadWorkerError`
            (0: never respawn, fail fast on the first crash).
        respawn_backoff: base of the bounded exponential backoff slept
            before the ``n``-th respawn (``min(backoff * 2**n, 2.0)``
            seconds).
    """

    qp_settings: QPSettings | None = None
    slack_penalty: float = 1e3
    recv_timeout: float = 60.0
    max_respawns: int = 1
    respawn_backoff: float = 0.05

    def __post_init__(self) -> None:
        if self.slack_penalty <= 0:
            raise ValueError("slack_penalty must be positive")
        if self.recv_timeout <= 0:
            raise ValueError("recv_timeout must be positive")
        if self.max_respawns < 0:
            raise ValueError("max_respawns must be >= 0")
        if self.respawn_backoff < 0:
            raise ValueError("respawn_backoff must be >= 0")


@dataclass(frozen=True)
class RoundResult:
    """Coordinator-side reduction of one best-response round.

    Attributes:
        costs: per-provider objective (slack penalty included), shape
            ``(N,)``, ordered by provider index.
        duals: per-provider capacity duals summed over the horizon,
            shape ``(N, L)`` — exactly what
            :meth:`~repro.solvers.dual.QuotaCoordinator.update` consumes.
        shortfalls: per-provider unmet demand, shape ``(N,)``.
    """

    costs: np.ndarray
    duals: np.ndarray
    shortfalls: np.ndarray


def shard_indices(num_providers: int, num_jobs: int) -> list[list[int]]:
    """The fixed provider-affine shard map: worker ``r`` owns
    ``{i : i mod num_jobs == r}``, in ascending provider order."""
    if num_providers < 1:
        raise ValueError(f"need at least one provider, got {num_providers}")
    if num_jobs < 1:
        raise ValueError(f"need at least one worker, got {num_jobs}")
    return [
        [i for i in range(num_providers) if i % num_jobs == rank]
        for rank in range(num_jobs)
    ]


class _Shard:
    """One worker's state: its owned providers and their warm workspaces.

    The same class backs both execution modes — inline (``jobs=1``) and
    worker-process — so there is exactly one implementation of the
    per-provider solve and serial semantics cannot drift from sharded
    ones.
    """

    def __init__(
        self,
        owned: Sequence[tuple[int, "ServiceProvider"]],
        settings: PoolSettings,
    ) -> None:
        self._owned = list(owned)
        self._settings = settings
        self._workspaces = {index: DSPPWorkspace() for index, _ in self._owned}
        # Per-provider problem overrides: (initial_state, demand, prices).
        # ``None`` components fall back to the provider's own data — the
        # full-trajectory semantics of ``compute_equilibrium``.
        self._problems: dict[
            int, tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]
        ] = {index: (None, None, None) for index, _ in self._owned}
        self._solutions: dict[int, DSPPSolution] = {}

    def set_problems(
        self,
        updates: dict[
            int, tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]
        ],
    ) -> None:
        for index, problem in updates.items():
            self._problems[index] = problem

    def run_round(
        self, quotas: dict[int, np.ndarray]
    ) -> list[tuple[int, float, np.ndarray, float]]:
        """Solve every owned provider against its quota row.

        Returns ``(index, objective, summed_duals, shortfall)`` per
        provider, in ascending provider order.
        """
        reports: list[tuple[int, float, np.ndarray, float]] = []
        for index, provider in self._owned:
            state, demand, prices = self._problems[index]
            instance = provider.instance.with_capacities(quotas[index])
            if state is not None:
                instance = instance.with_initial_state(state)
            solution = solve_dspp(
                instance,
                provider.demand if demand is None else demand,
                provider.prices if prices is None else prices,
                settings=self._settings.qp_settings,
                demand_slack_penalty=self._settings.slack_penalty,
                workspace=self._workspaces[index],
            )
            self._solutions[index] = solution
            reports.append(
                (
                    index,
                    float(solution.objective),
                    solution.capacity_duals.sum(axis=0),
                    float(solution.demand_slack.sum()),
                )
            )
        return reports

    def solutions(self) -> list[tuple[int, DSPPSolution]]:
        return [
            (index, self._solutions[index])
            for index, _ in self._owned
            if index in self._solutions
        ]

    def first_controls(self) -> list[tuple[int, np.ndarray]]:
        return [
            (index, self._solutions[index].first_control)
            for index, _ in self._owned
            if index in self._solutions
        ]


def _pool_worker(
    conn: "Connection",
    owned: list[tuple[int, "ServiceProvider"]],
    settings: PoolSettings,
) -> None:
    """Worker main loop: serve commands until told to close.

    Every reply is tagged ``("ok", payload)`` or ``("error", exception)``
    so failures inside a worker re-raise, typed, at the coordinator.
    """
    shard = _Shard(owned, settings)
    while True:
        command, payload = conn.recv()
        if command == "close":
            conn.close()
            return
        try:
            if command == "round":
                reply: object = shard.run_round(payload)
            elif command == "problems":
                shard.set_problems(payload)
                reply = None
            elif command == "solutions":
                reply = shard.solutions()
            elif command == "controls":
                reply = shard.first_controls()
            else:  # pragma: no cover - protocol misuse
                raise ValueError(f"unknown pool command {command!r}")
        except Exception as exc:  # noqa: BLE001 - forwarded to coordinator
            try:
                conn.send(("error", exc))
            except Exception:  # pragma: no cover - unpicklable exception
                conn.send(("error", RuntimeError(repr(exc))))
        else:
            conn.send(("ok", reply))


class ProviderPool:
    """Persistent executor for sharded best-response rounds.

    Args:
        providers: the competing service providers, in index order (the
            shard map and all reductions key on this order).
        jobs: worker-count request, interpreted by
            :func:`~repro.experiments.runner.resolve_jobs` and clamped
            to ``len(providers)``; ``None``/``1`` runs inline in the
            calling process (no subprocess is spawned).
        settings: solver configuration shared by every worker.

    The pool is a context manager; :meth:`close` is idempotent and also
    runs at garbage collection, but long-lived callers should close
    deterministically (``with ProviderPool(...) as pool:``).
    """

    def __init__(
        self,
        providers: Iterable["ServiceProvider"],
        jobs: int | None = None,
        settings: PoolSettings | None = None,
    ) -> None:
        self._providers = list(providers)
        if not self._providers:
            raise ValueError("need at least one provider")
        self._settings = settings or PoolSettings()
        requested = resolve_jobs(jobs)
        if requested > 1 and multiprocessing.current_process().daemon:
            # Daemonic processes (e.g. run_sweep workers) may not spawn
            # children; inline execution is bitwise identical anyway.
            requested = 1
        self._num_jobs = min(requested, len(self._providers))
        self._num_datacenters = self._providers[0].instance.num_datacenters
        self._shard: _Shard | None = None
        self._workers: list[tuple["BaseProcess", "Connection"]] = []
        self._shard_map: list[list[int]] = []
        # Retained per-provider problem updates, re-shipped on respawn so
        # a replacement worker solves the same period as its predecessor.
        self._problem_updates: dict[
            int, tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]
        ] = {}
        self._respawns_used = 0
        if self._num_jobs <= 1:
            self._shard = _Shard(list(enumerate(self._providers)), self._settings)
            return
        self._context = multiprocessing.get_context()
        self._shard_map = shard_indices(len(self._providers), self._num_jobs)
        for rank in range(self._num_jobs):
            self._workers.append(self._spawn_worker(rank))

    def _spawn_worker(self, rank: int) -> tuple["BaseProcess", "Connection"]:
        owned = [(i, self._providers[i]) for i in self._shard_map[rank]]
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_pool_worker,
            args=(child_conn, owned, self._settings),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return process, parent_conn

    @property
    def num_providers(self) -> int:
        return len(self._providers)

    @property
    def num_jobs(self) -> int:
        """Effective worker count after clamping (1 means inline)."""
        return self._num_jobs

    @property
    def settings(self) -> PoolSettings:
        return self._settings

    def _require_open(self) -> None:
        if self._shard is None and not self._workers:
            raise RuntimeError("pool is closed")

    def _broadcast(self, command: str, payloads: list[object]) -> list[object]:
        """Send one command to every worker, then gather every reply.

        The full broadcast happens before the first blocking receive —
        this is the coordinator barrier that lets the round run in
        parallel across shards.  A worker that dies (or times out) at
        either side of the exchange is respawned within the pool's
        budget and the command is replayed on the replacement; see
        :meth:`_receive`.
        """
        for rank, payload in enumerate(payloads):
            try:
                self._workers[rank][1].send((command, payload))
            except (BrokenPipeError, OSError):
                # Dead before we could even send: the receive path
                # detects this (EOF/closed pipe), respawns, and replays.
                pass
        return [
            self._receive(rank, command, payload)
            for rank, payload in enumerate(payloads)
        ]

    def _receive(self, rank: int, command: str, payload: object) -> object:
        """Collect worker ``rank``'s reply, surviving crashes.

        On EOF, a closed pipe, or ``recv_timeout`` elapsing without a
        reply, the worker is declared dead.  Within ``max_respawns`` the
        pool backs off, spawns a replacement for the same shard,
        re-ships the retained problem data and replays the in-flight
        command; past the budget it raises :class:`DeadWorkerError`.
        """
        while True:
            process, conn = self._workers[rank]
            reason: str | None = None
            try:
                if conn.poll(self._settings.recv_timeout):
                    tag, reply = conn.recv()
                else:
                    reason = (
                        "sent no reply within "
                        f"{self._settings.recv_timeout}s (presumed hung)"
                    )
            except (EOFError, ConnectionResetError, OSError):
                reason = "died mid-command"
            if reason is None:
                if tag == "error":
                    assert isinstance(reply, BaseException)
                    raise reply
                return reply
            self._replace_worker(rank, command, payload, reason)

    def _replace_worker(
        self, rank: int, command: str, payload: object, reason: str
    ) -> None:
        """Kill + respawn worker ``rank`` and replay the in-flight command.

        Raises:
            DeadWorkerError: the respawn budget is exhausted.
        """
        process, conn = self._workers[rank]
        pid = process.pid
        if process.is_alive():  # hung, not dead: reap it before replacing
            process.terminate()
        process.join(timeout=1.0)
        conn.close()
        if self._respawns_used >= self._settings.max_respawns:
            raise DeadWorkerError(rank, pid, self._shard_map[rank], reason)
        backoff = min(
            self._settings.respawn_backoff * 2**self._respawns_used, 2.0
        )
        self._respawns_used += 1
        if backoff > 0:
            time.sleep(backoff)
        self._workers[rank] = self._spawn_worker(rank)
        _, new_conn = self._workers[rank]
        retained = {
            i: self._problem_updates[i]
            for i in self._shard_map[rank]
            if i in self._problem_updates
        }
        if retained:
            new_conn.send(("problems", retained))
            new_process = self._workers[rank][0]
            try:
                if not new_conn.poll(self._settings.recv_timeout):
                    raise DeadWorkerError(
                        rank,
                        new_process.pid,
                        self._shard_map[rank],
                        "replacement worker unresponsive during problem re-ship",
                    )
                tag, reply = new_conn.recv()
            except (EOFError, ConnectionResetError, OSError) as error:
                raise DeadWorkerError(
                    rank,
                    new_process.pid,
                    self._shard_map[rank],
                    "replacement worker died during problem re-ship",
                ) from error
            if tag == "error":
                assert isinstance(reply, BaseException)
                raise reply
        new_conn.send((command, payload))

    def set_problems(
        self,
        states: Sequence[np.ndarray | None] | None = None,
        demands: Sequence[np.ndarray] | None = None,
        prices: Sequence[np.ndarray] | None = None,
    ) -> None:
        """Install per-provider problem data for subsequent rounds.

        Each argument is a length-``N`` sequence (or ``None`` to leave
        that component on every provider's own data): ``states[i]`` the
        initial state ``(L, V)``, ``demands[i]`` the forecast ``(V, T)``,
        ``prices[i]`` the price window ``(L, T)``.  This is the only
        period-boundary payload the MPC game ships — the instances
        themselves never cross the process boundary again.
        """
        self._require_open()
        N = len(self._providers)
        for name, seq in (("states", states), ("demands", demands), ("prices", prices)):
            if seq is not None and len(seq) != N:
                raise ValueError(f"{name} must have one entry per provider ({N})")
        updates = {
            i: (
                None if states is None else states[i],
                None if demands is None else demands[i],
                None if prices is None else prices[i],
            )
            for i in range(N)
        }
        self._problem_updates.update(updates)
        if self._shard is not None:
            self._shard.set_problems(updates)
            return
        per_worker = [
            {i: updates[i] for i in rank_indices}
            for rank_indices in shard_indices(N, self._num_jobs)
        ]
        self._broadcast("problems", per_worker)

    def run_round(self, quotas: np.ndarray) -> RoundResult:
        """Fan one best-response round out across the shards.

        Args:
            quotas: quota matrix, shape ``(N, L)``; row ``i`` becomes
                provider ``i``'s capacity vector for this round.

        Returns:
            The deterministic index-ordered :class:`RoundResult`.
        """
        self._require_open()
        quotas = np.asarray(quotas, dtype=float)
        N = len(self._providers)
        if quotas.shape != (N, self._num_datacenters):
            raise ValueError(
                f"quotas must have shape ({N}, {self._num_datacenters}), "
                f"got {quotas.shape}"
            )
        if self._shard is not None:
            reports = self._shard.run_round({i: quotas[i] for i in range(N)})
        else:
            per_worker = [
                {i: quotas[i] for i in rank_indices}
                for rank_indices in shard_indices(N, self._num_jobs)
            ]
            reports = [
                report
                for reply in self._broadcast("round", per_worker)
                for report in reply  # type: ignore[attr-defined]
            ]
        costs = np.empty(N)
        duals = np.empty((N, self._num_datacenters))
        shortfalls = np.empty(N)
        for index, cost, dual, shortfall in reports:
            costs[index] = cost
            duals[index] = dual
            shortfalls[index] = shortfall
        return RoundResult(costs=costs, duals=duals, shortfalls=shortfalls)

    def solutions(self) -> list[DSPPSolution]:
        """The most recent round's full per-provider solutions.

        Only called once per equilibrium computation — the round-by-round
        traffic stays at the ``(cost, dual, shortfall)`` reports.

        Raises:
            RuntimeError: if no round has been run yet.
        """
        self._require_open()
        if self._shard is not None:
            gathered = self._shard.solutions()
        else:
            gathered = [
                pair
                for reply in self._broadcast(
                    "solutions", [None] * len(self._workers)
                )
                for pair in reply  # type: ignore[attr-defined]
            ]
        if len(gathered) != len(self._providers):
            raise RuntimeError("no completed round to collect solutions from")
        ordered: list[DSPPSolution | None] = [None] * len(self._providers)
        for index, solution in gathered:
            ordered[index] = solution
        assert all(solution is not None for solution in ordered)
        return ordered  # type: ignore[return-value]

    def first_controls(self) -> np.ndarray:
        """Stacked first moves ``u_{k|k}`` of the most recent round,
        shape ``(N, L, V)`` — all the MPC game needs to commit a period."""
        self._require_open()
        if self._shard is not None:
            gathered = self._shard.first_controls()
        else:
            gathered = [
                pair
                for reply in self._broadcast(
                    "controls", [None] * len(self._workers)
                )
                for pair in reply  # type: ignore[attr-defined]
            ]
        if len(gathered) != len(self._providers):
            raise RuntimeError("no completed round to collect controls from")
        L = self._num_datacenters
        V = self._providers[0].instance.num_locations
        controls = np.empty((len(self._providers), L, V))
        for index, control in gathered:
            controls[index] = control
        return controls

    def kill_worker(self, rank: int) -> int:
        """Hard-kill one worker process (chaos/testing hook).

        Simulates an external SIGKILL of the shard process; the next
        command notices the death and runs the respawn path.

        Returns:
            The pid of the process killed.

        Raises:
            RuntimeError: inline mode (no worker processes), closed pool
                or out-of-range rank.
        """
        self._require_open()
        if not self._workers:
            raise RuntimeError("pool runs inline; there is no worker to kill")
        if not 0 <= rank < len(self._workers):
            raise RuntimeError(f"no worker with rank {rank}")
        process, _ = self._workers[rank]
        pid = process.pid
        assert pid is not None
        process.kill()
        process.join(timeout=5.0)
        return pid

    def close(self) -> None:
        """Shut the workers down; idempotent."""
        workers, self._workers = self._workers, []
        self._shard = None
        for _, conn in workers:
            try:
                conn.send(("close", None))
            except (BrokenPipeError, OSError):  # pragma: no cover - dead worker
                pass
        for process, conn in workers:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - hung worker
                process.terminate()
                process.join(timeout=1.0)
            conn.close()

    def __enter__(self) -> "ProviderPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:  # noqa: BLE001 - interpreter may be tearing down
            pass
