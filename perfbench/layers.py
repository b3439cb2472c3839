"""Layer spans and counters for the traced run, recorded from outside.

A traced pass wraps the public entry point of every layer it touches
(:func:`instrument`) and restores the originals afterwards, so the library
is never edited and an untraced pass runs the unmodified code.  Spans nest:
each records its wall time and its self time (wall time minus the time its
child spans cover); the outermost spans add up to the time attributed to
named layers, which the benchmark compares with the period wall time.

Verification work the tracer does on the side (the KKT certificate of every
solve) is timed separately as ``internal_s`` and excluded from both the
layer self times and the coverage figure.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

# Layer groups a traced pass can instrument.  A pass with worker processes
# leaves out the groups whose code would run (untimed) inside the workers.
ALL_GROUPS = frozenset(
    {"service", "prediction", "core", "solvers", "checkpoint", "pool", "events"}
)
PARENT_GROUPS = frozenset({"pool"})

# The tolerance repro.verify.oracles.check_qp_kkt certifies against.
KKT_TOL = 1e-4


class Tracer:
    """In-memory spans and counts of one traced pass."""

    def __init__(self) -> None:
        self.wall: defaultdict[str, list[float]] = defaultdict(list)
        self.self_time: defaultdict[str, list[float]] = defaultdict(list)
        self.counts: defaultdict[str, float] = defaultdict(float)
        # (start, end) of every outermost span and of tracer-side work.
        self.top_level: list[tuple[float, float]] = []
        self.internal_windows: list[tuple[float, float]] = []
        self.kkt_failures: list[str] = []
        self.worker_peak_rss_mb = 0.0
        self._stack: list[float] = []

    def span(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        self._stack.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            child = self._stack.pop()
            self.wall[name].append(elapsed)
            self.self_time[name].append(elapsed - child)
            if self._stack:
                self._stack[-1] += elapsed
            else:
                self.top_level.append((start, start + elapsed))

    def internal(self, fn: Callable[[], Any]) -> Any:
        """Run tracer-side work, charged to no layer."""
        start = time.perf_counter()
        try:
            return fn()
        finally:
            elapsed = time.perf_counter() - start
            self.internal_windows.append((start, start + elapsed))
            # Charge it to the enclosing span (or the top level) so that
            # subtracting the internal windows from covered time is exact.
            if self._stack:
                self._stack[-1] += elapsed
            else:
                self.top_level.append((start, start + elapsed))

    def coverage(self, lo: float, hi: float) -> tuple[float, float]:
        """Seconds of ``[lo, hi]`` inside outermost spans, and seconds of
        tracer-side work, both net of that work."""

        def overlap(windows: list[tuple[float, float]]) -> float:
            return sum(max(0.0, min(end, hi) - max(begin, lo)) for begin, end in windows)

        internal = overlap(self.internal_windows)
        return overlap(self.top_level) - internal, internal

    def total_ms(self, name: str) -> float:
        return 1e3 * float(sum(self.wall.get(name, ())))

    def p50_ms(self, name: str, self_only: bool = False) -> float:
        values = (self.self_time if self_only else self.wall).get(name)
        return 1e3 * float(np.median(values)) if values else 0.0


class Call(NamedTuple):
    args: tuple[Any, ...]
    kwargs: dict[str, Any]
    token: Any


def _wrap(
    tracer: Tracer,
    name: str,
    original: Callable[..., Any],
    after: Callable[[Call, Any], None] | None = None,
    before: Callable[[tuple[Any, ...]], Any] | None = None,
) -> Callable[..., Any]:
    """Time ``original`` as span ``name``; ``before`` sees the positional
    arguments and returns a token, ``after`` sees the call and the result."""

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        token = before(args) if before is not None else None
        result = tracer.span(name, original, *args, **kwargs)
        if after is not None:
            after(Call(args, kwargs, token), result)
        return result

    return wrapper


@contextmanager
def _patched(owner: Any, attr: str, make: Callable[[Any], Any]) -> Iterator[None]:
    own = attr in vars(owner)
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        if own:
            setattr(owner, attr, original)
        else:
            delattr(owner, attr)


def _solver_patches(tracer: Tracer) -> list[tuple[Any, str, Callable[[Any], Any]]]:
    from repro.solvers.kkt import kkt_residuals
    from repro.solvers.qp import QPStatus
    from repro.solvers.workspace import QPWorkspace
    from repro.verify.oracles import check_qp_kkt

    def counters(args: tuple[Any, ...]) -> tuple[int, int]:
        ws = args[0]
        return ws.num_factorizations, ws.num_equilibrations

    def add_counter_deltas(call: Call) -> None:
        factorizations, equilibrations = call.token
        ws = call.args[0]
        tracer.counts["solvers.factorizations"] += ws.num_factorizations - factorizations
        tracer.counts["solvers.equilibrations"] += ws.num_equilibrations - equilibrations

    def after_setup(call: Call, _result: Any) -> None:
        tracer.counts["solvers.setups"] += 1
        add_counter_deltas(call)

    def after_update(call: Call, _result: Any) -> None:
        add_counter_deltas(call)

    def after_solve(call: Call, solution: Any) -> None:
        add_counter_deltas(call)
        tracer.counts["solvers.solves"] += 1
        tracer.counts["solvers.admm_iterations"] += solution.iterations
        if solution.iterations > 0:
            tracer.counts["solvers.admm_solves"] += 1
            tracer.counts["solvers.admm_solve_s"] += tracer.wall["solvers.solve"][-1]
        if solution.status is not QPStatus.OPTIMAL:
            tracer.counts["solvers.not_optimal"] += 1
            return
        problem = call.args[0].problem

        def certify() -> None:
            residuals = kkt_residuals(problem, solution.x, solution.y)
            scale = max(
                1.0,
                float(np.max(np.abs(solution.x))) if solution.x.size else 1.0,
                abs(solution.objective),
            )
            worst = residuals.worst / scale
            tracer.counts["solvers.kkt_worst"] = max(
                tracer.counts["solvers.kkt_worst"], worst
            )
            for finding in check_qp_kkt(problem, solution, "perfbench", tol=KKT_TOL):
                tracer.kkt_failures.append(f"KKT certificate: {finding.detail}")

        tracer.internal(certify)

    return [
        (QPWorkspace, "setup", lambda f: _wrap(tracer, "solvers.setup", f, after_setup, counters)),
        (QPWorkspace, "update", lambda f: _wrap(tracer, "solvers.update", f, after_update, counters)),
        (QPWorkspace, "solve", lambda f: _wrap(tracer, "solvers.solve", f, after_solve, counters)),
    ]


def _core_patches(tracer: Tracer) -> list[tuple[Any, str, Callable[[Any], Any]]]:
    import repro.core.dspp as dspp

    def after_structure(_call: Call, _result: Any) -> None:
        tracer.counts["core.structure_builds"] += 1

    return [
        (dspp, "build_qp_structure", lambda f: _wrap(tracer, "core.structure", f, after_structure)),
        (dspp, "build_qp_vectors", lambda f: _wrap(tracer, "core.vectors", f)),
    ]


def _service_patches(tracer: Tracer) -> list[tuple[Any, str, Callable[[Any], Any]]]:
    from repro.control.mpc import MPCController
    from repro.routing.router import RequestRouter
    from repro.simulation.metrics import MetricsCollector
    from repro.simulation.monitoring import MonitoringModule

    return [
        (MonitoringModule, "record", lambda f: _wrap(tracer, "simulation.monitoring", f)),
        (MPCController, "observe", lambda f: _wrap(tracer, "control.observe", f)),
        (MPCController, "plan", lambda f: _wrap(tracer, "control.plan", f)),
        (MPCController, "hold", lambda f: _wrap(tracer, "control.hold", f)),
        (RequestRouter, "update_allocation", lambda f: _wrap(tracer, "routing.update", f)),
        (RequestRouter, "route", lambda f: _wrap(tracer, "routing.route", f)),
        (MetricsCollector, "record_period", lambda f: _wrap(tracer, "simulation.metrics", f)),
    ]


def _prediction_patches(tracer: Tracer) -> list[tuple[Any, str, Callable[[Any], Any]]]:
    from repro.prediction.ar import ARPredictor
    from repro.prediction.naive import LastValuePredictor

    return [
        (cls, "predict", lambda f: _wrap(tracer, "prediction.predict", f))
        for cls in (LastValuePredictor, ARPredictor)
    ]


def _checkpoint_patches(tracer: Tracer) -> list[tuple[Any, str, Callable[[Any], Any]]]:
    import repro.service.service as service

    def after_write(_call: Call, path: Path) -> None:
        tracer.counts["checkpoint.writes"] += 1
        tracer.counts["checkpoint.bytes"] += Path(path).stat().st_size

    return [
        (service, "write_checkpoint", lambda f: _wrap(tracer, "checkpoint.write", f, after_write))
    ]


def _nbytes(values: Any) -> int:
    if values is None:
        return 0
    if isinstance(values, np.ndarray):
        return int(values.nbytes)
    return sum(_nbytes(v) for v in values)


def _peak_rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _pool_patches(tracer: Tracer) -> list[tuple[Any, str, Callable[[Any], Any]]]:
    from repro.experiments.pool import ProviderPool
    from repro.solvers.dual import QuotaCoordinator

    # Bytes crossing the process boundary, computed from array sizes: the
    # per-provider problem rows sent down at a period boundary, the quota
    # rows sent down and the (cost, dual, shortfall) reports sent back per
    # round, and the first moves gathered at commit.
    def after_set_problems(call: Call, _result: Any) -> None:
        tracer.counts["pool.bytes"] += _nbytes(call.args[1:]) + _nbytes(
            list(call.kwargs.values())
        )

    def after_round(call: Call, result: Any) -> None:
        quotas = call.args[1] if len(call.args) > 1 else call.kwargs["quotas"]
        tracer.counts["game.rounds"] += 1
        tracer.counts["pool.bytes"] += _nbytes(
            (np.asarray(quotas), result.costs, result.duals, result.shortfalls)
        )

    def after_controls(_call: Call, controls: np.ndarray) -> None:
        tracer.counts["pool.bytes"] += _nbytes(controls)

    def close(original: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(original)
        def wrapper(pool: Any) -> Any:
            for process, _conn in getattr(pool, "_workers", ()):
                if process.pid is not None:
                    tracer.worker_peak_rss_mb = max(
                        tracer.worker_peak_rss_mb, _peak_rss_mb(process.pid)
                    )
            return tracer.span("pool.close", original, pool)

        return wrapper

    return [
        (ProviderPool, "__init__", lambda f: _wrap(tracer, "pool.spawn", f)),
        (ProviderPool, "set_problems", lambda f: _wrap(tracer, "pool.set_problems", f, after_set_problems)),
        (ProviderPool, "run_round", lambda f: _wrap(tracer, "pool.round", f, after_round)),
        (ProviderPool, "first_controls", lambda f: _wrap(tracer, "pool.first_controls", f, after_controls)),
        (ProviderPool, "close", close),
        (QuotaCoordinator, "update", lambda f: _wrap(tracer, "game.coordinator", f)),
    ]


def _events_patches(tracer: Tracer) -> list[tuple[Any, str, Callable[[Any], Any]]]:
    from repro.events.collectors import LatencyCollector, ThroughputCollector
    from repro.events.engine import EventEngine

    return [(EventEngine, "run", lambda f: _wrap(tracer, "events.run", f))] + [
        (cls, method, lambda f: _wrap(tracer, "events.collectors", f))
        for cls in (LatencyCollector, ThroughputCollector)
        for method in ("on_start", "on_period")
    ]


_GROUPS: dict[str, Callable[[Tracer], list[tuple[Any, str, Callable[[Any], Any]]]]] = {
    "service": _service_patches,
    "prediction": _prediction_patches,
    "core": _core_patches,
    "solvers": _solver_patches,
    "checkpoint": _checkpoint_patches,
    "pool": _pool_patches,
    "events": _events_patches,
}


@contextmanager
def instrument(tracer: Tracer, groups: frozenset[str] = ALL_GROUPS) -> Iterator[Tracer]:
    """Wrap the entry points of ``groups`` for the duration of the block."""
    with ExitStack() as stack:
        for group in sorted(groups):
            for owner, attr, make in _GROUPS[group](tracer):
                stack.enter_context(_patched(owner, attr, make))
        yield tracer
