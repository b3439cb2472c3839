"""The solver degradation ladder and its structured event log.

When a period's DSPP solve misbehaves — an infeasibility, a numerical
failure, a non-optimal status or a blown deadline — the service does not
crash the control loop.  It descends a fixed ladder of strictly cheaper /
more conservative strategies until one terminates:

======  ==========  ====================================================
rung    name        strategy
======  ==========  ====================================================
0       ``warm``    persistent-workspace solve (cached factorization,
                    stored warm-start iterates)
1       ``cold``    drop the workspace cache and re-factorize the same
                    problem from scratch (clears any poisoned iterate and
                    re-equilibrates against the current data)
2       ``hold``    keep the previous placement unchanged (``u = 0``)
                    and account the unserved-demand slack explicitly
======  ==========  ====================================================

Every transition is recorded as a :class:`DegradationEvent`; the terminal
rung of each period is part of the service result, so a chaos campaign
can assert that *every* injected fault ended in a terminal state (rung 2
always terminates — it performs no solve, and neither a deadline nor a
squeeze skips it).  The ladder is deterministic: given the same fault
plan it descends identically on every replay, which is what lets
restore-after-crash reproduce a degraded run bitwise.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

__all__ = [
    "LADDER_RUNGS",
    "DegradationEvent",
    "DegradationLog",
    "LadderConfig",
]

LADDER_RUNGS: tuple[str, ...] = ("warm", "cold", "hold")


@dataclass(frozen=True)
class LadderConfig:
    """Retry budgets and deadlines of the degradation ladder.

    Attributes:
        attempts_per_rung: solve attempts before escalating past a rung
            (the ``hold`` rung ignores this — it cannot fail).
        deadline_s: wall-clock budget for one period's ladder descent;
            once exceeded the ladder jumps straight to ``hold``.  ``None``
            disables the clock entirely (fully deterministic mode — fault
            plans then drive escalation via deadline squeezes).
    """

    attempts_per_rung: int = 1
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.attempts_per_rung < 1:
            raise ValueError(
                f"attempts_per_rung must be >= 1, got {self.attempts_per_rung}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive, got {self.deadline_s}")


@dataclass(frozen=True)
class DegradationEvent:
    """One structured entry of the degradation log.

    Attributes:
        period: control period the event belongs to.
        rung: ladder rung name (or ``"service"`` for loop-level events
            such as checkpoint fallback and observation imputation).
        outcome: what happened — ``"error"`` (the solve raised, which
            includes a non-optimal solver status), ``"timeout"``
            (deadline exceeded or squeezed), ``"accepted"`` (this rung's
            solution was applied after a degradation), ``"held"`` (the
            terminal hold rung was applied), ``"imputed"`` (telemetry was
            repaired), ``"checkpoint_fallback"`` (a corrupt generation
            was skipped at restore), ``"restored"`` (the service resumed
            from a checkpoint).
        detail: human-readable specifics (exception text, slack totals,
            file names).
        attempt: 1-based attempt number within the rung (0 for
            loop-level events).
    """

    period: int
    rung: str
    outcome: str
    detail: str = ""
    attempt: int = 0


class DegradationLog:
    """Append-only, JSON-serializable record of every degradation.

    The log is part of the service checkpoint, so a restored run carries
    the full fault history of the original — replayed chaos campaigns
    produce identical logs.
    """

    def __init__(self, events: tuple[DegradationEvent, ...] = ()) -> None:
        self._events: list[DegradationEvent] = list(events)

    def record(
        self,
        period: int,
        rung: str,
        outcome: str,
        detail: str = "",
        attempt: int = 0,
    ) -> DegradationEvent:
        """Append one event and return it."""
        event = DegradationEvent(
            period=period, rung=rung, outcome=outcome, detail=detail, attempt=attempt
        )
        self._events.append(event)
        return event

    @property
    def events(self) -> tuple[DegradationEvent, ...]:
        return tuple(self._events)

    def events_for(self, period: int) -> tuple[DegradationEvent, ...]:
        """All events of one period, in record order."""
        return tuple(event for event in self._events if event.period == period)

    def __len__(self) -> int:
        return len(self._events)

    def as_dicts(self) -> list[dict[str, object]]:
        """Plain-dict form (stable JSON schema for CI artifacts)."""
        return [asdict(event) for event in self._events]

    def to_json(self, path: Path | str) -> Path:
        """Write the full log as a JSON array; returns the path."""
        path = Path(path)
        path.write_text(json.dumps(self.as_dicts(), indent=2) + "\n")
        return path
