"""Deterministic fault injection for chaos testing the placement service.

A :class:`FaultPlan` is generated *entirely* from a seed: which periods
misbehave, how, and with what payload are all drawn up front from
``np.random.default_rng([seed])``, and the :class:`FaultInjector`'s own
live generator (used for NaN placement and corruption offsets) is seeded
from the same material.  Two runs with the same plan therefore inject
byte-identical faults — and because the injector's generator state is
part of the service checkpoint, a restored run continues the fault
sequence exactly where the crashed one left off.

Fault kinds:

=======================  =============================================
kind                     effect
=======================  =============================================
``nan_observation``      a random subset of the period's demand/price
                         telemetry entries become NaN
``telemetry_gap``        the whole observation vector is lost (all-NaN)
``deadline_squeeze``     the first ``depth`` ladder rungs are treated
                         as timed out (deterministic stand-in for a
                         wall-clock deadline; see ``LadderConfig``);
                         the terminal ``hold`` rung is exempt
``checkpoint_corruption``  the generation written at this period is
                         damaged on disk after the write (flipped bytes
                         or truncation) — restore must fall back
``worker_kill``          a pool worker is killed before round
                         ``payload`` of the period's equilibrium
                         computation (consumed by pool-level chaos
                         harnesses; the single-provider service ignores
                         it)
=======================  =============================================
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "corrupt_checkpoint_file",
    "make_fault_plan",
]

FAULT_KINDS: tuple[str, ...] = (
    "nan_observation",
    "telemetry_gap",
    "deadline_squeeze",
    "checkpoint_corruption",
    "worker_kill",
)


@dataclass(frozen=True)
class FaultEvent:
    """One planned fault.

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        period: control period the fault fires at.
        payload: kind-specific integer — squeeze depth for
            ``deadline_squeeze``, round index for ``worker_kill``,
            unused (0) otherwise.
    """

    kind: str
    period: int
    payload: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.period < 0:
            raise ValueError(f"period must be >= 0, got {self.period}")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, fully pre-drawn chaos schedule.

    Attributes:
        seed: the seed the plan (and the injector's live generator) is
            derived from.
        events: every planned fault, ordered by period.
    """

    seed: int
    events: tuple[FaultEvent, ...] = ()

    def events_at(self, period: int) -> tuple[FaultEvent, ...]:
        """The faults scheduled for one period."""
        return tuple(event for event in self.events if event.period == period)


def make_fault_plan(
    seed: int,
    num_periods: int,
    rate: float = 0.35,
    kinds: tuple[str, ...] = FAULT_KINDS,
) -> FaultPlan:
    """Draw a random fault plan for a run of ``num_periods`` periods.

    Period 0 is never faulted (carry-forward imputation needs one finite
    observation of history), and at most one fault of each kind fires per
    period.

    Args:
        seed: plan seed (also seeds the injector's live generator).
        num_periods: scenario length ``K`` (periods ``1..K-2`` are
            eligible — the last period has no control step).
        rate: per-period probability that *some* fault fires.
        kinds: fault kinds to draw from (default: all).

    Returns:
        The :class:`FaultPlan`.
    """
    if num_periods < 2:
        raise ValueError(f"num_periods must be >= 2, got {num_periods}")
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    unknown = set(kinds) - set(FAULT_KINDS)
    if unknown:
        raise ValueError(f"unknown fault kinds: {sorted(unknown)}")
    rng = np.random.default_rng([seed])
    events: list[FaultEvent] = []
    for period in range(1, max(1, num_periods - 1)):
        if rng.uniform() >= rate:
            continue
        kind = str(rng.choice(list(kinds)))
        payload = 0
        if kind == "deadline_squeeze":
            # Squeeze 1..3 rungs; the hold rung is exempt, so any depth
            # >= 2 forces it.
            payload = int(rng.integers(1, 4))
        elif kind == "worker_kill":
            payload = int(rng.integers(0, 4))
        events.append(FaultEvent(kind=kind, period=period, payload=payload))
    return FaultPlan(seed=seed, events=tuple(events))


def corrupt_checkpoint_file(path: os.PathLike[str] | str, rng: np.random.Generator) -> str:
    """Deterministically damage a checkpoint file in place.

    Either flips a byte somewhere in the payload region or truncates the
    file — both must be caught by the checksum/length verification in
    :mod:`repro.service.checkpoint`.

    Returns:
        A short description of the damage (for the degradation log).
    """
    with open(path, "rb") as handle:
        raw = bytearray(handle.read())
    if len(raw) == 0:
        return "empty file left untouched"
    if rng.uniform() < 0.5 and len(raw) > 52:
        offset = int(rng.integers(52, len(raw)))
        raw[offset] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(raw)
        return f"flipped byte at offset {offset}"
    cut = int(rng.integers(0, len(raw)))
    with open(path, "wb") as handle:
        handle.write(raw[:cut])
    return f"truncated to {cut} bytes"


class FaultInjector:
    """Applies a :class:`FaultPlan` to a running service, statefully.

    The injector owns the only live randomness of a chaos run (NaN entry
    placement, corruption offsets); its generator is seeded from the plan
    and its state is pickled into every checkpoint, so replay and
    restore-after-crash see the identical fault stream.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rng = np.random.default_rng([plan.seed, 0xFA17])

    def perturb_observation(
        self, period: int, demand: np.ndarray, prices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
        """The telemetry the service *sees* at ``period``.

        Returns ``(demand, prices, kinds_applied)`` — fresh arrays when a
        fault applied, the originals otherwise.
        """
        applied: list[str] = []
        for event in self.plan.events_at(period):
            if event.kind == "telemetry_gap":
                demand = np.full_like(np.asarray(demand, dtype=float), np.nan)
                prices = np.full_like(np.asarray(prices, dtype=float), np.nan)
                applied.append(event.kind)
            elif event.kind == "nan_observation":
                demand = np.asarray(demand, dtype=float).copy()
                prices = np.asarray(prices, dtype=float).copy()
                demand[int(self._rng.integers(0, demand.size))] = np.nan
                if self._rng.uniform() < 0.5:
                    prices[int(self._rng.integers(0, prices.size))] = np.nan
                applied.append(event.kind)
        return demand, prices, tuple(applied)

    def squeeze_depth(self, period: int) -> int:
        """How many leading ladder rungs are squeezed (treated as timed
        out) at ``period`` (0: none)."""
        depth = 0
        for event in self.plan.events_at(period):
            if event.kind == "deadline_squeeze":
                depth = max(depth, event.payload)
        return depth

    def corrupts_checkpoint(self, period: int) -> bool:
        """Whether the generation written at ``period`` must be damaged."""
        return any(
            event.kind == "checkpoint_corruption"
            for event in self.plan.events_at(period)
        )

    def corrupt_file(self, path: os.PathLike[str] | str) -> str:
        """Damage a checkpoint file using the injector's generator."""
        return corrupt_checkpoint_file(path, self._rng)

    def worker_kills(self, period: int) -> tuple[int, ...]:
        """Planned pool-worker kill rounds at ``period`` (pool chaos only)."""
        return tuple(
            event.payload
            for event in self.plan.events_at(period)
            if event.kind == "worker_kill"
        )
