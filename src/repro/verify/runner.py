"""The fuzz-campaign driver: budgeted sweeps, shrinking, corpus replay.

A campaign is fully determined by ``(seed, budget, checks, tiers)``:
trial ``i`` runs check ``order[i % len(order)]`` with the generator
``np.random.default_rng([seed, i])``, so any failure is reproducible from
the two integers alone.  Failures are shrunk to the smallest tier that
still reproduces (same seed material, smaller problem) and recorded to
the regression corpus for the gating replayer.

This module owns the :data:`CHECKS` registry.  A check is a function
``(rng, tier) -> list[Discrepancy]``; anything it *raises* is also a
failure (solver crashes are findings, not noise).
"""

from __future__ import annotations

import traceback
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from datetime import date
from functools import partial
from pathlib import Path

import numpy as np

from repro.verify import properties as props
from repro.verify.corpus import CorpusEntry, load_corpus, record_entry
from repro.verify.generators import TIERS, ScaleTier
from repro.verify.oracles import Discrepancy

__all__ = [
    "CHECKS",
    "CheckSpec",
    "FuzzConfig",
    "FuzzReport",
    "TrialResult",
    "replay_corpus",
    "run_fuzz",
    "run_trial",
]

CheckFn = Callable[[np.random.Generator, ScaleTier], list[Discrepancy]]

# Tier order used for shrinking (small problems first).
_TIER_ORDER = ("tiny", "small", "medium")


@dataclass(frozen=True)
class CheckSpec:
    """One registered differential/metamorphic check.

    Attributes:
        name: registry key (also the corpus ``check`` field).
        fn: the property function.
        tiers: tier names this check may run at (expensive oracles cap
            their scale here; the enumeration checks draw their own size).
    """

    name: str
    fn: CheckFn
    tiers: tuple[str, ...] = _TIER_ORDER


CHECKS: dict[str, CheckSpec] = {
    spec.name: spec
    for spec in (
        # trust-constr references get dense and slow past the small tier.
        CheckSpec("qp_reference", props.prop_qp_reference, ("tiny", "small", "medium")),
        CheckSpec("qp_workspace_sequence", props.prop_qp_workspace_sequence),
        *(
            CheckSpec(
                f"config_equivalence/{pair}", partial(props.prop_config_equivalence, pair=pair)
            )
            for pair in props.EQUIVALENCE_PAIRS
        ),
        CheckSpec("dspp_reference", props.prop_dspp_reference, ("tiny", "small")),
        CheckSpec("cost_scale_invariance", props.prop_cost_scale_invariance),
        CheckSpec("demand_monotonicity", props.prop_demand_monotonicity),
        CheckSpec("price_monotonicity", props.prop_price_monotonicity),
        CheckSpec(
            "horizon1_mpc_equals_myopic",
            props.prop_horizon1_mpc_equals_myopic,
            ("tiny", "small"),
        ),
        CheckSpec("integer_sandwich", props.prop_integer_sandwich, ("tiny",)),
        CheckSpec("elastic_infeasible", props.prop_elastic_infeasible, ("tiny", "small")),
        CheckSpec("routing_differential", props.prop_routing_differential),
        CheckSpec("mm1_sim", props.prop_mm1_sim, ("tiny",)),
        CheckSpec("mm1_inversion", props.prop_mm1_inversion, ("tiny",)),
        # Request-level replays: an MPC solve plus tens of thousands of
        # simulated requests per trial — capped below the medium tier.
        CheckSpec("fluid_matches_events", props.prop_fluid_matches_events, ("tiny", "small")),
        CheckSpec(
            "events_deterministic_replay",
            props.prop_events_deterministic_replay,
            ("tiny", "small"),
        ),
        # Three full equilibrium runs per trial (serial + jobs 2 and 4,
        # spawning real worker processes) — capped below the medium tier.
        CheckSpec(
            "sharded_equilibrium_equals_serial",
            props.prop_sharded_equilibrium_equals_serial,
            ("tiny", "small"),
        ),
        # Two full checkpointed service runs (dozens of MPC solves plus a
        # pickle/restore round-trip) per trial — capped below medium.
        CheckSpec(
            "service_crash_recovery",
            props.prop_service_crash_recovery,
            ("tiny", "small"),
        ),
    )
}


@dataclass(frozen=True)
class FuzzConfig:
    """Configuration of one fuzzing campaign.

    Attributes:
        budget: number of trials to run.
        seed: campaign seed; trial ``i`` derives ``[seed, i]``.
        tiers: tier names to draw from (intersected with each check's own
            allowance).
        checks: check names to run (empty tuple = all registered).
        corpus_dir: where to record shrunk failures (``None`` = don't).
        shrink: shrink failures to the smallest reproducing tier.
    """

    budget: int = 200
    seed: int = 0
    tiers: tuple[str, ...] = _TIER_ORDER
    checks: tuple[str, ...] = ()
    corpus_dir: Path | None = None
    shrink: bool = True

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        unknown_tiers = set(self.tiers) - set(TIERS)
        if unknown_tiers:
            raise ValueError(f"unknown tiers: {sorted(unknown_tiers)}")
        unknown_checks = set(self.checks) - set(CHECKS)
        if unknown_checks:
            raise ValueError(f"unknown checks: {sorted(unknown_checks)}")


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one (check, tier, seed) execution.

    Attributes:
        check: check name.
        tier: tier name the trial ran at.
        seed: seed material handed to ``np.random.default_rng``.
        discrepancies: tolerance violations the check reported.
        error: traceback text if the check *raised* instead of reporting.
    """

    check: str
    tier: str
    seed: tuple[int, ...]
    discrepancies: tuple[Discrepancy, ...] = ()
    error: str | None = None

    @property
    def failed(self) -> bool:
        return bool(self.discrepancies) or self.error is not None

    def describe(self) -> str:
        """One block of text describing the failure (empty when passed)."""
        if not self.failed:
            return ""
        lines = [f"{self.check} @ {self.tier} seed={list(self.seed)}"]
        lines.extend(f"  {finding}" for finding in self.discrepancies)
        if self.error is not None:
            lines.append("  raised:")
            lines.extend(f"    {line}" for line in self.error.strip().splitlines())
        return "\n".join(lines)


@dataclass(frozen=True)
class FuzzReport:
    """Aggregate of a campaign (or a corpus replay).

    Attributes:
        trials: every trial, in execution order.
        recorded: corpus files written for shrunk failures.
    """

    trials: tuple[TrialResult, ...]
    recorded: tuple[Path, ...] = field(default_factory=tuple)

    @property
    def num_trials(self) -> int:
        return len(self.trials)

    @property
    def failures(self) -> tuple[TrialResult, ...]:
        return tuple(trial for trial in self.trials if trial.failed)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        """Human-readable campaign summary."""
        per_check: dict[str, int] = {}
        for trial in self.trials:
            per_check[trial.check] = per_check.get(trial.check, 0) + 1
        lines = [
            f"{self.num_trials} trials, {len(self.failures)} failing, "
            f"{sum(len(t.discrepancies) for t in self.trials)} discrepancies"
        ]
        for name in sorted(per_check):
            failed = sum(1 for t in self.trials if t.check == name and t.failed)
            status = "ok" if failed == 0 else f"{failed} FAILING"
            lines.append(f"  {name:32s} {per_check[name]:4d} trials  {status}")
        for trial in self.failures:
            lines.append("")
            lines.append(trial.describe())
        if self.recorded:
            lines.append("")
            lines.append("recorded to corpus:")
            lines.extend(f"  {path}" for path in self.recorded)
        return "\n".join(lines)


def run_trial(check: str, tier: str, seed: Sequence[int]) -> TrialResult:
    """Execute one check at one tier with explicit seed material."""
    spec = CHECKS[check]
    rng = np.random.default_rng(list(seed))
    try:
        findings = spec.fn(rng, TIERS[tier])
    except Exception:  # noqa: BLE001 — a crash in any layer is a finding
        return TrialResult(
            check=check,
            tier=tier,
            seed=tuple(seed),
            error=traceback.format_exc(limit=20),
        )
    return TrialResult(
        check=check, tier=tier, seed=tuple(seed), discrepancies=tuple(findings)
    )


def _shrink(result: TrialResult) -> TrialResult:
    """Re-run a failing trial at smaller tiers; keep the smallest failure."""
    for tier_name in _TIER_ORDER:
        if tier_name == result.tier:
            break
        if tier_name not in CHECKS[result.check].tiers:
            continue
        candidate = run_trial(result.check, tier_name, result.seed)
        if candidate.failed:
            return candidate
    return result


def run_fuzz(config: FuzzConfig) -> FuzzReport:
    """Run one budgeted fuzzing campaign.

    Trials cycle deterministically over the (check, tier) grid; the trial
    index is part of the seed, so two campaigns with the same seed and
    budget are identical and any single trial can be replayed in
    isolation via :func:`run_trial`.
    """
    names = config.checks or tuple(CHECKS)
    grid: list[tuple[str, str]] = []
    for name in names:
        for tier_name in CHECKS[name].tiers:
            if tier_name in config.tiers:
                grid.append((name, tier_name))
    if not grid:
        raise ValueError("no (check, tier) combinations selected")

    trials: list[TrialResult] = []
    recorded: list[Path] = []
    for index in range(config.budget):
        check, tier_name = grid[index % len(grid)]
        result = run_trial(check, tier_name, (config.seed, index))
        if result.failed and config.shrink:
            result = _shrink(result)
        trials.append(result)
        if result.failed and config.corpus_dir is not None:
            note = (
                result.discrepancies[0].message
                if result.discrepancies
                else "check raised an exception"
            )
            entry = CorpusEntry(
                check=result.check,
                tier=result.tier,
                seed=list(result.seed),
                note=f"found by fuzz campaign seed={config.seed}: {note}",
                created=date.today().isoformat(),
            )
            recorded.append(record_entry(entry, config.corpus_dir))
    return FuzzReport(trials=tuple(trials), recorded=tuple(recorded))


def replay_corpus(corpus_dir: Path | str) -> FuzzReport:
    """Re-run every committed corpus entry; all must pass.

    Unknown check names fail the replay (an entry must never rot into a
    silent no-op after a rename).
    """
    trials: list[TrialResult] = []
    for entry in load_corpus(corpus_dir):
        if entry.check not in CHECKS:
            trials.append(
                TrialResult(
                    check=entry.check,
                    tier=entry.tier,
                    seed=tuple(entry.seed),
                    error=f"unknown check {entry.check!r}; registry has "
                    f"{sorted(CHECKS)}",
                )
            )
            continue
        trials.append(run_trial(entry.check, entry.tier, entry.rng_seed()))
    return FuzzReport(trials=tuple(trials))
