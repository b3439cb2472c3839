"""Differential-oracle and property-fuzzing subsystem (`repro.verify`).

The repo now has several independent solve paths for the same problems —
the ADMM core, the certified active-set crossover, the persistent
workspaces, the scipy LP layer, the analytic queueing formulas against the
event-driven simulator.  This package continuously cross-checks them:

* :mod:`repro.verify.generators` — seeded random ``DSPPInstance``/QP/
  routing generators across scale tiers (feasible, near-infeasible and
  infeasible regimes).
* :mod:`repro.verify.oracles` — slow-but-trusted references: a
  ``scipy.optimize`` QP solve, brute-force enumeration of small integer
  placements, analytic M/M/1 formulas vs the event simulator, and direct
  KKT-residual certificates, all with tolerance-aware comparison.
* :mod:`repro.verify.properties` — metamorphic properties (cost scale
  invariance, demand/price monotonicity, horizon-1 MPC ≡ myopic solve,
  routing optimality, ...) and the solve-path equivalences: one
  receding-horizon walk per row of its pair table (banded ≡ sparse KKT
  backend, pruned ≡ full pair mask, persistent workspace ≡ cold solves).
* :mod:`repro.verify.runner` — the fuzz campaign driver: a budgeted,
  seeded sweep over all registered checks with automatic shrinking of
  failures to the smallest reproducing tier.
* :mod:`repro.verify.corpus` — the regression-corpus recorder/replayer
  behind ``tests/corpus/*.json`` and ``python -m repro verify replay``.

Command line: ``python -m repro verify fuzz --budget 200 --seed 0`` and
``python -m repro verify replay`` (see :mod:`repro.verify.cli`).
"""

from __future__ import annotations

from repro.verify.corpus import CorpusEntry, load_corpus, record_entry
from repro.verify.generators import (
    TIERS,
    ScaleTier,
    random_demand,
    random_instance,
    random_prices,
    random_qp,
    random_routing_problem,
)
from repro.verify.oracles import Discrepancy, reference_qp_solution
from repro.verify.runner import CHECKS, FuzzConfig, FuzzReport, replay_corpus, run_fuzz

__all__ = [
    "CHECKS",
    "CorpusEntry",
    "Discrepancy",
    "FuzzConfig",
    "FuzzReport",
    "ScaleTier",
    "TIERS",
    "load_corpus",
    "random_demand",
    "random_instance",
    "random_prices",
    "random_qp",
    "random_routing_problem",
    "record_entry",
    "reference_qp_solution",
    "replay_corpus",
    "run_fuzz",
]
