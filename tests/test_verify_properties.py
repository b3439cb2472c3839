"""Property checks (repro.verify.properties) driven through hypothesis.

Each registered check is itself a property ``(rng, tier) -> findings``;
here hypothesis draws the seed material, so the same differential and
metamorphic oracles that the fuzz CLI runs in campaigns also gate every
test run — at the smallest tier each check supports, to keep the suite
fast.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.verify.runner import CHECKS, run_trial

_FAST_CHECKS = sorted(name for name in CHECKS if name not in ("mm1_sim", "dspp_reference"))


@pytest.mark.parametrize("check", _FAST_CHECKS)
@given(seed=st.integers(0, 10**6))
@settings(max_examples=5)
def test_check_finds_nothing_on_healthy_code(check, seed):
    tier = CHECKS[check].tiers[0]
    result = run_trial(check, tier, [seed])
    assert result.error is None, result.describe()
    assert result.discrepancies == (), result.describe()


@pytest.mark.parametrize("check", ["mm1_sim", "dspp_reference"])
@given(seed=st.integers(0, 10**6))
@settings(max_examples=2)
def test_slow_checks_find_nothing_on_healthy_code(check, seed):
    tier = CHECKS[check].tiers[0]
    result = run_trial(check, tier, [seed])
    assert result.error is None, result.describe()
    assert result.discrepancies == (), result.describe()


def test_trials_are_deterministic():
    for check in ("qp_reference", "config_equivalence/warm"):
        a = run_trial(check, "tiny", [42, 7])
        b = run_trial(check, "tiny", [42, 7])
        assert a == b, check


def test_every_check_runs_on_its_smallest_tier():
    # Smoke: the full registry is executable end to end at one fixed seed.
    for name, spec in CHECKS.items():
        result = run_trial(name, spec.tiers[0], [0])
        assert not result.failed, result.describe()


def test_checks_use_only_registered_tiers():
    from repro.verify.generators import TIERS

    for spec in CHECKS.values():
        assert spec.tiers, spec.name
        assert set(spec.tiers) <= set(TIERS), spec.name
