"""Tests for the verify CLI, the fuzz runner and the regression corpus."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main
from repro.verify.corpus import CorpusEntry, entry_filename, load_corpus, record_entry
from repro.verify.runner import (
    CHECKS,
    CheckSpec,
    FuzzConfig,
    replay_corpus,
    run_fuzz,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
COMMITTED_CORPUS = REPO_ROOT / "tests" / "corpus"


class TestCorpusRoundTrip:
    def test_record_then_load(self, tmp_path):
        entry = CorpusEntry(
            check="qp_reference", tier="tiny", seed=[1, 2], note="n", created="2026-08-06"
        )
        path = record_entry(entry, tmp_path)
        assert path.name == entry_filename(entry)
        assert load_corpus(tmp_path) == [entry]

    def test_record_is_idempotent(self, tmp_path):
        entry = CorpusEntry(check="qp_reference", tier="tiny", seed=[5])
        record_entry(entry, tmp_path)
        record_entry(entry, tmp_path)
        assert len(load_corpus(tmp_path)) == 1

    def test_missing_directory_is_empty(self, tmp_path):
        assert load_corpus(tmp_path / "nope") == []

    def test_unknown_keys_rejected(self, tmp_path):
        (tmp_path / "bad.json").write_text(
            '{"check": "a", "tier": "tiny", "seed": [1], "extra": 1}'
        )
        with pytest.raises(ValueError, match="unexpected keys"):
            load_corpus(tmp_path)

    def test_missing_keys_rejected(self, tmp_path):
        (tmp_path / "bad.json").write_text('{"check": "a"}')
        with pytest.raises(ValueError, match="missing keys"):
            load_corpus(tmp_path)

    def test_non_integer_seed_rejected(self, tmp_path):
        (tmp_path / "bad.json").write_text(
            '{"check": "a", "tier": "tiny", "seed": ["x"]}'
        )
        with pytest.raises(ValueError, match="list of ints"):
            load_corpus(tmp_path)

    def test_invalid_json_rejected(self, tmp_path):
        (tmp_path / "bad.json").write_text("{")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_corpus(tmp_path)


class TestRunner:
    def test_fuzz_budget_and_determinism(self):
        config = FuzzConfig(budget=6, seed=123, checks=("qp_reference",))
        a = run_fuzz(config)
        b = run_fuzz(config)
        assert a.num_trials == 6
        assert a.trials == b.trials
        assert a.ok

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FuzzConfig(budget=0)
        with pytest.raises(ValueError):
            FuzzConfig(tiers=("galactic",))
        with pytest.raises(ValueError):
            FuzzConfig(checks=("no_such_check",))

    def test_failing_check_is_shrunk_and_recorded(self, tmp_path, monkeypatch):
        # Inject a check that fails at every tier: the runner must shrink
        # the failure to the smallest tier and record it to the corpus.
        def always_fails(rng, tier):
            raise AssertionError("synthetic failure")

        monkeypatch.setitem(
            CHECKS, "synthetic_failure", CheckSpec("synthetic_failure", always_fails)
        )
        config = FuzzConfig(
            budget=3, seed=0, checks=("synthetic_failure",), corpus_dir=tmp_path
        )
        report = run_fuzz(config)
        assert not report.ok
        # Trials 1 and 2 drew the small and medium tiers; both shrink back.
        assert [t.tier for t in report.trials] == ["tiny", "tiny", "tiny"]
        entries = load_corpus(tmp_path)
        assert len(entries) == 3
        assert {e.check for e in entries} == {"synthetic_failure"}
        assert {e.tier for e in entries} == {"tiny"}
        # The recorded entry replays to the same failure.
        replay = replay_corpus(tmp_path)
        assert not replay.ok

    def test_replay_fails_on_unknown_check(self, tmp_path):
        record_entry(CorpusEntry(check="renamed_away", tier="tiny", seed=[1]), tmp_path)
        report = replay_corpus(tmp_path)
        assert not report.ok
        assert "unknown check" in report.trials[0].error


class TestCLI:
    def test_list_prints_registry(self, capsys):
        assert main(["verify", "list"]) == 0
        out = capsys.readouterr().out
        for name in CHECKS:
            assert name in out

    def test_fuzz_small_budget_green(self, capsys):
        code = main(
            ["verify", "fuzz", "--budget", "4", "--seed", "0", "--check", "qp_reference"]
        )
        assert code == 0
        assert "4 trials, 0 failing" in capsys.readouterr().out

    def test_replay_committed_corpus_green(self, capsys):
        # The same gate CI runs: every committed regression seed must pass.
        assert main(["verify", "replay", "--corpus", str(COMMITTED_CORPUS)]) == 0
        out = capsys.readouterr().out
        assert "0 failing" in out

    def test_every_check_has_a_committed_entry(self):
        # A rename that forgets its corpus entries would drop their pins.
        pinned = {entry.check for entry in load_corpus(COMMITTED_CORPUS)}
        assert set(CHECKS) <= pinned, sorted(set(CHECKS) - pinned)

    def test_replay_empty_corpus_is_ok(self, tmp_path, capsys):
        assert main(["verify", "replay", "--corpus", str(tmp_path)]) == 0
        assert "nothing to replay" in capsys.readouterr().out

    def test_fuzz_exits_nonzero_on_failure(self, monkeypatch, capsys):
        def always_fails(rng, tier):
            raise AssertionError("synthetic failure")

        monkeypatch.setitem(
            CHECKS, "synthetic_failure", CheckSpec("synthetic_failure", always_fails)
        )
        code = main(
            ["verify", "fuzz", "--budget", "1", "--check", "synthetic_failure"]
        )
        assert code == 1

    def test_rejects_unknown_check_name(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "fuzz", "--check", "definitely_not_a_check"])
