"""Tests for the checkpoint layer (repro.service.checkpoint)."""

from __future__ import annotations

import hashlib
import pickle
import struct

import numpy as np
import pytest

from repro.cli import main
from repro.control.mpc import MPCConfig, MPCController
from repro.prediction.naive import LastValuePredictor
from repro.service import PlacementService, ServiceConfig
from repro.service.checkpoint import (
    BASE_NAME,
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointNotFoundError,
    CheckpointVersionError,
    JOURNAL_NAME,
    checkpoint_path,
    list_checkpoints,
    load_checkpoint,
    load_latest,
    write_checkpoint,
)
from repro.simulation.scenario import build_paper_scenario, build_small_scenario

HEADER_SIZE = struct.calcsize("<8sIQ32s")


def _stepped_controller(num_steps: int = 3) -> MPCController:
    """A controller mid-run, with warm workspace and predictor history."""
    scenario = build_small_scenario(num_periods=num_steps + 3, seed=7)
    instance = scenario.instance
    controller = MPCController(
        instance,
        LastValuePredictor(instance.num_locations),
        LastValuePredictor(instance.num_datacenters),
        MPCConfig(window=2, slack_penalty=1e3),
    )
    for k in range(num_steps):
        controller.step(scenario.demand[:, k], scenario.prices[:, k])
    return controller


class TestFileFormat:
    def test_write_then_load_round_trips(self, tmp_path):
        payload = {"period": 4, "blob": np.arange(12.0).reshape(3, 4)}
        path = write_checkpoint(tmp_path, 4, payload)
        assert path == checkpoint_path(tmp_path, 4)
        loaded = load_checkpoint(path)
        assert loaded["period"] == 4
        assert np.array_equal(loaded["blob"], payload["blob"])

    def test_no_temporary_file_left_behind(self, tmp_path):
        write_checkpoint(tmp_path, 0, {"x": 1})
        leftovers = [p.name for p in tmp_path.iterdir() if p.name.startswith(".")]
        assert leftovers == []

    def test_missing_file_raises_not_found(self, tmp_path):
        with pytest.raises(CheckpointNotFoundError):
            load_checkpoint(tmp_path / "ckpt-00000000.bin")

    def test_bad_magic_raises_base_error(self, tmp_path):
        path = write_checkpoint(tmp_path, 0, {"x": 1})
        raw = bytearray(path.read_bytes())
        raw[:8] = b"NOTACKPT"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_future_version_raises_typed_error(self, tmp_path):
        path = write_checkpoint(tmp_path, 0, {"x": 1})
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 8, CHECKPOINT_VERSION + 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointVersionError, match="version"):
            load_checkpoint(path)

    def test_flipped_payload_byte_fails_checksum(self, tmp_path):
        path = write_checkpoint(tmp_path, 0, {"x": list(range(100))})
        raw = bytearray(path.read_bytes())
        raw[HEADER_SIZE + 5] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointCorruptError, match="checksum"):
            load_checkpoint(path)

    def test_truncated_payload_detected(self, tmp_path):
        path = write_checkpoint(tmp_path, 0, {"x": list(range(100))})
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 7])
        with pytest.raises(CheckpointCorruptError, match="bytes"):
            load_checkpoint(path)

    def test_truncated_inside_header_detected(self, tmp_path):
        path = write_checkpoint(tmp_path, 0, {"x": 1})
        path.write_bytes(path.read_bytes()[: HEADER_SIZE - 3])
        with pytest.raises(CheckpointCorruptError, match="header"):
            load_checkpoint(path)

    def test_magic_constant_is_stable(self):
        # Part of the on-disk contract documented in docs/OPERATIONS.md.
        assert CHECKPOINT_MAGIC == b"DSPPCKPT"
        assert CHECKPOINT_VERSION == 4


class TestGenerations:
    def test_keep_prunes_oldest_generations(self, tmp_path):
        for period in range(6):
            write_checkpoint(tmp_path, period, {"period": period}, keep=3)
        names = [p.name for p in list_checkpoints(tmp_path)]
        assert names == ["ckpt-00000003.bin", "ckpt-00000004.bin", "ckpt-00000005.bin"]

    def test_load_latest_returns_newest(self, tmp_path):
        for period in range(4):
            write_checkpoint(tmp_path, period, {"period": period})
        snapshot, path, skipped, _ = load_latest(tmp_path)
        assert snapshot["period"] == 3
        assert path.name == "ckpt-00000003.bin"
        assert skipped == []

    def test_load_latest_falls_back_past_corruption_loudly(self, tmp_path):
        for period in range(3):
            write_checkpoint(tmp_path, period, {"period": period})
        newest = checkpoint_path(tmp_path, 2)
        raw = bytearray(newest.read_bytes())
        raw[-1] ^= 0xFF
        newest.write_bytes(bytes(raw))
        snapshot, path, skipped, _ = load_latest(tmp_path)
        assert snapshot["period"] == 1
        assert [p.name for p in skipped] == ["ckpt-00000002.bin"]

    def test_load_latest_empty_directory_raises(self, tmp_path):
        with pytest.raises(CheckpointNotFoundError):
            load_latest(tmp_path)

    def test_load_latest_all_corrupt_raises_and_names_files(self, tmp_path):
        path = write_checkpoint(tmp_path, 0, {"x": 1})
        path.write_bytes(path.read_bytes()[: HEADER_SIZE + 2])
        with pytest.raises(CheckpointNotFoundError, match="ckpt-00000000.bin"):
            load_latest(tmp_path)

    def test_version_mismatch_stops_fallback(self, tmp_path):
        """An incompatible version is an operator problem, not bit rot."""
        write_checkpoint(tmp_path, 0, {"x": 1})
        newest = write_checkpoint(tmp_path, 1, {"x": 2})
        raw = bytearray(newest.read_bytes())
        struct.pack_into("<I", raw, 8, CHECKPOINT_VERSION + 9)
        newest.write_bytes(bytes(raw))
        with pytest.raises(CheckpointVersionError):
            load_latest(tmp_path)


class TestControllerSnapshotDeterminism:
    """The core crash-recovery invariant, at the controller level."""

    def test_snapshot_restore_snapshot_is_byte_identical(self):
        controller = _stepped_controller()
        first = pickle.dumps(controller, protocol=4)
        second = pickle.dumps(pickle.loads(first), protocol=4)
        assert first == second

    def test_restored_controller_continues_bitwise(self):
        scenario = build_small_scenario(num_periods=8, seed=13)
        instance = scenario.instance
        controller = MPCController(
            instance,
            LastValuePredictor(instance.num_locations),
            LastValuePredictor(instance.num_datacenters),
            MPCConfig(window=3, slack_penalty=1e3),
        )
        for k in range(3):
            controller.step(scenario.demand[:, k], scenario.prices[:, k])
        clone = pickle.loads(pickle.dumps(controller, protocol=4))
        for k in range(3, 7):
            a = controller.step(scenario.demand[:, k], scenario.prices[:, k])
            b = clone.step(scenario.demand[:, k], scenario.prices[:, k])
            assert np.array_equal(a.new_state, b.new_state)
            assert np.array_equal(a.applied_control, b.applied_control)


def _generation_position(path) -> tuple[int, int]:
    """(journal records, journal offset) a generation file points to."""
    return struct.unpack_from("<QQ", path.read_bytes(), HEADER_SIZE)


def _generation_payload(path) -> bytes:
    """The snapshot pickle of a generation (after frame and journal position)."""
    return path.read_bytes()[HEADER_SIZE + struct.calcsize("<QQ32s32s") :]


def _clean_and_partial(tmp_path, crash_at: int):
    """An uninterrupted service run and one abandoned after ``crash_at``."""
    scenario = build_small_scenario(num_periods=8, seed=11)
    config = ServiceConfig(window=2, keep_checkpoints=10)
    clean = PlacementService(scenario, config, checkpoint_dir=tmp_path / "clean").run()
    assert clean is not None
    crash_dir = tmp_path / "crash"
    partial = PlacementService(scenario, config, checkpoint_dir=crash_dir)
    partial.run(until=crash_at)
    return clean, crash_dir


def _assert_same_run(clean, result) -> None:
    assert result is not None
    assert np.array_equal(clean.states, result.states)
    assert np.array_equal(clean.controls, result.controls)
    assert result.summary == clean.summary


class TestJournal:
    """Version 2: a base file, one journal and small generations."""

    def test_directory_holds_base_journal_and_generations(self, tmp_path):
        _, crash_dir = _clean_and_partial(tmp_path, crash_at=3)
        assert (crash_dir / BASE_NAME).is_file()
        assert (crash_dir / JOURNAL_NAME).is_file()
        records, offset = _generation_position(list_checkpoints(crash_dir)[-1])
        assert records == 3
        assert offset == (crash_dir / JOURNAL_NAME).stat().st_size

    def test_torn_journal_tail_falls_back_and_truncates(self, tmp_path):
        """(a) kill -9 mid-append: the newest generation's record is torn."""
        clean, crash_dir = _clean_and_partial(tmp_path, crash_at=5)
        journal = crash_dir / JOURNAL_NAME
        older = checkpoint_path(crash_dir, 4)
        _, older_offset = _generation_position(older)
        raw = journal.read_bytes()
        journal.write_bytes(raw[: (older_offset + len(raw)) // 2])
        resumed = PlacementService.restore(crash_dir)
        assert resumed.period == 4
        assert journal.stat().st_size == older_offset
        fallbacks = [e for e in resumed.log.events if e.outcome == "checkpoint_fallback"]
        assert [e.detail for e in fallbacks] == [
            "skipped corrupt generation ckpt-00000005.bin"
        ]
        _assert_same_run(clean, resumed.run())

    def test_garbage_past_the_newest_offset_is_dropped(self, tmp_path):
        """A record appended but never pointed to is truncated away."""
        clean, crash_dir = _clean_and_partial(tmp_path, crash_at=5)
        journal = crash_dir / JOURNAL_NAME
        size = journal.stat().st_size
        with open(journal, "ab") as handle:
            handle.write(b"\x07" * 100)
        resumed = PlacementService.restore(crash_dir)
        assert resumed.period == 5
        assert journal.stat().st_size == size
        _assert_same_run(clean, resumed.run())

    def test_fallback_past_corrupt_generation_truncates_journal(self, tmp_path):
        """(b) the journal goes back to the older generation's offset."""
        clean, crash_dir = _clean_and_partial(tmp_path, crash_at=5)
        newest = checkpoint_path(crash_dir, 5)
        raw = bytearray(newest.read_bytes())
        raw[-3] ^= 0xFF
        newest.write_bytes(bytes(raw))
        _, older_offset = _generation_position(checkpoint_path(crash_dir, 4))
        resumed = PlacementService.restore(crash_dir)
        assert resumed.period == 4
        assert (crash_dir / JOURNAL_NAME).stat().st_size == older_offset
        _assert_same_run(clean, resumed.run())

    def test_damaged_journal_record_names_it(self, tmp_path):
        """A record before every generation's offset leaves nothing usable."""
        _, crash_dir = _clean_and_partial(tmp_path, crash_at=3)
        journal = crash_dir / JOURNAL_NAME
        raw = bytearray(journal.read_bytes())
        raw[struct.calcsize("<Q32s") + 1] ^= 0xFF
        journal.write_bytes(bytes(raw))
        with pytest.raises(CheckpointNotFoundError, match="journal.bin record 0"):
            PlacementService.restore(crash_dir)

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_v1_directory_fails_loudly(self, tmp_path, version):
        """(c) an older-version directory is an operator problem: no fallback."""
        payload = pickle.dumps({"period": 3}, protocol=4)
        for period in (2, 3):
            header = struct.pack(
                "<8sIQ32s",
                CHECKPOINT_MAGIC,
                version,
                len(payload),
                hashlib.sha256(payload).digest(),
            )
            checkpoint_path(tmp_path, period).write_bytes(header + payload)
        match = f"format version {version}"
        with pytest.raises(CheckpointVersionError, match=match):
            PlacementService.restore(tmp_path)
        with pytest.raises(CheckpointVersionError, match=match):
            main(["serve", "--checkpoint-dir", str(tmp_path), "--resume"])

    def test_corrupt_base_raises_naming_it(self, tmp_path):
        """(d) every generation needs the base: no fallback past it."""
        _, crash_dir = _clean_and_partial(tmp_path, crash_at=3)
        base = crash_dir / BASE_NAME
        raw = bytearray(base.read_bytes())
        raw[-5] ^= 0xFF
        base.write_bytes(bytes(raw))
        with pytest.raises(CheckpointCorruptError, match=BASE_NAME):
            PlacementService.restore(crash_dir)

    def test_fresh_series_replaces_older_generations(self, tmp_path):
        _, crash_dir = _clean_and_partial(tmp_path, crash_at=5)
        scenario = build_small_scenario(num_periods=8, seed=12)
        PlacementService(scenario, checkpoint_dir=crash_dir).run(until=2)
        assert [p.name for p in list_checkpoints(crash_dir)] == [
            "ckpt-00000001.bin",
            "ckpt-00000002.bin",
        ]
        assert PlacementService.restore(crash_dir).scenario.demand.tobytes() == (
            scenario.demand.tobytes()
        )

    def test_generation_payload_round_trips_byte_identically(self, tmp_path):
        _, crash_dir = _clean_and_partial(tmp_path, crash_at=4)
        newest = checkpoint_path(crash_dir, 4)
        before = _generation_payload(newest)
        resumed = PlacementService.restore(crash_dir)
        assert resumed.checkpoint() == newest
        assert _generation_payload(newest) == before

    def test_generation_size_does_not_grow_with_the_run(self, tmp_path):
        """(e) at paper scale the history lives in the journal."""
        scenario = build_paper_scenario(num_periods=48, seed=0)
        service = PlacementService(
            scenario,
            ServiceConfig(window=6, keep_checkpoints=100),
            checkpoint_dir=tmp_path,
        )
        service.run(until=40)
        early = checkpoint_path(tmp_path, 5).stat().st_size
        late = checkpoint_path(tmp_path, 40).stat().st_size
        assert late <= 1.1 * early
