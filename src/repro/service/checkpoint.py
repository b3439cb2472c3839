"""Versioned, checksummed checkpoints: a base file, a journal and small generations.

A checkpoint directory (format version 3) holds one *series*: the files a
run writes from its first checkpoint on.

* ``base.bin`` holds the immutable objects (the service's scenario and
  config).  It is written once per series, atomically.
* ``journal.bin`` is append-only.  Each checkpoint appends one record with
  the new tails of every append-only list of the snapshot (states,
  controls, routing decisions, terminal rungs, degradation events,
  monitoring records, predictor histories and metrics lists), so no write
  repeats history.  The journal is ``fsync``-ed before the generation
  that points into it is written.
* ``ckpt-<period:08d>.bin`` is one *generation* per checkpointed period.
  It pickles only the live objects; the base objects and the journaled
  lists are replaced by references (a ``pickle`` ``persistent_id`` /
  ``persistent_load`` pair).  It also stores the journal's record count,
  byte offset and chain digest, and the base's digest.

``base.bin`` and every generation share one frame (integers
little-endian)::

    offset  size  field
    0       8     magic  b"DSPPCKPT"
    8       4     format version (uint32)
    12      8     body length in bytes (uint64)
    20      32    SHA-256 digest of the body
    52      ...   body

The base body is the ``pickle`` (protocol 4) of the base dict.  A
generation body is ``journal records (uint64), journal offset (uint64),
journal chain digest (32 bytes), base digest (32 bytes)`` followed by the
snapshot pickle.  A journal record is ``payload length (uint64), SHA-256 of
the payload (32 bytes)`` followed by the payload: the pickle of a dict from
list name to the items appended since the previous record.  The chain
digest after record ``i`` is ``SHA-256(chain_{i-1} + digest_i)``, starting
from 32 zero bytes, so a generation names exactly the journal prefix it
was written against.

Writes are crash-safe.  The base and each generation go to a temporary
file in the same directory, are flushed and ``fsync``-ed, and are then
atomically renamed into place (the directory is ``fsync``-ed too, so the
rename itself survives power loss).  A ``kill -9`` in the middle of a
journal append leaves a torn tail past the newest generation's offset.

:func:`load_latest` walks generations newest-first and picks the first
whose own checksum and journal prefix both verify.  It *explicitly* falls
back past corrupted or truncated files, reporting the files it skipped — a
checkpoint is never silently loaded as garbage.  It then truncates the
journal to that generation's offset, which drops any torn tail, so later
appends never duplicate a period.  A damaged base file is not bit rot of
one generation: every generation needs it, so it raises a
:class:`CheckpointCorruptError` that names it.  Note the trade-off of the
journal: a record damaged before the newest generation's offset makes
every generation that points past it unusable, so restore falls back
further, or raises naming the record.

The snapshot pickle is deliberately canonical (derived and per-solve
scratch state is stripped at pickling time, see ``QPWorkspace.__getstate__``
and ``DSPPWorkspace.__getstate__``), so snapshot → restore → snapshot
round-trips byte-identically; the ``service_crash_recovery`` check in
:mod:`repro.verify` builds on this.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
import re
import struct
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, NamedTuple

__all__ = [
    "BASE_NAME",
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "JOURNAL_NAME",
    "CheckpointCorruptError",
    "CheckpointError",
    "CheckpointNotFoundError",
    "CheckpointSeries",
    "CheckpointVersionError",
    "LatestCheckpoint",
    "checkpoint_path",
    "list_checkpoints",
    "load_checkpoint",
    "load_latest",
    "write_checkpoint",
]

CHECKPOINT_MAGIC = b"DSPPCKPT"
CHECKPOINT_VERSION = 4
BASE_NAME = "base.bin"
JOURNAL_NAME = "journal.bin"

_HEADER = struct.Struct("<8sIQ32s")
# Journal records, journal offset, journal chain digest, base digest.
_GENERATION_META = struct.Struct("<QQ32s32s")
_RECORD = struct.Struct("<Q32s")
_NO_DIGEST = bytes(32)
_GENERATION_NAME = re.compile(r"ckpt-\d{8}\.bin")
# Pinned protocol: the snapshot bytes must be stable for the
# byte-identical round-trip guarantee, independent of the interpreter's
# current default protocol.
_PICKLE_PROTOCOL = 4


class CheckpointError(RuntimeError):
    """Base class of every checkpoint load/store failure."""


class CheckpointNotFoundError(CheckpointError):
    """No (readable) checkpoint generation exists in the directory."""


class CheckpointCorruptError(CheckpointError):
    """A checkpoint file is truncated or fails its checksum."""


class CheckpointVersionError(CheckpointError):
    """A checkpoint was written by an incompatible format version."""


@dataclass
class CheckpointSeries:
    """Where one writer stands in its checkpoint directory.

    A fresh series has written nothing yet: its first
    :func:`write_checkpoint` with a base or journal starts the directory
    over.  :func:`load_latest` returns a series positioned at the loaded
    generation, so a restored run appends where that generation left off.

    Attributes:
        started: whether this series owns the directory's base and journal.
        base: the base objects written (referenced, not re-pickled, by
            every generation).
        base_digest: SHA-256 of the base body (zeros: no base).
        records: journal records written.
        offset: journal bytes written.
        chain: chain digest after the last record.
        lengths: items of each journaled list already in the journal.
    """

    started: bool = False
    base: dict[str, Any] = field(default_factory=dict)
    base_digest: bytes = _NO_DIGEST
    records: int = 0
    offset: int = 0
    chain: bytes = _NO_DIGEST
    lengths: dict[str, int] = field(default_factory=dict)


class LatestCheckpoint(NamedTuple):
    """What :func:`load_latest` found.

    Attributes:
        snapshot: the loaded snapshot object.
        path: the generation it came from.
        skipped: newer generations that failed verification and were
            passed over (for the caller to surface — fallback is loud,
            never silent).
        series: the writer position to continue the series from.
    """

    snapshot: Any
    path: Path
    skipped: list[Path]
    series: CheckpointSeries


def checkpoint_path(directory: Path | str, period: int) -> Path:
    """Canonical generation filename for a period boundary."""
    if period < 0:
        raise ValueError(f"period must be >= 0, got {period}")
    return Path(directory) / f"ckpt-{period:08d}.bin"


def list_checkpoints(directory: Path | str) -> list[Path]:
    """All generation files, oldest first (empty if none/missing dir)."""
    directory = Path(directory)
    try:
        names = sorted(os.listdir(directory))
    except (FileNotFoundError, NotADirectoryError):
        return []
    return [directory / name for name in names if _GENERATION_NAME.fullmatch(name)]


# ----------------------------------------------------------------------
# writing


class _RefPickler(pickle.Pickler):
    """Pickles registered objects as references (by identity)."""

    def __init__(self, file: io.BytesIO, refs: dict[int, tuple[str, str]]) -> None:
        super().__init__(file, protocol=_PICKLE_PROTOCOL)
        self._refs = refs

    def persistent_id(self, obj: Any) -> tuple[str, str] | None:
        return self._refs.get(id(obj))


def write_checkpoint(
    directory: Path | str,
    period: int,
    snapshot: Any,
    keep: int = 3,
    *,
    base: dict[str, Any] | None = None,
    journal: dict[str, list[Any]] | None = None,
    series: CheckpointSeries | None = None,
) -> Path:
    """Write one generation: base (once), journal tails, then the generation.

    Args:
        directory: checkpoint directory (created if missing).
        period: period index the snapshot was taken at (names the file).
        snapshot: any picklable object (the service's state dict).
        keep: number of newest generations to retain (>= 1).
        base: immutable objects, written once per series (later calls
            reuse the series' base); the snapshot refers to them by
            identity.
        journal: named append-only lists; the snapshot refers to them by
            identity, and only their new tails are appended to the journal.
        series: the writer's position, advanced in place.  Required with
            ``base`` or ``journal``.  Its first use starts the directory
            over: older generations are removed, the journal is emptied
            and the base is written.

    Returns:
        The path of the generation written.

    Raises:
        ValueError: on a bad ``keep``, or ``base``/``journal`` without a
            series.
        CheckpointError: a journaled list shrank.
    """
    if keep < 1:
        raise ValueError(f"keep must be >= 1, got {keep}")
    if series is None:
        if base is not None or journal is not None:
            raise ValueError("a base or journal needs a CheckpointSeries")
        series = CheckpointSeries()
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if (base is not None or journal is not None) and not series.started:
        _start_series(directory, base or {}, series)
    # Interned names: a restored series' names come out of a pickle, and a
    # name object shared with the snapshot must pickle the same way.
    refs = {id(value): ("base", sys.intern(name)) for name, value in series.base.items()}
    if journal is not None:
        _append_journal(directory, journal, series)
        refs.update(
            {id(items): ("journal", sys.intern(name)) for name, items in journal.items()}
        )

    buffer = io.BytesIO()
    buffer.write(
        _GENERATION_META.pack(
            series.records, series.offset, series.chain, series.base_digest
        )
    )
    _RefPickler(buffer, refs).dump(snapshot)
    final = checkpoint_path(directory, period)
    _write_atomically(final, buffer.getvalue())
    for stale in list_checkpoints(directory)[:-keep]:
        stale.unlink(missing_ok=True)
    return final


def _write_atomically(final: Path, body: bytes) -> None:
    """Frame ``body`` and write it to ``final`` atomically and durably."""
    digest = hashlib.sha256(body).digest()
    tmp = final.parent / f".{final.name}.tmp"
    with open(tmp, "wb") as handle:
        handle.write(_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(body), digest))
        handle.write(body)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, final)
    _fsync_directory(final.parent)


def _start_series(
    directory: Path, base: dict[str, Any], series: CheckpointSeries
) -> None:
    """Claim the directory: drop older generations, empty the journal and
    write the base."""
    for stale in list_checkpoints(directory):
        stale.unlink()
    with open(directory / JOURNAL_NAME, "wb") as handle:
        os.fsync(handle.fileno())
    body = pickle.dumps(base, protocol=_PICKLE_PROTOCOL)
    _write_atomically(directory / BASE_NAME, body)
    series.started = True
    series.base = dict(base)
    series.base_digest = hashlib.sha256(body).digest()
    series.records = series.offset = 0
    series.chain = _NO_DIGEST
    series.lengths = {}


def _append_journal(
    directory: Path, journal: dict[str, list[Any]], series: CheckpointSeries
) -> None:
    """Append one record with every list's new tail (none if nothing grew)."""
    tails: dict[str, list[Any]] = {}
    for name, items in journal.items():
        done = series.lengths.get(name, 0)
        if len(items) < done:
            raise CheckpointError(
                f"journaled list {name!r} shrank from {done} to {len(items)} items"
            )
        if len(items) > done:
            tails[name] = items[done:]
    if not tails:
        return
    payload = pickle.dumps(tails, protocol=_PICKLE_PROTOCOL)
    digest = hashlib.sha256(payload).digest()
    with open(directory / JOURNAL_NAME, "ab") as handle:
        if handle.tell() != series.offset:
            # Anything past the series' offset is a failed earlier append.
            handle.truncate(series.offset)
        handle.write(_RECORD.pack(len(payload), digest))
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    series.records += 1
    series.offset += _RECORD.size + len(payload)
    series.chain = hashlib.sha256(series.chain + digest).digest()
    for name, tail in tails.items():
        series.lengths[name] = series.lengths.get(name, 0) + len(tail)


def _fsync_directory(directory: Path) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# ----------------------------------------------------------------------
# reading


class _RefUnpickler(pickle.Unpickler):
    """Resolves the references :class:`_RefPickler` wrote."""

    def __init__(
        self, file: io.BytesIO, base: dict[str, Any], lists: dict[str, list[Any]]
    ) -> None:
        super().__init__(file)
        self._base = base
        self._lists = lists

    def persistent_load(self, pid: Any) -> Any:
        kind, name = pid
        if kind == "base" and name in self._base:
            return self._base[name]
        if kind == "journal":
            return self._lists.setdefault(name, [])
        raise pickle.UnpicklingError(f"unknown checkpoint reference {pid!r}")


def _read_body(path: Path) -> bytes:
    """The verified body of a framed file (base or generation)."""
    try:
        raw = path.read_bytes()
    except FileNotFoundError as error:
        raise CheckpointNotFoundError(f"no checkpoint at {path}") from error
    if len(raw) < _HEADER.size:
        raise CheckpointCorruptError(
            f"{path}: {len(raw)} bytes is shorter than the {_HEADER.size}-byte header"
        )
    magic, version, length, digest = _HEADER.unpack_from(raw)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic {magic!r}; not a checkpoint file")
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"{path}: format version {version}, this build reads "
            f"{CHECKPOINT_VERSION}"
        )
    body = raw[_HEADER.size :]
    if len(body) != length:
        raise CheckpointCorruptError(
            f"{path}: body is {len(body)} bytes, header promises {length}"
        )
    if hashlib.sha256(body).digest() != digest:
        raise CheckpointCorruptError(f"{path}: payload checksum mismatch")
    return body


@dataclass(frozen=True)
class _Generation:
    path: Path
    records: int
    offset: int
    chain: bytes
    base_digest: bytes
    payload: bytes


def _read_generation(path: Path) -> _Generation:
    body = _read_body(path)
    if len(body) < _GENERATION_META.size:
        raise CheckpointCorruptError(f"{path}: body is shorter than its journal position")
    records, offset, chain, base_digest = _GENERATION_META.unpack_from(body)
    return _Generation(
        path, records, offset, chain, base_digest, body[_GENERATION_META.size :]
    )


class _Directory:
    """Read-side view of a checkpoint directory: its base and journal,
    each read and verified at most once."""

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self._base: tuple[dict[str, Any], bytes] | None = None
        # Per verified journal record: (end offset, chain after it, payload).
        self._records: list[tuple[int, bytes, bytes]] | None = None
        self._journal_error = ""

    def base(self) -> tuple[dict[str, Any], bytes]:
        """The base objects and their digest (empty if there is no base)."""
        if self._base is None:
            path = self.directory / BASE_NAME
            if not path.exists():
                self._base = ({}, _NO_DIGEST)
            else:
                body = _read_body(path)
                self._base = (pickle.loads(body), hashlib.sha256(body).digest())
        return self._base

    def _index_journal(self) -> list[tuple[int, bytes, bytes]]:
        """Verify the journal's records up to the first torn or bad one."""
        if self._records is None:
            path = self.directory / JOURNAL_NAME
            raw = path.read_bytes() if path.exists() else b""
            records: list[tuple[int, bytes, bytes]] = []
            position, chain = 0, _NO_DIGEST
            while position < len(raw):
                where = f"{JOURNAL_NAME} record {len(records)} at offset {position}"
                if position + _RECORD.size > len(raw):
                    self._journal_error = f"{where}: torn header"
                    break
                length, digest = _RECORD.unpack_from(raw, position)
                start = position + _RECORD.size
                payload = raw[start : start + length]
                if len(payload) != length:
                    self._journal_error = f"{where}: torn payload"
                    break
                if hashlib.sha256(payload).digest() != digest:
                    self._journal_error = f"{where}: checksum mismatch"
                    break
                position = start + length
                chain = hashlib.sha256(chain + digest).digest()
                records.append((position, chain, payload))
            self._records = records
        return self._records

    def journal_lists(self, generation: _Generation) -> dict[str, list[Any]]:
        """The journaled lists as of ``generation``'s journal position.

        Raises:
            CheckpointCorruptError: the journal prefix the generation points
                to is torn, damaged or not the one it was written against.
        """
        name = generation.path.name
        if generation.records == 0:
            if generation.offset or generation.chain != _NO_DIGEST:
                raise CheckpointCorruptError(f"{name}: inconsistent journal position")
            return {}
        records = self._index_journal()
        if generation.records > len(records):
            raise CheckpointCorruptError(
                f"{name} needs {generation.records} journal records, only "
                f"{len(records)} verify ({self._journal_error or 'journal ends'})"
            )
        end, chain, _ = records[generation.records - 1]
        if end != generation.offset or chain != generation.chain:
            raise CheckpointCorruptError(
                f"{name}: {JOURNAL_NAME} prefix does not match the generation"
            )
        lists: dict[str, list[Any]] = {}
        for _, _, payload in records[: generation.records]:
            for key, tail in pickle.loads(payload).items():
                lists.setdefault(key, []).extend(tail)
        return lists

    def load(self, generation: _Generation) -> tuple[Any, CheckpointSeries]:
        """The generation's snapshot and the series positioned at it."""
        lists = self.journal_lists(generation)
        base: dict[str, Any] = {}
        base_digest = _NO_DIGEST
        if generation.base_digest != _NO_DIGEST:
            base, base_digest = self.base()
        if base_digest != generation.base_digest:
            raise CheckpointCorruptError(
                f"{generation.path.name} was written against another {BASE_NAME}"
            )
        snapshot = _RefUnpickler(io.BytesIO(generation.payload), base, lists).load()
        series = CheckpointSeries(
            started=True,
            base=base,
            base_digest=base_digest,
            records=generation.records,
            offset=generation.offset,
            chain=generation.chain,
            lengths={key: len(items) for key, items in lists.items()},
        )
        return snapshot, series


def load_checkpoint(path: Path | str) -> Any:
    """Load and verify one generation file (with its base and journal).

    Raises:
        CheckpointNotFoundError: the file does not exist.
        CheckpointError: the file is not a checkpoint (bad magic).
        CheckpointVersionError: the format version is not ours.
        CheckpointCorruptError: truncated payload, checksum mismatch, or a
            base or journal prefix that does not verify.
    """
    path = Path(path)
    generation = _read_generation(path)
    snapshot, _ = _Directory(path.parent).load(generation)
    return snapshot


def load_latest(directory: Path | str) -> LatestCheckpoint:
    """Load the newest verifiable generation, falling back past corruption.

    A generation is usable when its own checksum verifies and the journal
    prefix it points to verifies.  The journal is then truncated to that
    generation's offset, so the directory is ready for the series to
    continue.

    Raises:
        CheckpointNotFoundError: no generation could be loaded.
        CheckpointVersionError: the newest readable generation has an
            incompatible version (an operator problem, not bit rot — no
            fallback).
        CheckpointCorruptError: the base file is damaged (every generation
            needs it; the message names it).
    """
    directory = Path(directory)
    view = _Directory(directory)
    skipped: list[Path] = []
    reasons: list[str] = []
    for path in reversed(list_checkpoints(directory)):
        try:
            generation = _read_generation(path)
        except CheckpointVersionError:
            raise
        except CheckpointError as error:
            skipped.append(path)
            reasons.append(str(error))
            continue
        if generation.base_digest != _NO_DIGEST:
            view.base()  # outside the fallback: a damaged base is fatal
        try:
            snapshot, series = view.load(generation)
        except CheckpointError as error:
            skipped.append(path)
            reasons.append(str(error))
            continue
        journal = directory / JOURNAL_NAME
        if journal.exists():
            with open(journal, "ab") as handle:
                handle.truncate(generation.offset)
                os.fsync(handle.fileno())
        return LatestCheckpoint(snapshot, path, skipped, series)
    raise CheckpointNotFoundError(
        f"no loadable checkpoint generation under {directory}"
        + (f" (skipped: {'; '.join(reasons)})" if reasons else "")
    )
