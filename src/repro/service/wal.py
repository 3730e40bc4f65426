"""Durable write-ahead commit log for :class:`~repro.service.CoreService`.

The order-based index is pure in-memory state: a process crash loses
every commit since the last explicit snapshot, and rebuilding it from
the edge list pays Table III's full re-decomposition cost.  The service
already produces the exact recovery material for free — each commit is
one validated :class:`~repro.engine.batch.Batch` with a monotone receipt
id — so durability is an append-only log of those records, replayed
onto the latest snapshot at recovery.

Log format
----------
An append-only text file of framed JSON records, one per line::

    <length> <crc32-hex> <payload>\\n

``length`` is the payload's byte length and ``crc32`` its checksum, so a
torn tail write (crash mid-append) is *detected* — the frame fails —
and *repaired* by truncating back to the last valid record.  A bad
frame followed by further valid records is not a torn tail; that raises
:class:`~repro.errors.LogCorruptionError` instead of silently dropping
committed history.

The first record is the header (``kind: "header"``): log version, the
engine registry name / seed / options needed to rebuild an empty engine
when no snapshot exists, and ``base_receipt`` — the receipt id already
captured by the snapshot this log continues from.  Every other record
is a commit: its receipt id plus the batch's ops.  Vertices must be
JSON-representable (the same contract as :mod:`repro.core.snapshot`).

Fsync policy
------------
``always`` fsyncs after every append (commit durability), ``interval``
fsyncs every ``fsync_every`` appends and on close (bounded loss window),
``never`` leaves syncing to the OS (flush-only; cheapest, loses the
page-cache tail on power failure but nothing on a process crash).

Crash points (:mod:`repro.testing.faults`): ``wal.before_append``,
``wal.mid_append``, ``wal.after_append``, ``wal.before_fsync``,
``wal.after_fsync``.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.engine.batch import Batch
from repro.errors import LogCorruptionError, ServiceError
from repro.testing.faults import inject, is_armed

PathLike = Union[str, Path]

#: Log format version; bump on framing or payload layout changes.
WAL_VERSION = 1

#: Accepted fsync policies.
FSYNC_POLICIES = ("always", "interval", "never")

#: Default append count between fsyncs under the ``interval`` policy.
DEFAULT_FSYNC_EVERY = 64


def _frame(payload: bytes) -> bytes:
    return b"%d %08x " % (len(payload), zlib.crc32(payload)) + payload + b"\n"


def _parse_frame(line: bytes) -> Optional[dict]:
    """Decode one framed line; ``None`` when the frame is invalid."""
    parts = line.split(b" ", 2)
    if len(parts) != 3:
        return None
    length_b, crc_b, payload = parts
    try:
        length = int(length_b)
        crc = int(crc_b, 16)
    except ValueError:
        return None
    if len(payload) != length or zlib.crc32(payload) != crc:
        return None
    try:
        record = json.loads(payload)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


@dataclass(frozen=True)
class LogInfo:
    """Outcome of scanning a log file (see :func:`scan`).

    Attributes
    ----------
    header:
        The decoded header record.
    records:
        ``(receipt_id, ops)`` pairs for every valid commit record, in
        log order; ``ops`` is a list of ``[kind, u, v]`` triples.
    valid_bytes:
        Length of the valid framed prefix; bytes beyond it are a torn
        tail (:meth:`torn_bytes`).
    total_bytes:
        File size at scan time.
    """

    header: dict
    records: list
    valid_bytes: int
    total_bytes: int
    #: receipt id -> idempotency token, for records that carried one
    #: (see :meth:`WriteAheadLog.append`); empty otherwise.
    tokens: dict = field(default_factory=dict)

    @property
    def torn_bytes(self) -> int:
        """Bytes of torn tail to be truncated on attach."""
        return self.total_bytes - self.valid_bytes

    @property
    def last_receipt(self) -> int:
        """Highest receipt id the log knows about (records or header)."""
        if self.records:
            return self.records[-1][0]
        return self.header.get("base_receipt", 0)


def scan(path: PathLike) -> LogInfo:
    """Read and validate ``path``; detect (but do not repair) torn tails.

    Raises :class:`~repro.errors.LogCorruptionError` for a missing or
    malformed header, a bad frame that is *not* at the tail (valid
    records follow it), or out-of-order receipt ids.
    """
    data = Path(path).read_bytes()
    lines = data.split(b"\n")
    # A well-formed log ends with "\n", so the final split element is
    # empty; anything else is an unterminated (torn) final record.
    offset = 0
    parsed: list[tuple[int, dict]] = []  # (end_offset, record)
    bad_at: Optional[int] = None
    for line in lines:
        if not line and offset >= len(data):
            break
        record = _parse_frame(line) if line else None
        end = offset + len(line) + 1  # +1 for the newline
        if record is None or end > len(data):
            if bad_at is None:
                bad_at = offset
        elif bad_at is not None:
            raise LogCorruptionError(
                f"commit log {str(path)!r} has a corrupt record at byte "
                f"{bad_at} followed by valid records — not a torn tail; "
                "refusing to drop committed history"
            )
        else:
            parsed.append((end, record))
        offset = end
    if not parsed or parsed[0][1].get("kind") != "header":
        raise LogCorruptionError(
            f"commit log {str(path)!r} has no valid header record"
        )
    header = parsed[0][1]
    if header.get("version") != WAL_VERSION:
        raise LogCorruptionError(
            f"commit log {str(path)!r} header field 'version' is "
            f"{header.get('version')!r}; this build reads version "
            f"{WAL_VERSION}"
        )
    records: list[tuple[int, list]] = []
    tokens: dict[int, str] = {}
    last = header.get("base_receipt", 0)
    for end, record in parsed[1:]:
        if record.get("kind") != "commit":
            raise LogCorruptionError(
                f"commit log {str(path)!r} has a record of unknown kind "
                f"{record.get('kind')!r} at byte offset {end}"
            )
        receipt = record["receipt"]
        if receipt <= last:
            raise LogCorruptionError(
                f"commit log {str(path)!r} receipt ids not increasing: "
                f"{receipt} after {last}"
            )
        last = receipt
        records.append((receipt, record["ops"]))
        if record.get("token") is not None:
            tokens[receipt] = record["token"]
    valid_bytes = parsed[-1][0] if parsed else 0
    return LogInfo(
        header=header,
        records=records,
        valid_bytes=valid_bytes,
        total_bytes=len(data),
        tokens=tokens,
    )


def read_header(path: PathLike) -> dict:
    """Decode just the log's header record (first frame, one small read).

    Cheap enough to call per poll: the log replica compares successive
    headers to notice a compaction (:meth:`WriteAheadLog.rotate`
    rewrites the header with a new ``base_receipt``) without re-scanning
    the whole file.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
    if not line.endswith(b"\n"):
        raise LogCorruptionError(
            f"commit log {str(path)!r} has no valid header record"
        )
    record = _parse_frame(line[:-1])
    if record is None or record.get("kind") != "header":
        raise LogCorruptionError(
            f"commit log {str(path)!r} has no valid header record"
        )
    return record


@dataclass(frozen=True)
class TailChunk:
    """One incremental read of a live log (see :func:`tail`).

    ``records`` / ``tokens`` mirror :class:`LogInfo`; ``offset`` is
    where the next :func:`tail` call should resume; ``rotated`` means
    the file shrank below the requested offset (a compaction replaced
    it) and the caller must rebuild from the snapshot instead of
    resuming.
    """

    records: list
    tokens: dict
    offset: int
    rotated: bool


def tail(path: PathLike, offset: int = 0) -> TailChunk:
    """Read the complete frames appended at or after ``offset``.

    The polling read for WAL-fed read replicas: unlike :func:`scan` it
    tolerates a trailing partial frame (the writer may be mid-append —
    the bytes are simply left for the next call) and never repairs the
    file.  ``offset`` must be a frame boundary previously returned by
    :func:`tail` (or ``0``, which also validates and skips the header).
    A file shorter than ``offset`` reports ``rotated=True`` with nothing
    parsed.
    """
    data = Path(path).read_bytes()
    if offset > len(data):
        return TailChunk(records=[], tokens={}, offset=0, rotated=True)
    records: list[tuple[int, list]] = []
    tokens: dict[int, str] = {}
    position = offset
    first = offset == 0
    while position < len(data):
        newline = data.find(b"\n", position)
        if newline < 0:
            break  # partial frame: the writer is mid-append
        record = _parse_frame(data[position:newline])
        if record is None:
            break  # not yet valid; scan()/attach() decide if it's torn
        if first:
            if record.get("kind") != "header":
                raise LogCorruptionError(
                    f"commit log {str(path)!r} has no valid header record"
                )
            first = False
        elif record.get("kind") == "commit":
            records.append((record["receipt"], record["ops"]))
            if record.get("token") is not None:
                tokens[record["receipt"]] = record["token"]
        position = newline + 1
    return TailChunk(
        records=records, tokens=tokens, offset=position, rotated=False
    )


def batch_to_ops(batch: Batch) -> list:
    """A batch's ops as JSON-ready ``[kind, u, v]`` triples."""
    return [[op.kind, op.edge[0], op.edge[1]] for op in batch]


def batch_from_ops(ops: list) -> Batch:
    """Rebuild a :class:`Batch` from :func:`batch_to_ops` output."""
    return Batch((kind, (u, v)) for kind, u, v in ops)


def header_engine(header: dict) -> tuple[str, dict]:
    """The engine registry name and options a log header pins.

    Older logs may pin engines and options that no longer exist: the
    per-component engines ``order-sharded`` (whose ``engine`` option
    named the sub-engine family) and ``order-sharded-simplified``, their
    ``reshard`` option, and the order family's ``partition`` /
    ``parallel`` batch-region knobs.  Those resolve to the plain order
    family with the knobs dropped.  The result is exact: a log holds
    ops, core numbers depend only on the final graph, and those engines
    never wrote snapshots.  Every other name and option passes through
    untouched, so :func:`~repro.engine.registry.make_engine` still
    rejects what it does not know.
    """
    name = header["engine"]
    opts = dict(header.get("opts", {}))
    if name in ("order-sharded", "order-sharded-simplified"):
        name = opts.pop("engine", name.replace("-sharded", ""))
        opts.pop("reshard", None)
    if name.startswith("order"):
        opts.pop("partition", None)
        opts.pop("parallel", None)
    return name, opts


class WriteAheadLog:
    """An open, appendable commit log.

    Create a fresh log with :meth:`create` or reopen an existing one
    with :meth:`attach` (which repairs a torn tail by truncation).  Use
    :meth:`append` per commit, :meth:`rotate` at compaction,
    :meth:`close` when the session ends.
    """

    def __init__(
        self,
        path: Path,
        header: dict,
        last_receipt: int,
        fsync: str,
        fsync_every: int,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ServiceError(
                f"unknown fsync policy {fsync!r}; choose from "
                f"{', '.join(FSYNC_POLICIES)}"
            )
        if fsync_every < 1:
            raise ServiceError(
                f"fsync_every must be >= 1, got {fsync_every}"
            )
        self._path = Path(path)
        self._header = header
        self._fsync = fsync
        self._fsync_every = fsync_every
        self._since_sync = 0
        self._last_receipt = last_receipt
        self._fh = open(self._path, "ab")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: PathLike,
        *,
        engine: str,
        seed,
        opts: Optional[dict] = None,
        base_receipt: int = 0,
        fsync: str = "always",
        fsync_every: int = DEFAULT_FSYNC_EVERY,
    ) -> "WriteAheadLog":
        """Write a fresh log (header only) atomically and open it.

        Refuses to overwrite an existing file — recovery must be an
        explicit choice (:meth:`attach` / ``CoreService.recover``), never
        an accidental truncation.
        """
        path = Path(path)
        if path.exists():
            raise ServiceError(
                f"commit log {str(path)!r} already exists; recover from it "
                "with CoreService.recover, or remove it explicitly"
            )
        header = {
            "kind": "header",
            "version": WAL_VERSION,
            "engine": engine,
            "seed": seed,
            "opts": dict(opts or {}),
            "base_receipt": base_receipt,
        }
        _write_atomic(path, _frame(json.dumps(header).encode()))
        return cls(path, header, base_receipt, fsync, fsync_every)

    @classmethod
    def attach(
        cls,
        path: PathLike,
        *,
        fsync: str = "always",
        fsync_every: int = DEFAULT_FSYNC_EVERY,
    ) -> "WriteAheadLog":
        """Reopen an existing log for appending.

        Scans the file, truncates any torn tail (physically, so later
        appends start on a frame boundary) and resumes at the last valid
        receipt id.
        """
        path = Path(path)
        info = scan(path)
        if info.torn_bytes:
            with open(path, "r+b") as fh:
                fh.truncate(info.valid_bytes)
                fh.flush()
                os.fsync(fh.fileno())
        return cls(path, info.header, info.last_receipt, fsync, fsync_every)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def path(self) -> Path:
        return self._path

    @property
    def header(self) -> dict:
        """The log's header record (treat as read-only)."""
        return self._header

    @property
    def last_receipt(self) -> int:
        """Receipt id of the last appended (or scanned) commit record."""
        return self._last_receipt

    @property
    def fsync_policy(self) -> str:
        return self._fsync

    @property
    def closed(self) -> bool:
        return self._fh is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else f"fsync={self._fsync!r}"
        return (
            f"WriteAheadLog({str(self._path)!r}, {state}, "
            f"last_receipt={self._last_receipt})"
        )

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def append(
        self, receipt_id: int, batch: Batch, *, token: Optional[str] = None
    ) -> None:
        """Durably record one commit *before* the engine applies it.

        ``token`` (optional) is a caller-supplied idempotency key stored
        in the record; :func:`scan` and :func:`tail` report it back via
        their ``tokens`` maps, letting a supervisor rebuild its
        retry-deduplication table from the log after a crash.
        """
        self._require_open()
        if receipt_id <= self._last_receipt:
            raise ServiceError(
                f"commit log receipt ids must increase: got {receipt_id} "
                f"after {self._last_receipt}"
            )
        record = {
            "kind": "commit",
            "receipt": receipt_id,
            "ops": batch_to_ops(batch),
        }
        if token is not None:
            record["token"] = token
        payload = json.dumps(record).encode()
        framed = _frame(payload)
        inject("wal.before_append")
        if is_armed("wal.mid_append"):
            # Instrumented split write: lets the crash matrix land a
            # genuinely torn record on disk.  Single write otherwise.
            self._fh.write(framed[: len(framed) // 2])
            self._fh.flush()
            inject("wal.mid_append")
            self._fh.write(framed[len(framed) // 2:])
        else:
            self._fh.write(framed)
        self._fh.flush()
        self._last_receipt = receipt_id
        inject("wal.after_append")
        if self._fsync == "always":
            self._sync()
        elif self._fsync == "interval":
            self._since_sync += 1
            if self._since_sync >= self._fsync_every:
                self._sync()

    def sync(self) -> None:
        """Flush and fsync regardless of policy."""
        self._require_open()
        self._fh.flush()
        self._sync()

    def _sync(self) -> None:
        inject("wal.before_fsync")
        os.fsync(self._fh.fileno())
        self._since_sync = 0
        inject("wal.after_fsync")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def rotate(self, base_receipt: int) -> None:
        """Truncate the log to a fresh header after a snapshot landed.

        Atomic: the replacement log (header only, ``base_receipt``
        recording what the snapshot covers) is written to a temp file,
        fsynced, then renamed over the old log — a crash anywhere leaves
        either the full old log or the compacted new one, never a
        partial file.
        """
        self._require_open()
        header = dict(self._header)
        header["base_receipt"] = base_receipt
        # Even at base_receipt 0 (compaction before any commit — the
        # non-empty-open path) the log now *depends* on the snapshot:
        # the base graph lives only there.  Recovery must refuse to
        # proceed without it rather than rebuild from empty.
        header["snapshot"] = True
        self._fh.close()
        _write_atomic(self._path, _frame(json.dumps(header).encode()))
        self._header = header
        self._last_receipt = max(self._last_receipt, base_receipt)
        self._since_sync = 0
        self._fh = open(self._path, "ab")

    def close(self) -> None:
        """Flush (and fsync unless policy is ``never``), then close.

        Idempotent; appending after close raises
        :class:`~repro.errors.ServiceError`.
        """
        if self._fh is None:
            return
        self._fh.flush()
        if self._fsync != "never":
            os.fsync(self._fh.fileno())
        self._fh.close()
        self._fh = None

    def _require_open(self) -> None:
        if self._fh is None:
            raise ServiceError(
                f"commit log {str(self._path)!r} is closed"
            )


def _write_atomic(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via temp-file-then-rename."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def log_stat(path: PathLike) -> dict:
    """Machine-readable log statistics (the ``repro log-stat`` payload).

    One scan, no repair: reports the header fields, commit record count,
    receipt id range and how many torn-tail bytes a recovery would
    truncate.
    """
    info = scan(path)
    header = info.header
    return {
        "path": str(path),
        "version": header.get("version"),
        "engine": header.get("engine"),
        "seed": header.get("seed"),
        "base_receipt": header.get("base_receipt", 0),
        "records": len(info.records),
        "last_receipt": info.last_receipt,
        "bytes": info.total_bytes,
        "torn_bytes": info.torn_bytes,
    }
