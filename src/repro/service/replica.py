"""Read replicas fed by incremental write-ahead-log tailing.

A :class:`LogReplica` maintains its *own* engine by replaying a durable
session's commit log (:mod:`repro.service.wal`), so the query layer
(``core`` / ``top`` / ``spectrum`` / ``kcore``) can be answered without
ever touching the primary's write path — the fan-out story the ROADMAP's
"millions of users" axis needs.  The replica polls with
:func:`~repro.service.wal.tail` from its last frame offset (O(new
bytes), not O(log)), applies only records it has not seen, and rebuilds
itself from the compaction snapshot when it notices the log rotated
under it (the header changed or the file shrank).

Staleness contract
------------------
A replica reflects exactly the commits whose records were *written to
the log* at its last :meth:`refresh` — nothing newer, and because the
session appends before applying (write-ahead ordering), possibly one
commit the primary has not finished applying yet.  :attr:`receipt`
reports the last replayed receipt id so callers can bound staleness
against the primary's.  Replicas never write: no locks are shared with
the primary beyond the filesystem.

Fault point: ``replica.stale_read`` — when armed, :meth:`refresh` skips
its poll and the replica knowingly serves stale state (a *behavioural*
fault the replica catches, unlike the durable-path crash points which
are never caught).
"""

from __future__ import annotations

from pathlib import Path
from typing import Hashable

from repro.analysis import kcore_views
from repro.engine.registry import make_engine
from repro.errors import LogCorruptionError, ReproError
from repro.graphs.undirected import DynamicGraph
from repro.service.wal import (
    batch_from_ops,
    header_engine,
    read_header,
    scan,
    tail,
)
from repro.testing.faults import InjectedFault, inject, register_fault_point

Vertex = Hashable

register_fault_point(
    "replica.stale_read",
    "LogReplica.refresh: the poll is skipped and the query layer "
    "knowingly answers from stale state (behavioural: caught by the "
    "replica, counted in stale_serves)",
)

_MISSING = object()


def _snapshot_path(log: Path) -> Path:
    """Where a logged session keeps its compaction snapshot."""
    # Mirrors repro.service.session._snapshot_path; duplicated to keep
    # the replica importable without the session module.
    return log.with_name(log.name + ".snapshot")


class LogReplica:
    """A read-only engine kept current by tailing a session's commit log.

    Parameters
    ----------
    log:
        Path of the primary's write-ahead log.
    audit:
        Audit the snapshot's invariants when (re)building (slow; off by
        default — the primary already audits on recovery).
    """

    def __init__(self, log, *, audit: bool = False) -> None:
        self._log = Path(log)
        self._audit = audit
        self._engine = None
        self._header: dict = {}
        self._offset = 0
        self._applied = 0
        #: Full rebuilds performed (initial build + one per rotation).
        self.rebuilds = 0
        #: Successful incremental polls.
        self.refreshes = 0
        #: Polls skipped by the ``replica.stale_read`` fault point.
        self.stale_serves = 0
        self._build()

    # ------------------------------------------------------------------
    # Log replay
    # ------------------------------------------------------------------

    def _build(self) -> None:
        """(Re)build the replica engine: snapshot seed + full replay."""
        from repro.core.snapshot import from_snapshot

        info = scan(self._log)
        header = info.header
        snap_path = _snapshot_path(self._log)
        base = 0
        if snap_path.exists():
            import json

            raw = json.loads(snap_path.read_text())
            base = raw.get("receipt", 0)
            engine = from_snapshot(raw, audit=self._audit)
        else:
            if header.get("base_receipt", 0) or header.get("snapshot"):
                raise LogCorruptionError(
                    f"commit log {str(self._log)!r} continues from a "
                    f"compaction snapshot (receipt "
                    f"{header.get('base_receipt', 0)}) but "
                    f"{str(snap_path)!r} is missing"
                )
            name, opts = header_engine(header)
            engine = make_engine(
                name, DynamicGraph(), seed=header.get("seed", 0), **opts
            )
        applied = base
        for receipt_id, ops in info.records:
            if receipt_id <= base:
                continue
            self._replay(engine, receipt_id, ops)
            applied = receipt_id
        self._engine = engine
        self._header = header
        self._offset = info.valid_bytes
        self._applied = applied
        self.rebuilds += 1

    def _replay(self, engine, receipt_id: int, ops: list) -> None:
        try:
            engine.apply_batch(batch_from_ops(ops))
        except ReproError as exc:
            raise LogCorruptionError(
                f"commit log {str(self._log)!r} record {receipt_id} does "
                f"not apply to the replica state: {exc}"
            ) from exc

    def refresh(self) -> int:
        """Poll the log and apply new records; returns how many applied.

        Tolerates a writer mid-append (the partial frame is left for the
        next poll) and notices log rotation — a compaction — by the
        header changing or the file shrinking, triggering a rebuild from
        the new snapshot.
        """
        try:
            inject("replica.stale_read")
        except InjectedFault:
            self.stale_serves += 1
            return 0
        if read_header(self._log) != self._header:
            before = self._applied
            self._build()
            return max(0, self._applied - before)
        chunk = tail(self._log, self._offset)
        if chunk.rotated:
            before = self._applied
            self._build()
            return max(0, self._applied - before)
        applied = 0
        for receipt_id, ops in chunk.records:
            if receipt_id <= self._applied:
                continue
            self._replay(self._engine, receipt_id, ops)
            self._applied = receipt_id
            applied += 1
        self._offset = chunk.offset
        self.refreshes += 1
        return applied

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def log_path(self) -> Path:
        return self._log

    @property
    def receipt(self) -> int:
        """Receipt id of the last commit the replica has replayed."""
        return self._applied

    @property
    def engine(self):
        """The replica's engine (treat as strictly read-only)."""
        return self._engine

    @property
    def graph(self) -> DynamicGraph:
        return self._engine.graph

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LogReplica({str(self._log)!r}, receipt={self._applied}, "
            f"refreshes={self.refreshes}, rebuilds={self.rebuilds})"
        )

    # ------------------------------------------------------------------
    # Query layer (mirrors CoreService reads)
    # ------------------------------------------------------------------

    def core(self, vertex: Vertex, default=_MISSING):
        """Core number of one vertex (``KeyError`` unless ``default``)."""
        c = self._engine.core.get(vertex, _MISSING)
        if c is _MISSING:
            if default is _MISSING:
                raise KeyError(vertex)
            return default
        return c

    def cores(self) -> dict:
        return dict(self._engine.core)

    def kcore(self, k: int) -> kcore_views.KCoreView:
        return kcore_views.KCoreView(self._engine.core, k, self.graph)

    def degeneracy(self) -> int:
        return kcore_views.degeneracy(self._engine.core)

    def top(self, n: int) -> list:
        return kcore_views.top_cores(self._engine.core, n)

    def spectrum(self) -> dict:
        return kcore_views.core_spectrum(self._engine.core)
