"""Write-ahead commit log: framing, scanning, recovery, compaction.

Covers the WAL in three layers: the framed file format itself (torn
tails truncate, mid-file corruption refuses), the ``WriteAheadLog``
object lifecycle (create/attach/append/rotate/close, fsync policies),
and the ``CoreService`` durable-session integration — open with a log,
crash (simulated by dropping the service without ``close``), recover,
verify the recovered cores against a from-scratch decomposition.
"""

import json

import pytest

from repro.core.decomposition import core_numbers
from repro.engine.batch import Batch
from repro.errors import EngineOptionError, LogCorruptionError, ServiceError
from repro.service import CoreService, WriteAheadLog, log_stat
from repro.service.wal import (
    WAL_VERSION,
    _frame,
    batch_from_ops,
    batch_to_ops,
    scan,
)

TRIANGLE = [(1, 2), (2, 3), (3, 1)]


def make_log(path, **kwargs):
    kwargs.setdefault("engine", "order")
    kwargs.setdefault("seed", 0)
    return WriteAheadLog.create(path, **kwargs)


class TestFraming:
    def test_roundtrip_batch_ops(self):
        batch = Batch().insert(1, 2).remove(3, 4).insert("a", "b")
        ops = batch_to_ops(batch)
        assert ops == [["insert", 1, 2], ["remove", 3, 4],
                       ["insert", "a", "b"]]
        rebuilt = batch_from_ops(json.loads(json.dumps(ops)))
        assert batch_to_ops(rebuilt) == ops

    def test_scan_empty_log_has_header_only(self, tmp_path):
        log = tmp_path / "s.wal"
        make_log(log).close()
        info = scan(log)
        assert info.header["kind"] == "header"
        assert info.header["version"] == WAL_VERSION
        assert info.records == []
        assert info.torn_bytes == 0
        assert info.last_receipt == 0

    def test_scan_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            scan(tmp_path / "nope.wal")

    def test_scan_no_header_raises(self, tmp_path):
        log = tmp_path / "s.wal"
        log.write_bytes(_frame(b'{"kind": "commit", "receipt": 1}'))
        with pytest.raises(LogCorruptionError, match="no valid header"):
            scan(log)

    def test_scan_version_skew_raises(self, tmp_path):
        log = tmp_path / "s.wal"
        payload = json.dumps({"kind": "header", "version": 99}).encode()
        log.write_bytes(_frame(payload))
        with pytest.raises(
            LogCorruptionError,
            match=r"'version' is 99; this build reads version 1",
        ):
            scan(log)

    def test_torn_tail_detected_not_raised(self, tmp_path):
        log = tmp_path / "s.wal"
        wal = make_log(log, fsync="never")
        wal.append(1, Batch().insert(1, 2))
        wal.close()
        clean = log.read_bytes()
        log.write_bytes(clean + b"17 deadbeef {garbage")
        info = scan(log)
        assert len(info.records) == 1
        assert info.torn_bytes == len(b"17 deadbeef {garbage")

    def test_mid_file_corruption_raises(self, tmp_path):
        log = tmp_path / "s.wal"
        wal = make_log(log, fsync="never")
        wal.append(1, Batch().insert(1, 2))
        wal.append(2, Batch().insert(2, 3))
        wal.close()
        lines = log.read_bytes().splitlines(keepends=True)
        # Flip a byte inside the FIRST commit record's payload.
        corrupted = bytearray(lines[1])
        corrupted[-5] ^= 0xFF
        log.write_bytes(lines[0] + bytes(corrupted) + lines[2])
        with pytest.raises(
            LogCorruptionError, match="refusing to drop committed history"
        ):
            scan(log)

    def test_non_increasing_receipts_raise(self, tmp_path):
        log = tmp_path / "s.wal"
        wal = make_log(log, fsync="never")
        wal.append(5, Batch().insert(1, 2))
        wal.close()
        record = json.dumps(
            {"kind": "commit", "receipt": 5, "ops": [["insert", 2, 3]]}
        ).encode()
        with open(log, "ab") as fh:
            fh.write(_frame(record))
        with pytest.raises(
            LogCorruptionError, match="receipt ids not increasing"
        ):
            scan(log)


class TestWriteAheadLog:
    def test_create_refuses_existing_file(self, tmp_path):
        log = tmp_path / "s.wal"
        make_log(log).close()
        with pytest.raises(
            ServiceError, match="already exists; recover from it"
        ):
            make_log(log)

    def test_append_requires_increasing_receipts(self, tmp_path):
        wal = make_log(tmp_path / "s.wal", fsync="never")
        wal.append(1, Batch().insert(1, 2))
        with pytest.raises(ServiceError, match="must increase"):
            wal.append(1, Batch().insert(2, 3))
        wal.close()

    def test_unknown_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(ServiceError, match="unknown fsync policy"):
            make_log(tmp_path / "s.wal", fsync="sometimes")

    @pytest.mark.parametrize("fsync", ["always", "interval", "never"])
    def test_fsync_policies_all_produce_readable_logs(self, tmp_path, fsync):
        log = tmp_path / f"{fsync}.wal"
        wal = make_log(log, fsync=fsync, fsync_every=2)
        for receipt in range(1, 6):
            wal.append(receipt, Batch().insert(receipt, receipt + 1))
        wal.close()
        info = scan(log)
        assert [r for r, _ in info.records] == [1, 2, 3, 4, 5]

    def test_attach_truncates_torn_tail_physically(self, tmp_path):
        log = tmp_path / "s.wal"
        wal = make_log(log, fsync="never")
        wal.append(1, Batch().insert(1, 2))
        wal.close()
        clean_size = log.stat().st_size
        with open(log, "ab") as fh:
            fh.write(b"99 0bad0bad torn")
        wal = WriteAheadLog.attach(log, fsync="never")
        assert log.stat().st_size == clean_size
        assert wal.last_receipt == 1
        wal.append(2, Batch().insert(2, 3))
        wal.close()
        assert [r for r, _ in scan(log).records] == [1, 2]

    def test_rotate_truncates_to_header(self, tmp_path):
        log = tmp_path / "s.wal"
        wal = make_log(log, fsync="never")
        wal.append(1, Batch().insert(1, 2))
        wal.append(2, Batch().insert(2, 3))
        wal.rotate(2)
        info = scan(log)
        assert info.records == []
        assert info.header["base_receipt"] == 2
        assert info.last_receipt == 2
        # Appending continues past the rotated base.
        wal.append(3, Batch().insert(3, 4))
        wal.close()
        assert [r for r, _ in scan(log).records] == [3]

    def test_close_idempotent_append_after_close_raises(self, tmp_path):
        wal = make_log(tmp_path / "s.wal")
        wal.close()
        wal.close()
        assert wal.closed
        with pytest.raises(ServiceError, match="is closed"):
            wal.append(1, Batch().insert(1, 2))

    def test_log_stat_fields(self, tmp_path):
        log = tmp_path / "s.wal"
        wal = make_log(log, fsync="never", seed=7)
        wal.append(1, Batch().insert(1, 2))
        wal.close()
        stat = log_stat(log)
        assert stat["engine"] == "order"
        assert stat["seed"] == 7
        assert stat["version"] == WAL_VERSION
        assert stat["records"] == 1
        assert stat["last_receipt"] == 1
        assert stat["torn_bytes"] == 0
        assert stat["bytes"] == log.stat().st_size


class TestDurableSession:
    def commit(self, svc, *edges, remove=False):
        with svc.transaction() as tx:
            for u, v in edges:
                (tx.remove if remove else tx.insert)(u, v)
        return svc.last_receipt

    def test_open_with_log_then_recover(self, tmp_path):
        log = tmp_path / "s.wal"
        svc = CoreService.open(TRIANGLE, log=log, fsync="never")
        self.commit(svc, (3, 4), (4, 1))
        self.commit(svc, (1, 2), remove=True)
        expected = svc.cores()
        # No close: the process "crashed".
        rec = CoreService.recover(log)
        assert rec.cores() == expected
        assert rec.cores() == core_numbers(rec.engine.graph)
        rec.engine.check()
        assert rec.recovery.replayed == 2
        assert rec.recovery.from_snapshot  # non-empty open snapshots
        rec.close()

    def test_open_empty_graph_recovers_without_snapshot(self, tmp_path):
        log = tmp_path / "s.wal"
        svc = CoreService.open(log=log, fsync="never")
        self.commit(svc, (1, 2), (2, 3), (3, 1))
        expected = svc.cores()
        rec = CoreService.recover(log)
        assert rec.cores() == expected
        assert not rec.recovery.from_snapshot
        rec.close()

    def test_open_refuses_existing_log(self, tmp_path):
        log = tmp_path / "s.wal"
        CoreService.open(TRIANGLE, log=log).close()
        with pytest.raises(ServiceError, match="already exists"):
            CoreService.open(TRIANGLE, log=log)

    def test_open_nonsnapshot_engine_nonempty_graph_cleans_up(self, tmp_path):
        log = tmp_path / "s.wal"
        with pytest.raises(ServiceError, match="no snapshot support"):
            CoreService.open(TRIANGLE, engine="naive", log=log)
        assert not log.exists()

    def test_nonsnapshot_engine_empty_graph_is_durable(self, tmp_path):
        log = tmp_path / "s.wal"
        svc = CoreService.open(engine="naive", log=log, fsync="never")
        self.commit(svc, (1, 2), (2, 3), (3, 1))
        expected = svc.cores()
        rec = CoreService.recover(log)
        assert rec.engine.name == "naive"
        assert rec.cores() == expected
        rec.close()

    def test_recovery_is_idempotent(self, tmp_path):
        log = tmp_path / "s.wal"
        svc = CoreService.open(TRIANGLE, log=log, fsync="never")
        self.commit(svc, (3, 4), (4, 1))
        once = CoreService.recover(log)
        cores_once = once.cores()
        once.close()
        twice = CoreService.recover(log)
        assert twice.cores() == cores_once
        twice.close()

    def test_recovered_receipts_continue(self, tmp_path):
        log = tmp_path / "s.wal"
        svc = CoreService.open(TRIANGLE, log=log, fsync="never")
        first = self.commit(svc, (3, 4))
        rec = CoreService.recover(log)
        second = self.commit(rec, (4, 1))
        assert second.receipt_id == first.receipt_id + 1
        rec.close()
        assert [r for r, _ in scan(log).records] == [
            first.receipt_id, second.receipt_id,
        ]

    def test_compact_truncates_and_recovers(self, tmp_path):
        log = tmp_path / "s.wal"
        svc = CoreService.open(TRIANGLE, log=log, fsync="never")
        self.commit(svc, (3, 4), (4, 1))
        self.commit(svc, (4, 2))
        snap = svc.compact()
        assert snap.exists()
        assert log_stat(log)["records"] == 0
        expected = svc.cores()
        self.commit(svc, (5, 1))  # post-compaction commit still logs
        expected_after = svc.cores()
        svc.close()
        rec = CoreService.recover(log)
        assert rec.recovery.replayed == 1
        assert rec.recovery.from_snapshot
        assert rec.cores() == expected_after
        assert expected != expected_after  # the tail commit mattered
        rec.close()

    def test_recover_skips_records_snapshot_covers(self, tmp_path):
        # Simulate a crash BETWEEN snapshot rename and log rotation by
        # writing the snapshot through save()-style compaction, then
        # restoring the pre-rotation log bytes.
        log = tmp_path / "s.wal"
        svc = CoreService.open(TRIANGLE, log=log, fsync="never")
        self.commit(svc, (3, 4))
        self.commit(svc, (4, 1))
        svc._wal.sync()
        pre_rotation = log.read_bytes()
        svc.compact()
        svc.close()
        log.write_bytes(pre_rotation)  # rotation "never happened"
        rec = CoreService.recover(log)
        assert rec.recovery.skipped == 2
        assert rec.recovery.replayed == 0
        assert rec.cores() == core_numbers(rec.engine.graph)
        rec.close()

    def test_compact_without_log_raises(self):
        svc = CoreService.open(TRIANGLE)
        with pytest.raises(ServiceError, match="no commit log to compact"):
            svc.compact()

    def test_missing_snapshot_with_base_receipt_raises(self, tmp_path):
        log = tmp_path / "s.wal"
        svc = CoreService.open(TRIANGLE, log=log)
        svc.close()
        (tmp_path / "s.wal.snapshot").unlink()
        with pytest.raises(LogCorruptionError, match="is missing"):
            CoreService.recover(log)

    def test_unreplayable_record_raises(self, tmp_path):
        log = tmp_path / "s.wal"
        svc = CoreService.open(log=log, fsync="never")
        self.commit(svc, (1, 2))
        svc.close()
        record = json.dumps(
            {"kind": "commit", "receipt": 2, "ops": [["remove", 8, 9]]}
        ).encode()
        with open(log, "ab") as fh:
            fh.write(_frame(record))
        with pytest.raises(
            LogCorruptionError, match="does not apply to the recovered state"
        ):
            CoreService.recover(log)

    def test_close_idempotent_and_commit_after_close(self, tmp_path):
        log = tmp_path / "s.wal"
        svc = CoreService.open(TRIANGLE, log=log)
        svc.close()
        svc.close()
        assert svc.closed
        assert svc.cores()  # reads still answer
        with pytest.raises(ServiceError, match="service is closed"):
            with svc.transaction() as tx:
                tx.insert(9, 10)
        with pytest.raises(ServiceError, match="service is closed"):
            svc.compact()

    def test_context_manager_closes(self, tmp_path):
        log = tmp_path / "s.wal"
        with CoreService.open(TRIANGLE, log=log) as svc:
            self.commit(svc, (3, 4))
        assert svc.closed

    def test_string_vertices_roundtrip(self, tmp_path):
        log = tmp_path / "s.wal"
        svc = CoreService.open(log=log, fsync="never")
        self.commit(svc, ("a", "b"), ("b", "c"), ("c", "a"))
        expected = svc.cores()
        rec = CoreService.recover(log)
        assert rec.cores() == expected
        rec.close()

    def test_failed_commit_does_not_log(self, tmp_path):
        log = tmp_path / "s.wal"
        svc = CoreService.open(TRIANGLE, log=log, fsync="never")
        with pytest.raises(Exception):
            with svc.transaction() as tx:
                tx.remove(1, 9)  # edge does not exist: validation fails
        assert log_stat(log)["records"] == 0
        self.commit(svc, (3, 4))
        assert log_stat(log)["records"] == 1
        svc.close()


class TestTokensAndTailing:
    """PR-8 additions: idempotency tokens in records, incremental tail
    reads, and the cheap header probe the replica's rotation check uses."""

    def test_append_records_token_and_scan_collects_it(self, tmp_path):
        log = tmp_path / "s.wal"
        wal = make_log(log)
        wal.append(1, Batch().insert(1, 2), token="client-a-1")
        wal.append(2, Batch().insert(2, 3))  # tokenless commits stay legal
        wal.append(3, Batch().insert(3, 1), token="client-b-9")
        wal.close()
        info = scan(log)
        assert info.tokens == {1: "client-a-1", 3: "client-b-9"}
        assert [rid for rid, _ in info.records] == [1, 2, 3]

    def test_tokens_survive_recovery_roundtrip(self, tmp_path):
        log = tmp_path / "s.wal"
        svc = CoreService.open(log=log)
        svc.apply(Batch().insert(1, 2), token="tok-1")
        svc.apply(Batch().insert(2, 3), token="tok-2")
        del svc  # crash: no close
        rec = CoreService.recover(log)
        assert scan(log).tokens == {1: "tok-1", 2: "tok-2"}
        # New commits after recovery keep appending tokens.
        rec.apply(Batch().insert(3, 1), token="tok-3")
        assert scan(log).tokens[3] == "tok-3"
        rec.close()

    def test_read_header_matches_scan(self, tmp_path):
        from repro.service.wal import read_header

        log = tmp_path / "s.wal"
        make_log(log, engine="order-treap", seed=7).close()
        assert read_header(log) == scan(log).header

    def test_read_header_rejects_garbage(self, tmp_path):
        from repro.service.wal import read_header

        log = tmp_path / "s.wal"
        log.write_bytes(b"not a frame at all\n")
        with pytest.raises(LogCorruptionError):
            read_header(log)

    def test_tail_reads_only_new_frames(self, tmp_path):
        from repro.service.wal import tail

        log = tmp_path / "s.wal"
        wal = make_log(log)
        wal.append(1, Batch().insert(1, 2))
        chunk = tail(log, 0)
        assert [rid for rid, _ in chunk.records] == [1]
        assert not chunk.rotated
        offset = chunk.offset
        wal.append(2, Batch().insert(2, 3))
        wal.append(3, Batch().insert(3, 1))
        chunk2 = tail(log, offset)
        assert [rid for rid, _ in chunk2.records] == [2, 3]
        assert chunk2.tokens == {}
        # Nothing new: empty chunk, same offset.
        chunk3 = tail(log, chunk2.offset)
        assert chunk3.records == []
        assert chunk3.offset == chunk2.offset
        wal.close()

    def test_tail_tolerates_a_writer_mid_append(self, tmp_path):
        """A partial trailing frame is left for the next poll — the
        replica polls while the primary is mid-write."""
        from repro.service.wal import tail

        log = tmp_path / "s.wal"
        wal = make_log(log)
        wal.append(1, Batch().insert(1, 2))
        base = tail(log, 0).offset
        full = _frame(json.dumps(
            {"kind": "commit", "receipt": 2, "ops": [["insert", 2, 3]]}
        ).encode())
        with open(log, "ab") as fh:
            fh.write(full[: len(full) // 2])
        chunk = tail(log, base)
        assert chunk.records == []  # partial frame: wait, don't guess
        assert chunk.offset == base
        with open(log, "ab") as fh:
            fh.write(full[len(full) // 2:])
        chunk2 = tail(log, base)
        assert [rid for rid, _ in chunk2.records] == [2]
        wal.close()

    def test_tail_detects_rotation_by_shrink(self, tmp_path):
        from repro.service.wal import tail

        log = tmp_path / "s.wal"
        wal = make_log(log)
        for i in range(5):
            wal.append(i + 1, Batch().insert(i, i + 100))
        offset = tail(log, 0).offset
        wal.close()
        # Simulate a compaction rotating the log under the tailer: the
        # file is replaced by a fresh, shorter one.
        log.unlink()
        make_log(log, base_receipt=5).close()
        assert tail(log, offset).rotated


def _legacy_log(path, engine, opts, commits):
    """A log exactly as an older version wrote it: a header pinning
    ``engine`` / ``opts``, then one commit record per op list."""
    import zlib

    records = [{
        "kind": "header", "version": 1, "engine": engine, "seed": 0,
        "opts": opts, "base_receipt": 0,
    }]
    records += [
        {"kind": "commit", "receipt": i, "ops": ops}
        for i, ops in enumerate(commits, start=1)
    ]
    with open(path, "wb") as fh:
        for record in records:
            payload = json.dumps(record).encode()
            fh.write(b"%d %08x " % (len(payload), zlib.crc32(payload)))
            fh.write(payload + b"\n")


#: Two triangles bridged, then a bridge and a triangle edge removed.
LEGACY_COMMITS = [
    [["insert", 1, 2], ["insert", 2, 3], ["insert", 1, 3],
     ["insert", 10, 11], ["insert", 11, 12], ["insert", 10, 12]],
    [["insert", 3, 10], ["insert", 2, 11], ["remove", 1, 2]],
    [["remove", 3, 10], ["insert", 1, 4]],
]


class TestRetiredEngineHeaders:
    """Logs whose header pins the removed sharded engines or the removed
    ``partition`` / ``parallel`` knobs recover on the unsharded family —
    exactly, since cores depend only on the replayed ops."""

    @pytest.mark.parametrize("engine,opts,recovered_as", [
        ("order-sharded", {}, "order"),
        ("order-sharded", {"parallel": 2, "reshard": "batch"}, "order"),
        ("order-sharded", {"engine": "order-simplified", "partition": True},
         "order-simplified"),
        ("order-sharded-simplified", {"parallel": 2, "reshard": "batch"},
         "order-simplified"),
        ("order-simplified", {"partition": True, "parallel": 2},
         "order-simplified"),
        ("order-treap", {"partition": True}, "order"),
    ])
    def test_legacy_header_recovers_exactly(
        self, tmp_path, engine, opts, recovered_as
    ):
        from repro.service import LogReplica

        log = tmp_path / "legacy.wal"
        _legacy_log(log, engine, opts, LEGACY_COMMITS)
        svc = CoreService.recover(log)
        assert svc.engine.name == recovered_as
        assert svc.recovery.replayed == len(LEGACY_COMMITS)
        assert svc.cores() == core_numbers(svc.engine.graph)
        assert not svc.engine.graph.has_edge(1, 2)
        # The recovered session keeps committing onto the legacy log,
        # and a second recovery (and a replica) read it back the same.
        svc.insert(1, 2)
        expected = svc.cores()
        svc.close()
        again = CoreService.recover(log)
        assert again.cores() == expected
        assert again.cores() == core_numbers(again.engine.graph)
        again.close()
        assert LogReplica(log).cores() == expected

    @pytest.mark.parametrize("engine,opts,error", [
        ("order-bogus", {}, ValueError),
        ("order-sharded", {"engine": "order-bogus"}, ValueError),
        ("order", {"turbo": True}, EngineOptionError),
        ("order-sharded", {"turbo": True}, EngineOptionError),
        ("naive", {"partition": True}, EngineOptionError),
    ])
    def test_unknown_names_and_options_still_fail(
        self, tmp_path, engine, opts, error
    ):
        log = tmp_path / "legacy.wal"
        _legacy_log(log, engine, opts, LEGACY_COMMITS)
        with pytest.raises(error):
            CoreService.recover(log)
