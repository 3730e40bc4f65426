"""Fault injection: the harness itself, and the crash-recovery matrix.

The matrix is the tentpole's acceptance test: for EVERY registered crash
point on the durable commit path, arm the point, commit until the
injected fault fires (simulating a process crash at exactly that
instruction), then recover from the log and require (a) the engine's
full invariant audit passes, (b) the recovered cores equal a
from-scratch decomposition of the recovered graph, and (c) the batch
that was in flight is present or absent according to the write-ahead
contract — present iff the crash hit after the log record was written.
"""

import pytest

from repro.core.decomposition import core_numbers
from repro.engine.batch import Batch
from repro.engine.registry import make_engine
from repro.errors import ReproError
from repro.graphs.undirected import DynamicGraph
from repro.service import CoreService
from repro.testing import FAULT_POINTS, FaultPlan, InjectedFault
from repro.testing.faults import inject, is_armed

TRIANGLE = [(1, 2), (2, 3), (3, 1)]

#: Write-ahead contract: after a crash at <point> during a commit, is
#: the in-flight batch durable (replayed by recovery)?  Points strictly
#: before the log append lose it; points at or after keep it.
DURABLE_AFTER = {
    "service.before_commit": False,
    "wal.before_append": False,
    "wal.mid_append": False,  # torn record: truncated, hence lost
    "wal.after_append": True,
    "wal.before_fsync": True,  # in-process crash: flushed data survives
    "wal.after_fsync": True,
    "engine.mid_batch": True,  # logged first, applied second
}


class TestFaultPlan:
    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            FaultPlan().crash("wal.no_such_point")

    def test_inert_by_default(self):
        inject("wal.before_append")  # no active plan: no-op
        assert not is_armed("wal.before_append")

    def test_count_armed_fires_once_then_disarms(self):
        with FaultPlan() as plan:
            plan.crash("wal.before_append")
            with pytest.raises(InjectedFault) as err:
                inject("wal.before_append")
            assert err.value.point == "wal.before_append"
            assert err.value.hit == 1
            inject("wal.before_append")  # disarmed after firing
        assert plan.fired == ["wal.before_append"]

    def test_hits_counts_down_to_the_nth_call(self):
        with FaultPlan() as plan:
            plan.crash("engine.mid_batch", hits=3)
            inject("engine.mid_batch")
            inject("engine.mid_batch")
            with pytest.raises(InjectedFault) as err:
                inject("engine.mid_batch")
            assert err.value.hit == 3
        assert plan.hits("engine.mid_batch") == 3

    def test_probability_uses_seeded_rng(self):
        def fire_pattern(seed):
            pattern = []
            with FaultPlan(seed=seed) as plan:
                plan.crash("engine.mid_batch", probability=0.5)
                for _ in range(20):
                    try:
                        inject("engine.mid_batch")
                        pattern.append(False)
                    except InjectedFault:
                        pattern.append(True)
            return pattern

        assert fire_pattern(7) == fire_pattern(7)  # deterministic
        assert any(fire_pattern(7))  # and actually fires

    def test_plans_nest_and_restore(self):
        outer = FaultPlan().crash("wal.before_append")
        with outer:
            with FaultPlan() as inner:
                inner.crash("wal.after_append")
                assert is_armed("wal.after_append")
                assert not is_armed("wal.before_append")
            assert is_armed("wal.before_append")
        assert not is_armed("wal.before_append")

    def test_registry_documents_every_point(self):
        for point, description in FAULT_POINTS.items():
            assert "." in point
            assert description


class CrashMatrix:
    """Shared driver: commit under an armed plan, crash, recover."""

    def crash_commit(self, svc, point, edge):
        with FaultPlan(seed=1).crash(point) as plan:
            with pytest.raises(InjectedFault):
                with svc.transaction() as tx:
                    tx.insert(*edge)
            assert plan.fired == [point]
        # No svc.close(): the "process" died at the crash point.


@pytest.mark.parametrize("point", sorted(DURABLE_AFTER))
class TestCrashRecoveryMatrix(CrashMatrix):
    def test_recovery_after_crash(self, tmp_path, point):
        log = tmp_path / "s.wal"
        svc = CoreService.open(TRIANGLE, log=log, fsync="always")
        with svc.transaction() as tx:
            tx.insert(3, 4)  # one clean commit before the crash
        self.crash_commit(svc, point, (4, 1))

        rec = CoreService.recover(log)
        rec.engine.check()
        assert rec.cores() == core_numbers(rec.engine.graph)
        assert rec.engine.graph.has_edge(3, 4)  # clean commit survived
        durable = DURABLE_AFTER[point]
        assert rec.engine.graph.has_edge(4, 1) == durable, (
            f"crash at {point}: in-flight batch should be "
            f"{'durable' if durable else 'lost'}"
        )
        # The recovered session is live: it takes new commits.
        with rec.transaction() as tx:
            tx.insert(5, 1)
        rec.engine.check()
        rec.close()

    def test_recovery_matches_scratch_decomposition(self, tmp_path, point):
        log = tmp_path / "s.wal"
        svc = CoreService.open(
            [(i, i + 1) for i in range(8)] + [(0, 4), (2, 6)],
            log=log,
            engine="order-simplified",
            fsync="always",
        )
        self.crash_commit(svc, point, (1, 5))
        rec = CoreService.recover(log)
        rec.engine.check()
        assert rec.cores() == core_numbers(rec.engine.graph)
        rec.close()


class TestCrashDuringCompaction(CrashMatrix):
    def test_snapshot_mid_write_leaves_old_snapshot_usable(self, tmp_path):
        log = tmp_path / "s.wal"
        svc = CoreService.open(TRIANGLE, log=log, fsync="never")
        with svc.transaction() as tx:
            tx.insert(3, 4)
        expected = svc.cores()
        with FaultPlan(seed=1).crash("snapshot.mid_write"):
            with pytest.raises(InjectedFault):
                svc.compact()
        # The crash hit the temp file; the real snapshot is the old one
        # and the un-rotated log still holds the commit.
        rec = CoreService.recover(log)
        assert rec.cores() == expected
        assert rec.recovery.replayed == 1
        rec.engine.check()
        rec.close()

class TestInjectedFaultPropagation:
    def test_fault_is_a_repro_error(self):
        assert issubclass(InjectedFault, ReproError)

    def test_library_never_swallows_faults(self):
        # A fault inside the engine's batch path must surface to the
        # caller — no except clause in the library may eat it.
        engine = make_engine("order", DynamicGraph(TRIANGLE))
        with FaultPlan(seed=1).crash("engine.mid_batch"):
            with pytest.raises(InjectedFault):
                engine.apply_batch(Batch().insert(3, 4))


class TestRegisterFaultPoint:
    """The extension hook: layers above the WAL register their own
    points (the serving front's ``server.*``/``replica.*`` live there)."""

    def test_registered_point_is_armable(self):
        from repro.testing import register_fault_point

        register_fault_point(
            "testonly.extension_point", "a point registered by this test"
        )
        try:
            with FaultPlan() as plan:
                plan.crash("testonly.extension_point")
                with pytest.raises(InjectedFault):
                    inject("testonly.extension_point")
            assert plan.fired == ["testonly.extension_point"]
        finally:
            FAULT_POINTS.pop("testonly.extension_point", None)

    def test_unknown_point_arming_names_the_catalogue(self):
        with pytest.raises(ValueError, match="registered points:"):
            FaultPlan().crash("testonly.never_registered")

    def test_idempotent_reregistration(self):
        from repro.testing import register_fault_point

        register_fault_point("testonly.idem", "same description")
        try:
            register_fault_point("testonly.idem", "same description")
            with pytest.raises(ValueError, match="already registered"):
                register_fault_point("testonly.idem", "different words")
        finally:
            FAULT_POINTS.pop("testonly.idem", None)

    def test_rejects_malformed_registrations(self):
        from repro.testing import register_fault_point

        with pytest.raises(ValueError, match="namespaced"):
            register_fault_point("nodot", "a description")
        with pytest.raises(ValueError, match="description"):
            register_fault_point("testonly.blank", "")

    def test_serving_front_points_self_register(self):
        import repro.service  # noqa: F401 - registers on import

        for point in (
            "server.drop_conn", "server.slow_write",
            "server.partial_frame", "replica.stale_read",
        ):
            assert point in FAULT_POINTS
            assert "behavioural" in FAULT_POINTS[point]


#: The serving front's points are *behavioural* (caught and converted to
#: network misbehaviour by the server/replica — exercised end-to-end in
#: test_service_server.py), not process-crash points on the durable
#: commit path, so the reachability sweep below excludes them.
BEHAVIOURAL_PREFIXES = ("server.", "replica.")


class TestPointCatalogue:
    def test_every_point_is_reachable(self, tmp_path):
        """Each registered crash point actually fires somewhere on the
        durable commit/compaction path — a point nothing calls is dead
        weight and a hole in the matrix."""
        import repro.service  # noqa: F401 - registers the served points

        crash_points = [
            p for p in FAULT_POINTS
            if not p.startswith(BEHAVIOURAL_PREFIXES)
        ]
        reached = set()
        for point in crash_points:
            log = tmp_path / f"{point}.wal"
            svc = CoreService.open(engine="order", log=log, fsync="always")
            with svc.transaction() as tx:
                for u, v in TRIANGLE:
                    tx.insert(u, v)
            try:
                with FaultPlan(seed=1).crash(point) as plan:
                    try:
                        with svc.transaction() as tx:
                            tx.insert(3, 4)
                        svc.compact()  # reaches snapshot.mid_write
                    except InjectedFault:
                        pass
                    if plan.fired:
                        reached.add(point)
            finally:
                svc.close()
        assert reached == set(crash_points)
