"""Property suite: the CoreEvent stream is exactly the oracle's story.

Random mixed batch streams (including batches that introduce brand-new
vertices) commit through a ``CoreService`` session; after every commit,
the events delivered to a subscriber must match a from-scratch
``core_numbers`` recomputation of the graph before vs after the commit —
per-vertex old/new core agreement, no duplicate events, no missed
events — on both k-order sequence backends and against the naive
engine's own oracle schedule.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from engine_contract import mixed_batch_stream, order_family_engines
from repro.core.decomposition import core_numbers
from repro.engine.batch import Batch
from repro.graphs.undirected import DynamicGraph
from repro.service import CoreService

#: Every representative order-family engine (full index + service
#: contracts), straight from the conformance contract: OM-list and
#: treap backends and the Guo–Sekerinski no-mcd variant — all must tell
#: the subscriber the same story.
BACKENDS = order_family_engines()


def expected_story(before, after):
    """The oracle's events for one commit: vertex -> (old, new)."""
    return {
        v: (before.get(v, 0), after.get(v, 0))
        for v in before.keys() | after.keys()
        if before.get(v, 0) != after.get(v, 0)
    }


def replay_and_check(engine_name, seed, n_batches, batch_size, universe):
    rng = random.Random(seed)
    base, batches = mixed_batch_stream(rng, n_batches, batch_size, universe)
    svc = CoreService.open(
        DynamicGraph(base), engine=engine_name, seed=seed
    )
    captured = []
    svc.subscribe(captured.append)
    all_events = []
    for batch in batches:
        before = core_numbers(svc.graph)
        captured.clear()
        receipt = svc.apply(batch)
        after = core_numbers(svc.graph)
        story = expected_story(before, after)

        vertices = [e.vertex for e in captured]
        assert len(set(vertices)) == len(vertices), (
            f"{engine_name}: duplicate events in one commit"
        )
        told = {e.vertex: (e.old_core, e.new_core) for e in captured}
        assert told == story, (
            f"{engine_name}: event stream diverged from the oracle "
            f"(missing {story.keys() - told.keys()}, "
            f"spurious {told.keys() - story.keys()})"
        )
        assert all(e.receipt_id == receipt.receipt_id for e in captured)
        assert tuple(captured) == receipt.events
        all_events.append(list(captured))
    return all_events


@pytest.mark.parametrize("engine_name", BACKENDS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_event_stream_matches_oracle_fixed_streams(engine_name, seed):
    replay_and_check(
        engine_name, seed, n_batches=6, batch_size=25, universe=60
    )


@pytest.mark.parametrize("engine_name", BACKENDS)
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    n_batches=st.integers(min_value=1, max_value=5),
    batch_size=st.integers(min_value=1, max_value=30),
    universe=st.integers(min_value=8, max_value=48),
)
def test_event_stream_matches_oracle_property(
    engine_name, seed, n_batches, batch_size, universe
):
    """Hypothesis: arbitrary valid mixed streams tell the exact story."""
    replay_and_check(engine_name, seed, n_batches, batch_size, universe)


def test_backends_emit_identical_event_sequences():
    """Every order-family engine must agree event-for-event, not just
    core-for-core: events are vertex-sorted per commit, so the schedule
    (backend, run coalescing) must not leak into the story."""
    streams = [
        replay_and_check(name, 7, n_batches=5, batch_size=20, universe=40)
        for name in BACKENDS
    ]
    for name, stream in zip(BACKENDS[1:], streams[1:]):
        assert stream == streams[0], (
            f"{name} told a different story than {BACKENDS[0]}"
        )


def test_naive_engine_tells_the_same_story():
    """The event layer is engine-agnostic: the oracle engine agrees."""
    order = replay_and_check(
        "order", 11, n_batches=4, batch_size=15, universe=30
    )
    naive = replay_and_check(
        "naive", 11, n_batches=4, batch_size=15, universe=30
    )
    assert order == naive


# ---------------------------------------------------------------------------
# Bounded (pull-mode) subscriptions
# ---------------------------------------------------------------------------


class TestBoundedSubscriptions:
    """max_pending + overflow policies, validated against the oracle."""

    def test_pull_mode_drains_the_full_story(self):
        """A bounded pull subscription with room sees exactly what an
        unbounded callback subscription sees — the event-oracle suite's
        contract carries over."""
        rng = random.Random(3)
        base, batches = mixed_batch_stream(rng, 4, 15, 30)
        svc = CoreService.open(DynamicGraph(base), engine="order", seed=3)
        captured = []
        svc.subscribe(captured.append)
        pulled = svc.subscribe(max_pending=10_000, overflow="drop_oldest")
        for batch in batches:
            captured.clear()
            svc.apply(batch)
            got = pulled.take()
            assert list(got) == captured
            assert pulled.pending == 0
        assert pulled.dropped_events == 0
        svc.close()

    def test_drop_oldest_keeps_newest_and_counts(self):
        svc = CoreService.open(engine="order")
        sub = svc.subscribe(max_pending=3, overflow="drop_oldest")
        for i in range(8):
            svc.insert(100 + i, 200 + i)  # two events per commit
        assert sub.pending == 3
        assert sub.dropped_events == 16 - 3
        newest = sub.take()
        # The survivors are the *latest* events, in delivery order.
        assert [e.receipt_id for e in newest] == [7, 8, 8]
        svc.close()

    def test_error_policy_raises_and_commit_survives(self):
        from repro.errors import SubscriptionOverflowError

        svc = CoreService.open(engine="order")
        sub = svc.subscribe(max_pending=2, overflow="error")
        with pytest.raises(SubscriptionOverflowError):
            for i in range(4):
                svc.insert(i * 2, i * 2 + 1)
        # The overflow surfaced mid-commit, but the commit itself landed
        # (events fan out after apply) and the session keeps working.
        sub.close()
        svc.insert(50, 51)
        assert svc.core(50) == 1
        svc.close()

    def test_block_policy_calls_back_inline(self):
        """block on a callback subscription: the buffer self-drains by
        invoking the callback when full, so nothing is ever lost."""
        seen = []
        svc = CoreService.open(engine="order")
        sub = svc.subscribe(seen.append, max_pending=2, overflow="block")
        for i in range(6):
            svc.insert(300 + i, 400 + i)
        sub.drain()  # the final commits' events are still buffered
        assert len(seen) == 12  # every event delivered, none dropped
        assert sub.dropped_events == 0
        svc.close()

    def test_pull_mode_requires_bound_and_policy(self):
        from repro.errors import ServiceError

        svc = CoreService.open(engine="order")
        with pytest.raises(ServiceError, match="max_pending"):
            svc.subscribe()  # pull-mode needs an explicit bound
        with pytest.raises(ServiceError, match="block"):
            svc.subscribe(max_pending=4)  # and a non-blocking policy
        with pytest.raises(ServiceError, match="overflow"):
            svc.subscribe(max_pending=4, overflow="bogus")
        with pytest.raises(ServiceError, match="max_pending"):
            svc.subscribe(max_pending=0, overflow="drop_oldest")
        svc.close()

    def test_take_limits_and_close_keeps_buffered(self):
        svc = CoreService.open(engine="order")
        sub = svc.subscribe(max_pending=100, overflow="drop_oldest")
        svc.insert(1, 2)
        svc.insert(3, 4)
        first = sub.take(1)
        assert len(first) == 1
        sub.close()
        # Closing stops new deliveries but buffered events stay readable.
        rest = sub.take()
        assert len(rest) == 3
        svc.insert(5, 6)
        assert list(sub.take()) == []
        svc.close()

    def test_min_k_filter_composes_with_bounds(self):
        svc = CoreService.open(engine="order")
        sub = svc.subscribe(min_k=2, max_pending=50, overflow="drop_oldest")
        svc.insert(0, 1)            # cores stay below 2: filtered out
        assert sub.pending == 0
        svc.apply(Batch.inserts([(1, 2), (2, 0)]))  # triangle: crosses 2
        events = sub.take()
        assert {e.vertex for e in events} == {0, 1, 2}
        assert all(e.new_core == 2 for e in events)
        svc.close()
