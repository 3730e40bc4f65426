"""Tests for the order-maintenance sequence backends.

Both :class:`TaggedOrderList` and :class:`OrderStatisticTreap` implement
the :class:`SequenceIndex` protocol, so a shared parametrized suite
drives them through the same scenarios against a plain-list reference —
including the relabel-storm stress case (adversarial same-position
inserts) that exercises the OM list's Bender relabeling.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.structures.heaps import LazyMinHeap
from repro.structures.sequence import (
    SequenceIndex,
    SequenceStats,
    TaggedOrderList,
)
from repro.structures.treap import OrderStatisticTreap

BACKENDS = ("om", "treap")


def make_backend(name, stats=None):
    if name == "om":
        return TaggedOrderList(stats=stats)
    return OrderStatisticTreap(rng=random.Random(0), stats=stats)


# ----------------------------------------------------------------------
# Protocol conformance and shared behavior
# ----------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
class TestSharedBehavior:
    def test_satisfies_protocol(self, backend):
        assert isinstance(make_backend(backend), SequenceIndex)

    def test_positional_insertions(self, backend):
        seq = make_backend(backend)
        seq.insert_back("b")
        seq.insert_front("a")
        seq.insert_after("b", "d")
        seq.insert_before("d", "c")
        assert seq.to_list() == ["a", "b", "c", "d"]
        assert len(seq) == 4 and "c" in seq and "z" not in seq
        seq.check_invariants()

    def test_extend_front_preserves_given_order(self, backend):
        seq = make_backend(backend)
        seq.insert_back("x")
        seq.extend_front(["a", "b", "c"])
        assert seq.to_list() == ["a", "b", "c", "x"]

    def test_move_after(self, backend):
        seq = make_backend(backend)
        seq.extend_back("abcde")
        seq.move_after("d", "b")
        assert seq.to_list() == list("acdbe")
        seq.move_after("a", "e")  # backward move, the eviction shape
        assert seq.to_list() == list("aecdb")
        with pytest.raises(ValueError):
            seq.move_after("a", "a")
        seq.check_invariants()

    def test_move_chain_after_matches_per_item_moves(self, backend):
        """One splice yields the list that chained ``move_after`` calls
        yield, on random chains and anchors."""
        rng = random.Random(5)
        spliced = make_backend(backend)
        stepped = make_backend(backend)
        spliced.extend_back(range(300))
        stepped.extend_back(range(300))
        for _ in range(200):
            items = spliced.to_list()
            anchor = rng.choice(items)
            chain = rng.sample([x for x in items if x != anchor],
                               rng.randint(1, 12))
            spliced.move_chain_after(anchor, chain)
            previous = anchor
            for item in chain:
                stepped.move_after(previous, item)
                previous = item
            assert spliced.to_list() == stepped.to_list()
            spliced.check_invariants()
        spliced.move_chain_after(0, [])
        assert spliced.to_list() == stepped.to_list()

    def test_move_chain_after_tight_gap(self, backend):
        """A chain wider than the anchor's label gap still lands in order
        (the OM list relabels once for the whole chain)."""
        stats = SequenceStats()
        seq = make_backend(backend, stats)
        if backend == "om":
            seq._GAP = 2  # appends two labels apart: no gap holds a chain
        seq.extend_back(range(50))
        chain = [40, 3, 17, 49, 22, 8]
        seq.move_chain_after(10, chain)
        rest = [x for x in range(50) if x not in chain]
        expected = rest[:rest.index(10) + 1] + chain + rest[rest.index(10) + 1:]
        assert seq.to_list() == expected
        assert stats.relabels == (1 if backend == "om" else 0)
        seq.check_invariants()

    def test_move_chain_after_rejects_bad_chains(self, backend):
        seq = make_backend(backend)
        seq.extend_back("abcdef")
        with pytest.raises(KeyError):
            seq.move_chain_after("a", ["c", "z"])
        with pytest.raises(KeyError):
            seq.move_chain_after("z", ["c"])
        with pytest.raises(ValueError):
            seq.move_chain_after("c", ["e", "c", "b"])
        with pytest.raises(ValueError):
            seq.move_chain_after("a", ["e", "b", "e"])
        assert seq.to_list() == list("abcdef")  # nothing moved
        seq.check_invariants()

    def test_precedes_matches_positions(self, backend):
        seq = make_backend(backend)
        seq.extend_back(range(10))
        for i in range(10):
            for j in range(10):
                if i != j:
                    assert seq.precedes(i, j) == (i < j)

    def test_rank_select_first_last_neighbors(self, backend):
        seq = make_backend(backend)
        seq.extend_back("abcde")
        assert [seq.rank(c) for c in "abcde"] == [0, 1, 2, 3, 4]
        assert [seq.select(i) for i in range(5)] == list("abcde")
        assert seq.first() == "a" and seq.last() == "e"
        assert seq.successor("b") == "c" and seq.predecessor("b") == "a"
        assert seq.successor("e") is None and seq.predecessor("a") is None
        with pytest.raises(IndexError):
            seq.select(5)

    def test_duplicate_and_missing_items_raise(self, backend):
        seq = make_backend(backend)
        seq.insert_back(1)
        with pytest.raises(ValueError):
            seq.insert_back(1)
        with pytest.raises(KeyError):
            seq.remove(2)
        with pytest.raises(KeyError):
            seq.rank(2)
        with pytest.raises(KeyError):
            seq.order_key(2)

    def test_empty_sequence_edges(self, backend):
        seq = make_backend(backend)
        assert len(seq) == 0 and not seq and seq.to_list() == []
        with pytest.raises(IndexError):
            seq.first()
        with pytest.raises(IndexError):
            seq.last()
        seq.insert_back(1)
        seq.clear()
        assert seq.to_list() == [] and 1 not in seq
        seq.insert_back(2)  # usable after clear
        assert seq.to_list() == [2]
        seq.check_invariants()

    def test_order_keys_compare_like_positions(self, backend):
        seq = make_backend(backend)
        seq.extend_back(range(20))
        keys = {i: seq.order_key(i) for i in range(20)}
        for a in range(20):
            for b in range(20):
                assert (keys[a] < keys[b]) == (a < b)
                assert (keys[a] > keys[b]) == (a > b)

    def test_order_queries_counted(self, backend):
        stats = SequenceStats()
        seq = make_backend(backend, stats)
        seq.extend_back(range(5))
        before = stats.order_queries
        seq.precedes(0, 4)
        seq.order_key(2)
        assert stats.order_queries == before + 2

    @given(ops=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 1000)), max_size=120
    ))
    @settings(max_examples=60, deadline=None)
    def test_random_interleaving_matches_reference(self, backend, ops):
        """Random insert/remove/precedes interleavings vs a plain list."""
        seq = make_backend(backend)
        ref = []
        next_item = 0
        for kind, pick in ops:
            if kind == 0 or not ref:  # insert at a position
                if ref and pick % 2:
                    anchor = ref[pick % len(ref)]
                    seq.insert_after(anchor, next_item)
                    ref.insert(ref.index(anchor) + 1, next_item)
                else:
                    seq.insert_front(next_item)
                    ref.insert(0, next_item)
                next_item += 1
            elif kind == 1:
                seq.insert_back(next_item)
                ref.append(next_item)
                next_item += 1
            elif kind == 2:
                victim = ref.pop(pick % len(ref))
                seq.remove(victim)
            else:
                a = ref[pick % len(ref)]
                b = ref[(pick * 7 + 3) % len(ref)]
                if a != b:
                    assert seq.precedes(a, b) == (ref.index(a) < ref.index(b))
        assert seq.to_list() == ref
        seq.check_invariants()


# ----------------------------------------------------------------------
# OM-list specifics: labels and relabeling
# ----------------------------------------------------------------------

class TestTaggedOrderList:
    def test_relabel_storm_same_position_inserts(self):
        """Adversarial same-gap hammering: every insert lands right after
        one fixed anchor, exhausting its label gap over and over."""
        stats = SequenceStats()
        seq = TaggedOrderList(stats=stats)
        seq.extend_back(range(200))
        anchor = 100
        storm = [1000 + i for i in range(2000)]
        for item in storm:
            seq.insert_after(anchor, item)
        assert stats.relabels > 0
        expected = list(range(101)) + storm[::-1] + list(range(101, 200))
        assert seq.to_list() == expected
        seq.check_invariants()

    def test_extend_front_preallocates_labels(self):
        """A whole chain prepended at once reserves one chain-sized label
        gap instead of bisecting the same gap per item — no relabel
        storm (ROADMAP's batch-aware label preallocation)."""
        stats = SequenceStats()
        seq = TaggedOrderList(stats=stats)
        seq.extend_back(range(100))
        chain = [1000 + i for i in range(5000)]
        seq.extend_front(chain)
        assert stats.relabels == 0
        assert seq.to_list() == chain + list(range(100))
        seq.check_invariants()
        # The per-item shape of the same bulk load storms: that is the
        # behaviour the preallocation removes.
        storm_stats = SequenceStats()
        storm = TaggedOrderList(stats=storm_stats)
        storm.extend_back(range(100))
        previous = None
        for item in chain:
            if previous is None:
                storm.insert_front(item)
            else:
                storm.insert_after(previous, item)
            previous = item
        assert storm.to_list() == seq.to_list()
        assert storm_stats.relabels > 0

    def test_extend_front_on_empty_and_tight_front(self):
        """Chains land correctly on an empty list and when the front gap
        is smaller than the chain (one spread, then the chain)."""
        seq = TaggedOrderList()
        seq.extend_front("abc")
        assert seq.to_list() == list("abc")
        seq.check_invariants()
        # Exhaust the front label space so the chain cannot fit.
        stats = SequenceStats()
        tight = TaggedOrderList(stats=stats)
        tight.extend_back(range(10))
        for i in range(2000):
            tight.insert_front(10 + i)
        front = list(tight)
        chain = [-1, -2, -3, *range(100000, 103000)]
        before = stats.relabels
        tight.extend_front(chain)
        assert stats.relabels <= before + 1
        assert tight.to_list() == chain + front
        tight.check_invariants()
        with pytest.raises(ValueError):
            tight.extend_front([-1])
        with pytest.raises(ValueError):
            tight.extend_front(["x", "x"])

    def test_single_item_prepends_step_at_fixed_gaps(self):
        """One promotion at a time (single-item ``extend_front``) steps
        the front label down by at most ``_GAP``: 10,000 of them onto a
        100-item block cause no relabeling, where halving the front gap
        each time would spread the block about every 62 prepends."""
        stats = SequenceStats()
        seq = TaggedOrderList(stats=stats)
        seq.extend_front(range(100))
        for item in range(100, 10100):
            seq.extend_front([item])
        assert stats.relabels == 0
        assert seq.to_list() == list(range(10099, 99, -1)) + list(range(100))
        seq.check_invariants()

    def test_front_storm(self):
        """Prepend hammering exhausts the leading gap the same way."""
        stats = SequenceStats()
        seq = TaggedOrderList(stats=stats)
        storm = list(range(3000))
        for item in storm:
            seq.insert_front(item)
        assert seq.to_list() == storm[::-1]
        assert stats.relabels > 0
        seq.check_invariants()

    def test_order_keys_stay_live_across_relabels(self):
        """Keys granted before a relabel storm must still compare
        correctly after it — the OrderInsert heap's invariant."""
        seq = TaggedOrderList()
        seq.extend_back(range(100))
        keys = {i: seq.order_key(i) for i in range(0, 100, 7)}
        relabels_before = seq.stats.relabels
        for i in range(1500):
            seq.insert_after(50, 1000 + i)  # storm between 50 and 51
        assert seq.stats.relabels > relabels_before
        held = sorted(keys)
        for a in held:
            for b in held:
                assert (keys[a] < keys[b]) == (a < b)

    def test_order_key_is_a_label_snapshot(self):
        """An OM token is the item's current label: it orders correctly
        against other tokens while ``stats.relabels`` is unchanged and
        the item has not moved, and a move leaves it behind."""
        seq = TaggedOrderList()
        seq.extend_back(range(50))
        tokens = {i: seq.order_key(i) for i in range(50)}
        assert all(isinstance(t, int) for t in tokens.values())
        assert all(tokens[i] < tokens[i + 1] for i in range(49))
        relabels = seq.stats.relabels
        seq.move_after(5, 30)  # 30 now sits between 5 and 6
        assert seq.stats.relabels == relabels
        # Unmoved items keep their tokens; the moved one gets a new label
        # that orders by its new position, its old token does not.
        assert all(seq.order_key(i) == tokens[i] for i in range(50) if i != 30)
        assert tokens[5] < seq.order_key(30) < tokens[6]
        assert tokens[30] > tokens[10]
        # A relabeling rewrites labels in place: fresh tokens order like
        # the list again.
        for i in range(1500):
            seq.insert_after(5, 1000 + i)  # storm right around 30's gap
        assert seq.stats.relabels > relabels
        fresh = [seq.order_key(item) for item in seq]
        assert fresh == sorted(fresh) and len(set(fresh)) == len(fresh)
        assert seq.to_list().index(30) == seq.to_list().index(5) + 1501
        seq.check_invariants()

    def test_rekey_restores_heap_order_after_forced_relabel(self):
        """A relabeling stales every label a heap holds; ``rekey`` restores
        a correct min-order over the live items and drops stale entries."""
        seq = TaggedOrderList()
        seq.extend_back(range(40))
        heap = LazyMinHeap()
        for item in range(0, 40, 3):
            heap.push(seq.order_key(item), item)
        for item in (3, 9, 27):
            heap.discard(item)  # leaves stale physical entries behind
        heap.push(seq.order_key(9), 9)  # re-push: a duplicate entry
        live = [item for item in range(0, 40, 3) if item not in (3, 27)]
        relabels = seq.stats.relabels
        # Hammer the gap right after item 0 until relabelings rewrite the
        # labels of the heap's live items.
        for i in range(60):
            seq.insert_after(0, 1000 + i)
        assert seq.stats.relabels > relabels
        assert any(heap.key_of(item) != seq.order_key(item) for item in live)
        heap.rekey(seq.order_key)
        assert len(heap._heap) == len(heap) == len(live)
        assert all(heap.key_of(item) == seq.order_key(item) for item in live)
        popped = []
        while heap:
            key, item = heap.pop()
            assert key == seq.order_key(item)
            popped.append(item)
        assert popped == live

    def test_labels_strictly_increasing_under_random_churn(self):
        rng = random.Random(9)
        seq = TaggedOrderList()
        ref = []
        for i in range(4000):
            if ref and rng.random() < 0.3:
                victim = ref.pop(rng.randrange(len(ref)))
                seq.remove(victim)
            elif ref and rng.random() < 0.7:
                anchor = ref[rng.randrange(len(ref))]
                seq.insert_after(anchor, i)
                ref.insert(ref.index(anchor) + 1, i)
            else:
                seq.insert_back(i)
                ref.append(i)
        assert seq.to_list() == ref
        seq.check_invariants()

    def test_om_answers_without_rank_walks(self):
        stats = SequenceStats()
        seq = TaggedOrderList(stats=stats)
        seq.extend_back(range(500))
        for i in range(0, 500, 3):
            seq.precedes(i, (i * 13 + 7) % 500) if i != (i * 13 + 7) % 500 else None
        assert stats.rank_walk_steps == 0
        seq.rank(250)  # the diagnostic walk *is* charged
        assert stats.rank_walk_steps == 250

    def test_treap_rank_walks_counted(self):
        stats = SequenceStats()
        seq = OrderStatisticTreap(range(100), rng=random.Random(3), stats=stats)
        assert stats.rank_walk_steps == 0
        seq.precedes(10, 90)
        assert stats.order_queries == 1
        assert stats.rank_walk_steps > 0

    def test_stats_reset_and_as_dict(self):
        stats = SequenceStats(order_queries=3, relabels=1, rank_walk_steps=7)
        assert stats.as_dict() == {
            "order_queries": 3, "relabels": 1, "rank_walk_steps": 7,
        }
        stats.reset()
        assert stats.as_dict() == {
            "order_queries": 0, "relabels": 0, "rank_walk_steps": 0,
        }
