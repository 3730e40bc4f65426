"""Insertion scans under forced OM relabelings.

At the production label sizes a relabeling inside an insertion scan is
rare, so the scan's re-key path (the jump heap holds plain-int labels,
which a relabeling stales) would go untested.  Shrinking the label space
makes relabelings fire inside the eviction splice
(``SequenceIndex.move_chain_after``) and the ending-phase prepends
(``extend_front``).  Seeded mixed batches over mixed int/str vertices
then run through both order families and the ablation's sequential
scan, audited after every update: the cores must match the from-scratch
oracle, every key a scan pops must be the item's current order key, and
the OM and treap backends must end with the same k-order.  Tied heap
keys would also make ``heapq`` compare an int with a str and raise.
"""

import random

import pytest

from repro.core.ablation import ScanningOrderedCoreMaintainer
from repro.core.decomposition import core_numbers
from repro.engine import Batch, make_engine
from repro.graphs.undirected import DynamicGraph
from repro.structures.heaps import LazyMinHeap
from repro.structures.sequence import TaggedOrderList
from repro.structures.treap import OrderStatisticTreap


def vertex(i):
    """Mixed, mutually unorderable vertex types."""
    return i if i % 2 else f"s{i}"


def mixed_stream(seed, n=30, n_batches=20, batch_size=20, p_insert=0.85):
    """Valid mixed batches over ``n`` vertices, growing from empty."""
    rng = random.Random(seed)
    present: list = []
    batches = []
    for _ in range(n_batches):
        ops = []
        for _ in range(batch_size):
            if present and rng.random() > p_insert:
                edge = present.pop(rng.randrange(len(present)))
                ops.append(("remove", edge))
                continue
            a, b = rng.sample(range(n), 2)
            edge = (vertex(min(a, b)), vertex(max(a, b)))
            if edge not in present:
                present.append(edge)
                ops.append(("insert", edge))
        batches.append(ops)
    return batches


@pytest.fixture
def forced_relabels(monkeypatch):
    """Shrink the OM label space; count relabelings by where they fire,
    heap re-keys (and those that changed a live key) and checked pops.

    Every key a scan pops from its jump heap must equal the item's
    current order key in the block the scan last asked for keys — the
    keying-epoch invariant.  A stale key often still pops in list order
    at these sizes, so the check is direct rather than left to the
    final k-order comparison.
    """
    monkeypatch.setattr(TaggedOrderList, "_GAP", 1)
    monkeypatch.setattr(TaggedOrderList, "_SPAN", 1 << 7)
    counts = dict(splice=0, prepend=0, rekey=0, stale_rekey=0, pops=0)

    def counting(site, method):
        def wrapper(self, *args):
            before = self.stats.relabels
            method(self, *args)
            counts[site] += self.stats.relabels - before
        return wrapper

    monkeypatch.setattr(
        TaggedOrderList, "move_chain_after",
        counting("splice", TaggedOrderList.move_chain_after),
    )
    monkeypatch.setattr(
        TaggedOrderList, "extend_front",
        counting("prepend", TaggedOrderList.extend_front),
    )
    scan_block = []

    def recording(order_key):
        def wrapper(self, item):
            scan_block[:] = [(self, order_key)]
            return order_key(self, item)
        return wrapper

    for backend in (TaggedOrderList, OrderStatisticTreap):
        monkeypatch.setattr(
            backend, "order_key", recording(backend.order_key)
        )
    rekey = LazyMinHeap.rekey
    pop = LazyMinHeap.pop

    def counting_rekey(self, key_of):
        counts["rekey"] += 1
        if any(key_of(item) != key for item, key in self._live.items()):
            counts["stale_rekey"] += 1
        rekey(self, key_of)

    def checked_pop(self):
        top = pop(self)
        if top is not None:
            block, order_key = scan_block[0]
            assert top[0] == order_key(block, top[1])
            counts["pops"] += 1
        return top

    monkeypatch.setattr(LazyMinHeap, "rekey", counting_rekey)
    monkeypatch.setattr(LazyMinHeap, "pop", checked_pop)
    return counts


def run_batches(engine, batches):
    for ops in batches:
        engine.apply_batch(Batch(ops))
        assert engine.core_numbers() == core_numbers(engine.graph)
    return engine


def run_per_edge(engine, batches):
    for ops in batches:
        for kind, (u, v) in ops:
            if kind == "insert":
                engine.insert_edge(u, v)
            else:
                engine.remove_edge(u, v)
        engine.check()
        assert engine.core_numbers() == core_numbers(engine.graph)
    return engine


def om_and_treap(family, batches):
    om = run_batches(
        make_engine(family, DynamicGraph(), audit=True, sequence="om"),
        batches,
    )
    treap = run_batches(
        make_engine(family, DynamicGraph(), audit=True, sequence="treap"),
        batches,
    )
    assert treap.sequence_stats.relabels == 0
    assert om.order() == treap.order()
    return om


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("family", ["order", "order-simplified"])
def test_batches_under_forced_relabels(forced_relabels, family, seed):
    om = om_and_treap(family, mixed_stream(seed))
    assert om.sequence_stats.relabels > 0
    assert forced_relabels["splice"] > 0
    assert forced_relabels["prepend"] > 0
    assert forced_relabels["rekey"] > 0
    assert forced_relabels["pops"] > 0


@pytest.mark.parametrize("family", ["order", "order-simplified"])
def test_rekey_with_live_entries(forced_relabels, family):
    """A relabeling rarely lands while the heap still holds pending
    entries; sweep enough streams that some re-keys change live keys,
    which the pops that follow then check."""
    for seed in range(40):
        run_batches(make_engine(family, DynamicGraph()), mixed_stream(seed))
    assert forced_relabels["stale_rekey"] > 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sequential_scan_under_forced_relabels(forced_relabels, seed):
    """The ablation's sequential scan shares the eviction splice; it ends
    with the k-order the jump scan builds from the same per-edge ops."""
    batches = mixed_stream(seed)
    scan = run_per_edge(ScanningOrderedCoreMaintainer(DynamicGraph()), batches)
    jump = run_per_edge(
        make_engine("order", DynamicGraph(), audit=True, sequence="treap"),
        batches,
    )
    assert scan._inner.sequence_stats.relabels > 0
    assert forced_relabels["splice"] > 0
    assert forced_relabels["rekey"] > 0
    assert scan._inner.order() == jump.order()
