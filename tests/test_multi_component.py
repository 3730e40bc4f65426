"""Order-family engines on graphs made of several components.

Edges that bridge two components, batches whose ops land in different
components, brand-new vertices and removals of edges that cannot exist
are the boundary cases of the batch schedule (``Batch.runs()`` →
``_insert_run`` / ``_remove_run``).  Every test runs over each
order-family engine on both sequence backends and checks the engine
against the from-scratch oracle, its own invariant audit
(``engine.check()``) and, where the batch path is under test, a
per-edge replay of the same ops.
"""

import itertools
import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from engine_contract import order_family_engines
from repro.core.decomposition import core_numbers
from repro.core.snapshot import from_snapshot, to_snapshot
from repro.engine import Batch, make_engine
from repro.errors import EdgeNotFoundError
from repro.graphs.undirected import DynamicGraph
from repro.testing import FaultPlan, InjectedFault

ENGINES = order_family_engines()


def pockets_graph(n_pockets=3, size=6, seed=0):
    """Disconnected random pockets; returns (edges, per-pocket edges)."""
    rng = random.Random(seed)
    pockets = []
    for b in range(n_pockets):
        base = b * 100
        verts = range(base, base + size)
        pairs = [(i, j) for i in verts for j in verts if i < j]
        rng.shuffle(pairs)
        pockets.append(pairs[: size + 3])
    return [e for p in pockets for e in p], pockets


def per_edge_replay(name, edges, batch, vertices=()):
    """The cores after applying ``batch`` one op at a time."""
    engine = make_engine(name, DynamicGraph(edges, vertices=vertices))
    for op in batch:
        if op.kind == "insert":
            engine.insert_edge(*op.edge)
        else:
            engine.remove_edge(*op.edge)
    return engine.core_numbers()


def assert_exact(engine):
    engine.check()
    assert engine.core_numbers() == core_numbers(engine.graph)


@pytest.mark.parametrize("name", ENGINES)
class TestComponents:
    def test_disconnected_pockets_match_recompute(self, name):
        edges, _ = pockets_graph(4)
        engine = make_engine(name, DynamicGraph(edges), audit=True)
        assert_exact(engine)

    def test_bridging_insert_keeps_cores_exact(self, name):
        edges, _ = pockets_graph(2)
        engine = make_engine(name, DynamicGraph(edges), audit=True)
        result = engine.insert_edge(0, 100)
        assert result.kind == "insert"
        assert engine.graph.has_edge(0, 100)
        assert_exact(engine)

    def test_bridge_insert_then_remove_restores_cores(self, name):
        edges, _ = pockets_graph(2)
        engine = make_engine(name, DynamicGraph(edges), audit=True)
        before = engine.core_numbers()
        engine.insert_edge(0, 100)
        engine.remove_edge(0, 100)
        assert engine.core_numbers() == before
        assert_exact(engine)

    def test_order_is_a_valid_korder_across_components(self, name):
        edges, _ = pockets_graph(3)
        engine = make_engine(name, DynamicGraph(edges))
        order = engine.order()
        assert sorted(order, key=repr) == sorted(
            engine.graph.vertices(), key=repr
        )
        cores = engine.core
        assert all(
            cores[order[i]] <= cores[order[i + 1]]
            for i in range(len(order) - 1)
        )

    def test_vertex_removal_after_bridge(self, name):
        edges, _ = pockets_graph(2)
        engine = make_engine(name, DynamicGraph(edges), audit=True)
        engine.insert_edge(0, 100)
        engine.remove_vertex(0)
        assert not engine.graph.has_vertex(0)
        assert_exact(engine)

    def test_add_vertex_creates_isolated_core_zero(self, name):
        engine = make_engine(name, DynamicGraph([(0, 1)]))
        assert engine.add_vertex("lonely") is True
        assert engine.add_vertex("lonely") is False
        assert engine.core["lonely"] == 0
        assert_exact(engine)

    def test_remove_of_absent_cross_component_edge_raises(self, name):
        edges, _ = pockets_graph(2)
        engine = make_engine(name, DynamicGraph(edges))
        with pytest.raises(EdgeNotFoundError):
            engine.remove_edge(0, 100)
        with pytest.raises(EdgeNotFoundError):
            engine.apply_batch(Batch.removes([(0, 100)]))
        # Nothing committed, nothing corrupted.
        assert sorted(engine.graph.edges()) == sorted(
            DynamicGraph(edges).edges()
        )
        assert_exact(engine)

    def test_snapshot_round_trips_byte_for_byte_after_updates(self, name):
        edges, _ = pockets_graph(2)
        engine = make_engine(name, DynamicGraph(edges))
        engine.apply_batch(
            Batch().insert(0, 100).insert(100, "new").remove(*edges[0])
        )
        snapshot = to_snapshot(engine)
        restored = from_snapshot(json.loads(json.dumps(snapshot)))
        assert json.dumps(to_snapshot(restored)) == json.dumps(snapshot)
        assert restored.core_numbers() == engine.core_numbers()


@pytest.mark.parametrize("name", ENGINES)
class TestBatchAcrossComponents:
    def test_bridge_edge_arriving_mid_batch(self, name):
        """A batch that starts inside one component and then bridges
        two mid-stream keeps every op's effect."""
        edges, pockets = pockets_graph(2)
        engine = make_engine(name, DynamicGraph(edges), audit=True)
        batch = (
            Batch()
            .remove(*pockets[0][0])
            .insert(0, 100)
            .remove(*pockets[1][0])
        )
        result = engine.apply_batch(batch)
        assert (result.inserts, result.removes) == (1, 2)
        assert engine.core_numbers() == per_edge_replay(name, edges, batch)
        assert_exact(engine)

    def test_insert_and_remove_of_one_bridge_in_one_batch(self, name):
        """Conflicting ops on one edge keep their order, and the cores
        end where they started."""
        edges, _ = pockets_graph(2)
        engine = make_engine(name, DynamicGraph(edges), audit=True)
        before = engine.core_numbers()
        batch = Batch().insert(0, 100).remove(0, 100)
        assert [kind for kind, _ in batch.runs()] == ["insert", "remove"]
        engine.apply_batch(batch)
        assert not engine.graph.has_edge(0, 100)
        assert engine.core_numbers() == before
        assert_exact(engine)

    def test_batch_over_brand_new_vertices(self, name):
        engine = make_engine(name, DynamicGraph(), audit=True)
        batch = Batch.inserts([("a", "b"), ("b", "c"), ("x", "y")])
        result = engine.apply_batch(batch)
        assert result.inserts == 3
        # Insert-only batches keep per-op results in batch op order.
        assert [r.edge for r in result.results] == [op.edge for op in batch]
        assert_exact(engine)

    def test_new_vertex_bridging_two_components(self, name):
        edges, _ = pockets_graph(2)
        engine = make_engine(name, DynamicGraph(edges), audit=True)
        batch = Batch.inserts([(0, "hub"), (100, "hub")])
        engine.apply_batch(batch)
        assert engine.core_numbers() == per_edge_replay(name, edges, batch)
        assert_exact(engine)

    def test_insert_results_keep_batch_op_order(self, name):
        """Results zip with the batch's ops even when consecutive ops
        alternate between components."""
        graph = DynamicGraph(
            [(0, 1), (1, 2), (2, 0), (10, 11), (11, 12), (12, 10)]
        )
        edges = [(0, 3), (10, 13), (1, 3), (11, 13)]
        engine = make_engine(name, graph)
        result = engine.apply_batch(Batch.inserts(edges))
        # Edges are already in canonical orientation, so results must
        # come back in exactly the batch's op order.
        assert [r.edge for r in result.results] == edges
        assert_exact(engine)

    def test_any_component_order_matches_whole_batch(self, name):
        """Per-component sub-batches applied in any order end in the
        cores of the whole batch."""
        edges, pockets = pockets_graph(3)
        rng = random.Random(1)
        subs = [Batch.removes(rng.sample(pocket, 3)) for pocket in pockets]
        whole = Batch()
        for sub in subs:
            for op in sub:
                whole.remove(*op.edge)
        engine = make_engine(name, DynamicGraph(edges), audit=True)
        engine.apply_batch(whole)
        expected = engine.core_numbers()
        assert expected == core_numbers(engine.graph)
        for permutation in itertools.permutations(range(len(subs))):
            other = make_engine(name, DynamicGraph(edges))
            for index in permutation:
                other.apply_batch(subs[index])
            assert other.core_numbers() == expected

    def test_mixed_batch_with_inserts_matches_per_edge(self, name):
        edges, pockets = pockets_graph(4, size=8)
        rng = random.Random(3)
        batch = Batch()
        for pocket in pockets:
            for edge in rng.sample(pocket, 4):
                batch.remove(*edge)
        for u, v in [(0, 100), (100, "new"), (200, 300)]:
            batch.insert(u, v)
        engine = make_engine(name, DynamicGraph(edges), audit=True)
        result = engine.apply_batch(batch)
        assert (result.inserts, result.removes) == (3, 16)
        assert result.results is None  # removal runs are coalesced
        assert engine.core_numbers() == per_edge_replay(name, edges, batch)
        assert_exact(engine)

    def test_mid_batch_error_leaves_engine_consistent(self, name):
        """An invalid removal raises from the removal run; whatever part
        of the batch landed, the index still describes the graph."""
        edges, pockets = pockets_graph(3)
        engine = make_engine(name, DynamicGraph(edges))
        batch = Batch()
        for pocket in pockets:
            for edge in pocket[:4]:
                batch.remove(*edge)
        pocket_vertices = sorted({v for e in pockets[0] for v in e})
        present = set(pockets[0]) | {(b, a) for a, b in pockets[0]}
        missing = next(
            (a, b)
            for a in pocket_vertices
            for b in pocket_vertices
            if a < b and (a, b) not in present
        )
        batch.remove(*missing)
        with pytest.raises(EdgeNotFoundError):
            engine.apply_batch(batch)
        assert_exact(engine)

    def test_mid_batch_fault_leaves_engine_usable(self, name):
        """A crash between two runs leaves the first run committed and
        the engine exact and usable."""
        edges, pockets = pockets_graph(2)
        engine = make_engine(name, DynamicGraph(edges))
        batch = Batch().insert(0, 100).remove(0, 100)  # two runs
        with FaultPlan().crash("engine.mid_batch", hits=2):
            with pytest.raises(InjectedFault):
                engine.apply_batch(batch)
        assert engine.graph.has_edge(0, 100)
        assert_exact(engine)
        engine.apply_batch(Batch().remove(0, 100).insert(1, 101))
        assert_exact(engine)


@pytest.mark.parametrize("name", ENGINES)
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=0, max_value=2**16), data=st.data())
def test_batches_spanning_components_match_recompute(name, seed, data):
    """Hypothesis: arbitrary valid mixed batches over several pockets
    joined and split by bridge edges track the oracle and a per-edge
    replay."""
    rng = random.Random(seed)
    pairs = []
    for b in range(3):
        base = b * 50
        verts = range(base, base + 8)
        pairs.extend((i, j) for i in verts for j in verts if i < j)
    bridges = [(i, 50 + i) for i in range(8)] + [
        (50 + i, 100 + i) for i in range(8)
    ]
    rng.shuffle(pairs)
    m = data.draw(st.integers(10, len(pairs)), label="m")
    base_edges, spare = pairs[:m], pairs[m:] + bridges
    engine = make_engine(name, DynamicGraph(base_edges), seed=seed)
    for _ in range(data.draw(st.integers(1, 3), label="rounds")):
        batch = Batch()
        present = list(engine.graph.edges())
        for edge in rng.sample(
            present,
            min(len(present), data.draw(st.integers(0, 8), label="rm")),
        ):
            batch.remove(*edge)
        for edge in spare[: data.draw(st.integers(0, 6), label="ins")]:
            if not engine.graph.has_edge(*edge):
                batch.insert(*edge)
        spare = spare[6:] + spare[:6]  # rotate the insert pool
        if not batch:
            continue
        start = list(engine.graph.edges())
        vertices = list(engine.graph.vertices())
        engine.apply_batch(batch)
        assert engine.core_numbers() == per_edge_replay(
            name, start, batch, vertices
        )
        assert_exact(engine)


class TestBatchBookkeeping:
    def test_counts_are_cached_and_correct(self):
        batch = Batch.inserts([(1, 2), (2, 3)]).remove(4, 5)
        assert batch.counts() == (2, 1)
        batch.insert(1, 2)  # duplicate of the pending op: dropped
        assert batch.counts() == (2, 1)
        batch.remove(1, 2).insert(1, 2)
        assert batch.counts() == (3, 2)
        assert repr(batch) == "Batch(3 inserts, 2 removes)"

    def test_per_edge_op_order_preserved_in_runs(self):
        batch = Batch().insert(1, 2).remove(1, 2).insert(1, 2).remove(5, 6)
        assert batch.runs() == [
            ("insert", [(1, 2)]),
            ("remove", [(1, 2)]),
            ("insert", [(1, 2)]),
            ("remove", [(5, 6)]),
        ]
        engine = make_engine("order", DynamicGraph([(5, 6)]))
        engine.apply_batch(batch)
        assert engine.graph.has_edge(1, 2)
        assert not engine.graph.has_edge(5, 6)
        assert_exact(engine)

    def test_empty_batch(self):
        assert Batch().runs() == []
        engine = make_engine("order", DynamicGraph([(0, 1)]))
        result = engine.apply_batch(Batch())
        assert (result.inserts, result.removes) == (0, 0)
        assert result.results == []
        assert_exact(engine)
