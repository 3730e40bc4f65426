"""Tests for the engine layer: registry, Batch semantics, apply_batch.

Covers the acceptance criteria of the engine-layer refactor:

* ``make_engine`` resolves all three engine families by name;
* ``apply_batch`` on a mixed 500-insert/500-remove workload agrees with
  the naive from-scratch oracle on every engine;
* the order engine's batched path performs measurably fewer ``mcd``
  recomputations than the same workload replayed per edge.
"""

import random

import pytest

from repro.core.maintainer import OrderedCoreMaintainer, compute_mcd
from repro.core.decomposition import core_numbers
from repro.engine import (
    Batch,
    BatchResult,
    CoreMaintainer,
    available_engines,
    engine_options,
    make_engine,
    normalize_edge,
    register_engine,
)
from repro.errors import BatchError, EngineOptionError, SelfLoopError
from repro.graphs.undirected import DynamicGraph
from repro.naive.maintainer import NaiveCoreMaintainer
from repro.traversal.maintainer import TraversalCoreMaintainer

from helpers import random_gnm


@pytest.fixture(autouse=True)
def _pristine_registry():
    """Ad-hoc registrations in this module must not leak into the
    global registry: the conformance battery asserts registry coverage,
    so leaked names would fail it (and pollute every other suite)."""
    from repro.engine import registry

    snapshot = dict(registry._REGISTRY)
    yield
    registry._REGISTRY.clear()
    registry._REGISTRY.update(snapshot)


def mixed_workload(n=120, base_m=2000, inserts=500, removes=500, seed=7):
    """A base graph plus an interleaved 50/50 insert/remove plan."""
    rng = random.Random(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    base = pairs[:base_m]
    new_edges = pairs[base_m : base_m + inserts]
    victims = rng.sample(base, removes)
    plan = []
    vi = ni = 0
    for step in range(inserts + removes):
        if step % 2 == 0 and ni < inserts:
            plan.append(("insert", new_edges[ni]))
            ni += 1
        elif vi < removes:
            plan.append(("remove", victims[vi]))
            vi += 1
        else:
            plan.append(("insert", new_edges[ni]))
            ni += 1
    graph = lambda: DynamicGraph(base, vertices=range(n))  # noqa: E731
    return graph, plan


class TestRegistry:
    def test_resolves_all_three_engine_families(self):
        graph = DynamicGraph([(0, 1), (1, 2), (2, 0)])
        assert isinstance(
            make_engine("order", graph.copy()), OrderedCoreMaintainer
        )
        assert isinstance(
            make_engine("trav-2", graph.copy()), TraversalCoreMaintainer
        )
        assert isinstance(
            make_engine("naive", graph.copy()), NaiveCoreMaintainer
        )

    def test_order_policies_and_trav_hops(self):
        graph = DynamicGraph([(0, 1)])
        assert make_engine("order-large", graph.copy()).name == "order"
        assert make_engine("trav-3", graph.copy()).h == 3
        # Any hop count works, not just the pre-registered ones.
        assert make_engine("trav-7", graph.copy()).h == 7

    def test_common_opts_accepted_by_every_engine(self):
        graph = DynamicGraph([(0, 1), (1, 2), (2, 0)])
        for name in ("order", "trav-2", "naive"):
            engine = make_engine(name, graph.copy(), seed=3)
            assert isinstance(engine, CoreMaintainer)

    def test_unknown_engine_raises(self):
        with pytest.raises(ValueError, match="unknown engine"):
            make_engine("quantum", DynamicGraph())

    def test_available_engines_lists_builtins(self):
        names = available_engines()
        assert {"order", "naive", "trav-2"} <= set(names)

    def test_register_engine_rejects_duplicates_and_accepts_new(self):
        with pytest.raises(ValueError, match="already registered"):
            register_engine("order", lambda g: None)
        register_engine(
            "naive-alias",
            lambda graph, seed=None: NaiveCoreMaintainer(graph),
            overwrite=True,
        )
        assert isinstance(
            make_engine("naive-alias", DynamicGraph()), NaiveCoreMaintainer
        )

    def test_core_base_shim_is_gone(self):
        # The deprecated repro.core.base re-export shim had one release
        # of warning time (PR 4) and is now removed for good.
        with pytest.raises(ModuleNotFoundError):
            import repro.core.base  # noqa: F401

    def test_sequence_backend_selection(self):
        graph = DynamicGraph([(0, 1), (1, 2), (2, 0)])
        assert make_engine("order", graph.copy()).sequence == "om"
        assert make_engine(
            "order", graph.copy(), sequence="treap"
        ).sequence == "treap"
        assert make_engine("order-om", graph.copy()).sequence == "om"
        assert make_engine("order-treap", graph.copy()).sequence == "treap"
        with pytest.raises(ValueError, match="sequence backend"):
            make_engine("order", graph.copy(), sequence="skiplist")


class TestEngineOptionValidation:
    """Unknown options must fail loudly, naming engine and keyword."""

    #: Every registered family plus the dynamic trav-<h> path, with an
    #: option the factory genuinely accepts (proving validation does not
    #: over-reject).
    FAMILIES = [
        ("order", {"policy": "large"}),
        ("order-small", {"audit": True}),
        ("order-large", {"seed": 3}),
        ("order-random", {"seed": 3}),
        ("order-om", {"seed": 3}),
        ("order-treap", {"audit": True}),
        ("order-simplified", {"policy": "large"}),
        ("order-simplified-treap", {"audit": True}),
        ("naive", {"seed": 1}),
        ("trav", {"audit": True}),
        ("trav-2", {"seed": 1}),
        ("trav-7", {"audit": True}),  # dynamic trav-<h>, not registered
    ]

    @pytest.mark.parametrize("name,good", FAMILIES)
    def test_every_family_rejects_a_stray_option(self, name, good):
        graph = DynamicGraph([(0, 1), (1, 2), (2, 0)])
        engine = make_engine(name, graph.copy(), **good)
        assert isinstance(engine, CoreMaintainer)
        with pytest.raises(EngineOptionError) as info:
            make_engine(name, graph.copy(), turbo=True, **good)
        message = str(info.value)
        assert name in message and "turbo" in message
        assert info.value.stray == ("turbo",)

    def test_typoed_known_option_names_the_typo(self):
        with pytest.raises(EngineOptionError, match="sequnce"):
            make_engine("order", DynamicGraph(), sequnce="om")

    def test_error_lists_accepted_options(self):
        with pytest.raises(EngineOptionError) as info:
            make_engine("naive", DynamicGraph(), sequence="om")
        assert set(info.value.accepted) == {"seed", "audit"}

    def test_trav_name_derived_h_is_not_an_option(self):
        # h comes from the engine *name*; passing it as an option must
        # fail instead of silently fighting the name.
        with pytest.raises(EngineOptionError, match="'h'"):
            make_engine("trav-3", DynamicGraph(), h=5)

    def test_var_keyword_factories_validate_themselves(self):
        calls = []

        def factory(graph, **opts):
            calls.append(opts)
            return NaiveCoreMaintainer(graph)

        register_engine("anything-goes", factory, overwrite=True)
        make_engine("anything-goes", DynamicGraph(), custom=1, seed=2)
        assert calls == [{"custom": 1, "seed": 2}]

    def test_engine_options_introspection(self):
        assert engine_options("naive") == ("audit", "seed")
        assert "sequence" in engine_options("order")
        assert engine_options("trav-5") == ("audit", "seed")
        with pytest.raises(ValueError, match="unknown engine"):
            engine_options("quantum")


class TestBatch:
    def test_normalizes_and_dedupes(self):
        batch = Batch([("insert", (2, 1)), ("insert", (1, 2))])
        assert len(batch) == 1
        assert batch.ops[0].edge == (1, 2)

    def test_opposite_kind_sequences_are_kept(self):
        batch = Batch.inserts([(1, 2)]).remove(1, 2).insert(1, 2)
        assert [op.kind for op in batch] == ["insert", "remove", "insert"]

    def test_rejects_bad_kind_and_self_loop(self):
        with pytest.raises(BatchError):
            Batch([("upsert", (1, 2))])
        with pytest.raises(SelfLoopError):
            Batch.inserts([(3, 3)])

    def test_counts_and_edges(self):
        batch = Batch.inserts([(1, 2), (2, 3)]).remove(4, 5)
        assert batch.counts() == (2, 1)
        assert batch.edges("remove") == [(4, 5)]

    def test_conflict_free_batch_reorders_into_two_runs(self):
        batch = (
            Batch().insert(1, 2).remove(3, 4).insert(5, 6).remove(7, 8)
        )
        runs = batch.runs()
        assert [kind for kind, _ in runs] == ["remove", "insert"]
        assert runs[0][1] == [(3, 4), (7, 8)]
        assert runs[1][1] == [(1, 2), (5, 6)]

    def test_conflicting_batch_keeps_natural_order(self):
        batch = Batch().insert(1, 2).remove(1, 2).insert(3, 4)
        assert batch.conflicting_edges() == {(1, 2)}
        runs = batch.runs()
        assert [kind for kind, _ in runs] == ["insert", "remove", "insert"]

    def test_normalize_edge_prefers_vertex_order_over_repr(self):
        # repr ordering would put 10 before 2 ("10" < "2"); vertex
        # ordering must win for comparable vertices.
        assert normalize_edge(10, 2) == (2, 10)
        assert normalize_edge(2, 10) == (2, 10)

    def test_round_trips_through_own_ops(self):
        original = Batch().insert(1, 2).remove(3, 4).insert(1, 2)
        rebuilt = Batch(original.ops)
        assert rebuilt.ops == original.ops

    def test_normalize_edge_mixed_types_is_stable(self):
        # int and str don't compare; the stable (type, repr) key decides,
        # identically for both argument orders.
        assert normalize_edge(1, "a") == normalize_edge("a", 1)
        with pytest.raises(SelfLoopError):
            normalize_edge("x", "x")


class TestApplyBatchAgreement:
    """Acceptance: mixed 500/500 workload, all engines vs the oracle."""

    @pytest.fixture(scope="class")
    def workload(self):
        return mixed_workload()

    @pytest.fixture(scope="class")
    def oracle(self, workload):
        graph_factory, plan = workload
        graph = graph_factory()
        for kind, (a, b) in plan:
            (graph.add_edge if kind == "insert" else graph.remove_edge)(a, b)
        return core_numbers(graph)

    @pytest.mark.parametrize(
        "name", ["order", "order-simplified", "trav-2", "naive"]
    )
    def test_batched_replay_matches_recompute_oracle(
        self, name, workload, oracle
    ):
        graph_factory, plan = workload
        engine = make_engine(name, graph_factory(), seed=1)
        result = engine.apply_batch(Batch(plan))
        assert result.inserts == 500 and result.removes == 500
        assert engine.core_numbers() == oracle
        # Net changes in the result must equal the oracle's view too.
        base_core = core_numbers(graph_factory())
        expected = {
            v: oracle.get(v, 0) - base_core.get(v, 0)
            for v in oracle.keys() | base_core.keys()
            if oracle.get(v, 0) != base_core.get(v, 0)
        }
        assert result.changed == expected

    def test_order_batched_path_repairs_mcd_and_korder(self, workload):
        graph_factory, plan = workload
        engine = make_engine("order", graph_factory(), seed=1, audit=True)
        engine.apply_batch(Batch(plan))
        engine.check()
        assert dict(engine.mcd) == compute_mcd(engine.graph, engine.core)

    def test_order_batch_does_fewer_mcd_recomputations(self, workload):
        graph_factory, plan = workload
        per_edge = make_engine("order", graph_factory(), seed=1)
        for kind, (a, b) in plan:
            op = per_edge.insert_edge if kind == "insert" else per_edge.remove_edge
            op(a, b)
        batched = make_engine("order", graph_factory(), seed=1)
        batched.apply_batch(Batch(plan))
        assert batched.core_numbers() == per_edge.core_numbers()
        # Removal repair cannot be deferred (the cascade consumes mcd),
        # so the amortization comes from the insertion run; on this
        # workload that still halves the total repair work.
        assert batched.mcd_recomputations < 0.6 * per_edge.mcd_recomputations, (
            f"batched path should amortize mcd repair: "
            f"{batched.mcd_recomputations} vs {per_edge.mcd_recomputations}"
        )

    def test_insert_run_amortization_is_sharp(self, workload):
        """An insert-only batch pays ~|V| repairs instead of ~2 per edge."""
        graph_factory, plan = workload
        inserts = [("insert", e) for k, e in plan if k == "insert"]
        per_edge = make_engine("order", graph_factory(), seed=1)
        for _, (a, b) in inserts:
            per_edge.insert_edge(a, b)
        batched = make_engine("order", graph_factory(), seed=1)
        batched.apply_batch(Batch(inserts))
        assert batched.core_numbers() == per_edge.core_numbers()
        assert batched.mcd_recomputations <= batched.graph.n
        assert per_edge.mcd_recomputations >= 2 * len(inserts)

    def test_naive_batch_recomputes_once(self, workload):
        graph_factory, plan = workload
        engine = make_engine("naive", graph_factory())
        result = engine.apply_batch(Batch(plan))
        assert engine.recomputations == 1
        assert result.results is None
        assert result.visited == engine.graph.n

    def test_batch_registers_new_vertices(self):
        engine = make_engine("order", DynamicGraph([(0, 1)]), audit=True)
        result = engine.apply_batch(
            Batch.inserts([("a", "b"), ("b", "c"), ("c", "a"), (1, "a")])
        )
        assert engine.core_of("a") == 2
        assert result.inserts == 4

    def test_bulk_wrapper_still_returns_per_edge_results(self):
        engine = OrderedCoreMaintainer(DynamicGraph(), audit=True)
        results = engine.insert_edges_bulk([(0, 1), (1, 2), (2, 0)])
        assert [r.kind for r in results] == ["insert"] * 3
        assert engine.core_of(0) == 2

    def test_empty_batch_is_a_noop(self):
        engine = make_engine("order", DynamicGraph([(0, 1)]))
        result = engine.apply_batch(Batch())
        assert result.ops == 0 and result.changed == {}

    def test_order_index_stays_consistent_when_an_op_raises(self):
        from repro.errors import EdgeExistsError

        engine = make_engine("order", DynamicGraph([(0, 1), (1, 2), (2, 0)]))
        # (0, 1) already exists: the third op raises after two landed.
        with pytest.raises(EdgeExistsError):
            engine.apply_batch(Batch([
                ("insert", (0, 3)), ("insert", (3, 1)), ("insert", (0, 1)),
            ]))
        engine.check()  # mcd and k-order must survive the failed batch
        assert engine.core_numbers() == core_numbers(engine.graph)

    def test_naive_core_stays_consistent_when_an_op_raises(self):
        from repro.errors import EdgeExistsError

        engine = make_engine("naive", DynamicGraph([(0, 1), (1, 2), (2, 0)]))
        with pytest.raises(EdgeExistsError):
            engine.apply_batch(Batch([
                ("insert", (0, 3)), ("insert", (0, 1)),
            ]))
        # The landed mutation is reflected; core matches the graph.
        assert engine.core_numbers() == core_numbers(engine.graph)
        assert engine.core_of(3) == 1


class TestBatchResult:
    def test_aggregates(self):
        engine = make_engine("order", random_gnm(20, 40, seed=4))
        edges = [e for e in random_gnm(20, 60, seed=5).edges()
                 if not engine.graph.has_edge(*e)][:10]
        result = engine.apply_batch(Batch.inserts(edges))
        assert result.ops == len(edges) == result.inserts
        assert result.seconds >= 0.0
        assert result.visited == sum(r.visited for r in result.results)
        assert result.total_changed == len(result.changed)
        assert isinstance(result, BatchResult)

    @pytest.mark.parametrize("sequence", ["om", "treap"])
    def test_counters_are_per_batch_deltas(self, sequence):
        engine = make_engine(
            "order", random_gnm(20, 40, seed=4), sequence=sequence
        )
        edges = [e for e in random_gnm(20, 70, seed=5).edges()
                 if not engine.graph.has_edge(*e)]
        first = engine.apply_batch(Batch.inserts(edges[:8]))
        second = engine.apply_batch(Batch.removes(edges[:8]))
        # Counters the backend's machinery never touched are omitted,
        # not zero-filled: the OM backend walks no treap ranks, the
        # treap backend assigns no labels.
        absent = "rank_walk_steps" if sequence == "om" else "relabels"
        for result in (first, second):
            expected = {"order_queries", "mcd_recomputations"}
            assert expected <= set(result.counters)
            assert absent not in result.counters
            assert all(v >= 0 for v in result.counters.values())
        # Deltas, not cumulative totals: both batches did comparable
        # work, so neither batch's counters can contain the sum.
        totals = engine._batch_counters()
        assert totals["order_queries"] == (
            first.counters["order_queries"] + second.counters["order_queries"]
        )

    def test_counters_on_other_engines(self):
        graph = random_gnm(15, 30, seed=6)
        edges = [e for e in random_gnm(15, 45, seed=7).edges()
                 if not graph.has_edge(*e)][:5]
        naive = make_engine("naive", graph.copy())
        result = naive.apply_batch(Batch.inserts(edges))
        assert result.counters == {"recomputations": 1}
        trav = make_engine("trav-2", graph.copy())
        assert trav.apply_batch(Batch.inserts(edges)).counters == {}
