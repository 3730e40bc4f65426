"""The cross-engine conformance battery.

Auto-discovered over :mod:`repro.engine.registry`: every registered
engine name runs the same contract — batch and per-edge application
agree with a full recompute, snapshots either round-trip or refuse
loudly, counters are omitted (never zero-filled) when their machinery
did not run, and ``check()`` holds after hypothesis-generated mixed
workloads.  A new engine registered anywhere in the package is pulled
into the battery with no test edit; :class:`TestRegistryCoverage` pins
that property itself.

The run-path invariants at the bottom pin the batch-native contract the
order family shares: a run-scheduled batch lands the *same* net core
deltas as the per-edge fallback path, and over a pool of homogeneous
(single-run) batches the coalesced machinery charges less in aggregate
than per-edge application — the amortization claim, as a test.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from engine_contract import (
    SEQUENCE_BACKENDS,
    TRAV_REPRESENTATIVE,
    contract_engines,
    mixed_batch_stream,
    order_family_engines,
    representative_engines,
)
from repro.core.decomposition import core_numbers
from repro.engine import Batch, make_engine
from repro.engine.base import CoreMaintainer
from repro.engine.registry import available_engines, is_engine_name
from repro.errors import ServiceError
from repro.graphs.undirected import DynamicGraph
from repro.service import CoreService

ALL_ENGINES = contract_engines()

#: Engines whose batch path is run-scheduled (coalesced insertion runs,
#: joint removal cascades) — the run-path invariant tests below compare
#: them against the per-edge fallback inherited from the base class.
RUN_NATIVE = ("order", "order-treap", "order-simplified", "order-simplified-treap")

#: The chargeable work counter per run-native family: the default engine
#: counts mcd repairs, the simplified engine counts candidate visits.
CHARGEABLE = {
    "order": "mcd_recomputations",
    "order-treap": "mcd_recomputations",
    "order-simplified": "candidate_visits",
    "order-simplified-treap": "candidate_visits",
}


def _apply_per_edge(engine, batch):
    for op in batch:
        if op.kind == "insert":
            engine.insert_edge(*op.edge)
        else:
            engine.remove_edge(*op.edge)


def _random_graph(rng, n, m):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    return pairs[:m], pairs[m:]


class TestRegistryCoverage:
    """The battery cannot drift from the registry: these tests fail the
    moment an engine name exists that the contract lists do not cover."""

    def test_battery_covers_every_registered_name(self):
        assert set(ALL_ENGINES) == set(available_engines())
        assert len(ALL_ENGINES) >= 19

    def test_every_covered_name_resolves(self):
        for name in ALL_ENGINES:
            assert is_engine_name(name), name

    def test_every_name_has_a_representative(self):
        reps = representative_engines()
        assert set(reps) <= set(ALL_ENGINES)
        assert TRAV_REPRESENTATIVE in reps
        for name in ALL_ENGINES:
            covered = (
                name in reps
                or name.startswith("trav")
                or any(name.startswith(rep + "-") for rep in reps)
            )
            assert covered, f"{name} folds into no representative"

    def test_family_lists_are_consistent(self):
        assert set(order_family_engines()) <= set(representative_engines())
        assert SEQUENCE_BACKENDS == ("om", "treap")

    def test_run_native_lists_are_registered(self):
        assert set(RUN_NATIVE) <= set(ALL_ENGINES)
        assert set(CHARGEABLE) == set(RUN_NATIVE)


@pytest.mark.parametrize("name", ALL_ENGINES)
class TestConformance:
    """The contract proper, over every registered name."""

    def test_batch_and_per_edge_agree_with_recompute(self, name):
        base, batches = mixed_batch_stream(random.Random(17), 3, 14, 26)
        batched = make_engine(name, DynamicGraph(base), seed=0)
        per_edge = make_engine(name, DynamicGraph(base), seed=0)
        for batch in batches:
            batched.apply_batch(batch)
            _apply_per_edge(per_edge, batch)
            oracle = core_numbers(batched.graph)
            assert batched.core_numbers() == oracle
            assert per_edge.core_numbers() == oracle

    def test_snapshot_round_trips_or_refuses_loudly(self, name, tmp_path):
        base, batches = mixed_batch_stream(random.Random(5), 2, 12, 22)
        service = CoreService.open(base, engine=name, seed=0)
        service.apply(batches[0])
        path = tmp_path / "snap.json"
        try:
            service.save(path)
        except ServiceError as err:
            # Engines without a serializable index must refuse with a
            # message naming the gap — never write a partial snapshot.
            assert "snapshot" in str(err)
            assert not path.exists()
            return
        restored = CoreService.load(path)
        assert restored.cores() == service.cores()
        # The restored session is live, not a frozen readback.
        service.apply(batches[1])
        restored.apply(batches[1])
        assert restored.cores() == service.cores()
        assert restored.cores() == core_numbers(restored.graph)

    def test_counters_omitted_not_zero_filled(self, name):
        base, batches = mixed_batch_stream(random.Random(23), 3, 14, 26)
        engine = make_engine(name, DynamicGraph(base), seed=0)
        for batch in batches:
            result = engine.apply_batch(batch)
            for key, value in result.counters.items():
                assert isinstance(value, int) and value >= 0, (key, value)
            # A counter whose cumulative total never moved means the
            # machinery never ran: it must be absent from the report,
            # so ``counters.get(key, 0)`` and ``counters[key]`` only
            # diverge when 0 would be a lie.
            for key, total in engine._batch_counters().items():
                if total == 0:
                    assert key not in result.counters, key


@pytest.mark.parametrize("name", representative_engines())
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_check_holds_after_mixed_workloads(name, seed):
    """Hypothesis: after every mixed batch the engine's own ``check()``
    (where it has one) and a full recompute both validate the index."""
    rng = random.Random(seed)
    base, batches = mixed_batch_stream(rng, 2, 12, 20)
    engine = make_engine(name, DynamicGraph(base), seed=seed)
    for batch in batches:
        engine.apply_batch(batch)
        if hasattr(engine, "check"):
            engine.check()
        assert engine.core_numbers() == core_numbers(engine.graph)


@pytest.mark.parametrize("name", RUN_NATIVE)
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_run_path_matches_per_edge_path(name, seed):
    """Any batch: the run-scheduled path and the per-edge fallback land
    identical net ``changed`` deltas and identical final cores."""
    rng = random.Random(seed)
    base, batches = mixed_batch_stream(rng, 2, 14, 24)
    run_engine = make_engine(name, DynamicGraph(base), seed=0)
    edge_engine = make_engine(name, DynamicGraph(base), seed=0)
    for batch in batches:
        run_result = run_engine.apply_batch(batch)
        edge_result = CoreMaintainer.apply_batch(edge_engine, batch)
        assert run_result.changed == edge_result.changed
        assert run_engine.core_numbers() == edge_engine.core_numbers()
    assert run_engine.core_numbers() == core_numbers(run_engine.graph)


@pytest.mark.parametrize("name", RUN_NATIVE)
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_run_path_agrees_on_homogeneous_batches(name, data):
    """Homogeneous batches (one insertion run or one removal run) land
    the same net deltas and the same final cores on the run path as on
    per-edge application — the single-run special case of the net-delta
    guarantee, exercised at the sizes the amortization aggregate below
    measures."""
    seed = data.draw(st.integers(min_value=0, max_value=2**16), label="seed")
    rng = random.Random(seed)
    n = data.draw(st.integers(min_value=8, max_value=24), label="n")
    m = rng.randrange(n, n * 3)
    base, spare = _random_graph(rng, n, m)
    if data.draw(st.booleans(), label="removal_run"):
        count = min(len(base), data.draw(st.integers(2, 14), label="k"))
        batch = Batch.removes(rng.sample(base, count))
    else:
        count = min(len(spare), data.draw(st.integers(2, 14), label="k"))
        batch = Batch.inserts(spare[:count])
    run_engine = make_engine(name, DynamicGraph(base), seed=0)
    edge_engine = make_engine(name, DynamicGraph(base), seed=0)
    run_result = run_engine.apply_batch(batch)
    edge_result = CoreMaintainer.apply_batch(edge_engine, batch)
    assert run_result.changed == edge_result.changed
    assert run_engine.core_numbers() == edge_engine.core_numbers()
    assert run_engine.core_numbers() == core_numbers(run_engine.graph)


#: Fixed seed pool for the amortization aggregate: large enough that the
#: ~2x aggregate margin dwarfs the rare per-batch fluctuations, small
#: enough to run in well under a second.
_AMORTIZE_SEEDS = range(40)


@pytest.mark.parametrize("name", RUN_NATIVE)
@pytest.mark.parametrize("run_kind", ["remove", "insert"])
def test_run_path_amortizes_homogeneous_batches(name, run_kind):
    """The amortization claim, pinned as a deterministic aggregate: over
    a fixed pool of homogeneous batches, the coalesced run path visits
    no more vertices in total than per-edge application and charges no
    more in total to the family's chargeable counter.

    Deliberately an *aggregate*, not a per-batch bound: a joint removal
    cascade scans each affected level's candidates against the
    batch-start graph, so on rare small batches (~0.2% of random draws)
    it can visit a handful more vertices than per-edge application,
    whose later removals see an already-shrunk graph.  The aggregate
    margin is ~2x on removal runs (and on the default engine's repair
    counter for insertion runs), so this pins the claim that matters
    without flaking on those fluctuations.  Mixed batches are excluded
    on purpose: interleaved runs change intermediate graph states, so
    traversal sizes legitimately differ in both directions there (the
    net-delta equality above is the mixed-batch guarantee).
    """
    key = CHARGEABLE[name]
    run_visited = edge_visited = run_charged = edge_charged = 0
    for seed in _AMORTIZE_SEEDS:
        rng = random.Random(seed)
        n = rng.randrange(8, 25)
        m = rng.randrange(n, n * 3)
        base, spare = _random_graph(rng, n, m)
        count = rng.randrange(2, 15)
        if run_kind == "remove":
            batch = Batch.removes(rng.sample(base, min(len(base), count)))
        else:
            batch = Batch.inserts(spare[: min(len(spare), count)])
        run_engine = make_engine(name, DynamicGraph(base), seed=0)
        edge_engine = make_engine(name, DynamicGraph(base), seed=0)
        run_result = run_engine.apply_batch(batch)
        edge_result = CoreMaintainer.apply_batch(edge_engine, batch)
        assert run_result.changed == edge_result.changed
        run_visited += run_result.visited
        edge_visited += edge_result.visited
        run_charged += run_result.counters.get(key, 0)
        edge_charged += edge_result.counters.get(key, 0)
    assert run_visited <= edge_visited
    assert run_charged <= edge_charged
    if run_kind == "remove":
        # The removal-run amortization is the headline win: the joint
        # cascade roughly halves both totals on this pool.  Guard the
        # margin loosely so a regression to per-edge-shaped work fails.
        assert run_visited < edge_visited
        assert run_charged < edge_charged
