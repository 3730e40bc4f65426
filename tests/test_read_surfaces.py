"""Every read surface answers every query op like the full-scan oracles.

Reads are served from a :class:`~repro.analysis.kcore_views.CoreLevels`
index kept current from each commit's net deltas, on three surfaces:
the healthy primary, the degraded session's last-good state, and the
log-tailing replica.  Over seeded random commit streams on both order
families, each surface's answer to each of the six ops (``core``,
``cores``, ``top``, ``spectrum``, ``degeneracy``, ``kcore``) must equal
the :mod:`repro.analysis.kcore_views` functions over a from-scratch
decomposition of everything committed.
"""

import asyncio
import random

import pytest

from repro.analysis import kcore_views
from repro.analysis.kcore_views import CoreLevels, KCoreView
from repro.core.decomposition import core_numbers
from repro.engine.batch import Batch, normalize_edge, vertex_sort_key
from repro.graphs.undirected import DynamicGraph
from repro.service import (
    CoreClient,
    CoreServer,
    CoreService,
    RetryAfterError,
    ServerLimits,
)
from repro.service.server import DEGRADED, HEALTHY
from repro.testing.faults import FaultPlan, InjectedFault

FAMILIES = ["order", "order-simplified"]
SEEDS = [0, 1, 2]
#: Mixed int/str vertices; the str ones sort after every int.
VERTICES = [0, 1, 2, 3, 4, 5, 6, "a", "b", "c", "d", "e"]


def random_stream(seed, commits=14):
    """Valid batches over ``VERTICES`` plus, every few commits, a fresh
    vertex pair inserted and removed in the same batch (new at core 0)."""
    rng = random.Random(seed)
    present = set()
    stream = []
    for i in range(commits):
        ops = []
        for _ in range(rng.randint(1, 6)):
            edge = normalize_edge(*rng.sample(VERTICES, 2))
            if edge in present and rng.random() < 0.4:
                present.discard(edge)
                ops.append(("remove", edge))
            elif edge not in present:
                present.add(edge)
                ops.append(("insert", edge))
        if i % 4 == 1:
            fresh = (100 + i, f"n{i}")
            ops += [("insert", fresh), ("remove", fresh)]
        stream.append(ops)
    return stream


def expected(op, params, cores):
    """The wire answer the oracles give for ``op`` over ``cores``."""
    if op == "core":
        return cores.get(params["vertex"])
    if op == "cores":
        return sorted(
            ([v, c] for v, c in cores.items()),
            key=lambda pair: vertex_sort_key(pair[0]),
        )
    if op == "top":
        return [list(p) for p in kcore_views.top_cores(cores, params["n"])]
    if op == "spectrum":
        return sorted(
            ([k, n] for k, n in kcore_views.core_spectrum(cores).items()),
            key=lambda pair: vertex_sort_key(pair[0]),
        )
    if op == "degeneracy":
        return kcore_views.degeneracy(cores)
    return sorted(
        kcore_views.k_core_vertices(cores, params["k"]), key=vertex_sort_key
    )


def queries(cores):
    """Every op, at the edge cases: n > |V|, kcore(0), k > degeneracy."""
    top = kcore_views.degeneracy(cores)
    yield "cores", {}
    yield "spectrum", {}
    yield "degeneracy", {}
    for vertex in (0, "a", "zz", 101):
        yield "core", {"vertex": vertex}
    for n in (0, 1, 3, len(cores) + 5):
        yield "top", {"n": n}
    for k in sorted({0, 1, 2, top, top + 1}):
        yield "kcore", {"k": k}


def apply_ops(graph, ops):
    for kind, (u, v) in ops:
        if kind == "insert":
            graph.add_edge(u, v)
        else:
            graph.remove_edge(u, v)


async def check_surfaces(client, session, cores):
    """Primary, forced-degraded and replica answers against the oracle."""
    for op, params in queries(cores):
        want = expected(op, params, cores)
        primary = await client.query(op, **params)
        assert primary["source"] == "primary"
        assert primary["result"] == want, (op, params)
        replica = await client.query(op, replica=True, **params)
        assert replica["source"] == "replica"
        assert replica["result"] == want, (op, params, "replica")
        session.state = DEGRADED
        try:
            degraded = await client.query(op, **params)
        finally:
            session.state = HEALTHY
        assert degraded["source"] == "last_good"
        assert degraded["result"] == want, (op, params, "last_good")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("engine", FAMILIES)
def test_every_surface_matches_the_oracles(tmp_path, engine, seed):
    async def scenario():
        limits = ServerLimits(recovery_delay=30)
        async with CoreServer(
            engine=engine, log_dir=tmp_path, fsync="never", limits=limits
        ) as server:
            host, port = await server.start()
            client = await CoreClient.connect(host, port, session="t")
            session = await server.get_session("t")
            graph = DynamicGraph()
            await check_surfaces(client, session, {})  # the empty graph
            for ops in random_stream(seed):
                await client.commit(
                    [(kind, u, v) for kind, (u, v) in ops]
                )
                apply_ops(graph, ops)
                await check_surfaces(client, session, core_numbers(graph))
            # A real poisoning: the second run of a mixed batch dies
            # after the first mutated the engine.  Degraded reads still
            # answer the last committed state.
            last_good = core_numbers(graph)
            removal = next(iter(graph.edges()))
            with FaultPlan().crash("engine.mid_batch", hits=2):
                with pytest.raises(RetryAfterError):
                    await client.commit(
                        [("remove", *removal), ("insert", "x", "y")],
                        retry=False,
                    )
            assert session.state == DEGRADED
            for op, params in queries(last_good):
                reply = await client.query(op, **params)
                assert reply["source"] == "last_good"
                assert reply["result"] == expected(op, params, last_good)
            await client.close()

    asyncio.run(asyncio.wait_for(scenario(), 120))


@pytest.mark.parametrize("engine", FAMILIES)
def test_poisoned_service_reads_the_last_good_state(engine):
    """The library-level contract degraded serving builds on."""
    svc = CoreService.open(
        [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)], engine=engine
    )
    before = svc.cores()
    top, spectrum = svc.top(10), svc.spectrum()
    with FaultPlan().crash("engine.mid_batch", hits=2):
        with pytest.raises(InjectedFault):
            svc.apply(Batch().remove(0, 1).insert(0, 5))
    assert svc.poisoned
    assert svc.engine.core[0] != before[0]  # the removal run landed
    assert svc.cores() == before
    assert svc.top(10) == top and svc.spectrum() == spectrum
    assert svc.core(5, default=None) is None
    assert svc.kcore(2).sorted() == [0, 1, 2, 3, 4]


class TestCoreLevels:
    def test_random_commits_match_the_oracles(self):
        rng = random.Random(7)
        for engine in FAMILIES:
            svc = CoreService.open(engine=engine)
            levels = CoreLevels()
            for ops in random_stream(rng.randrange(10**6), commits=25):
                batch = Batch(ops)
                levels.commit(svc.apply(batch).deltas, batch.vertices())
                cores = svc.engine.core_numbers()
                assert levels.cores() == cores
                assert levels.spectrum() == kcore_views.core_spectrum(cores)
                assert levels.degeneracy() == kcore_views.degeneracy(cores)
                for n in (1, 4, len(cores) + 1):
                    assert levels.top(n) == kcore_views.top_cores(cores, n)
                for k in range(levels.degeneracy() + 2):
                    want = kcore_views.k_core_vertices(cores, k)
                    view = levels.kcore(k)
                    assert view.sorted() == sorted(want, key=vertex_sort_key)
                    assert set(view) == want and len(view) == len(want)

    def test_empty_index(self):
        levels = CoreLevels()
        assert levels.top(5) == [] and levels.spectrum() == {}
        assert levels.degeneracy() == 0 and len(levels) == 0
        assert levels.kcore(0).sorted() == [] and not levels.kcore(0)
        assert levels.core("v", None) is None
        with pytest.raises(KeyError):
            levels.core("v")

    def test_emptied_levels_disappear_and_caches_drop(self):
        levels = CoreLevels({"a": 1, "b": 1, "c": 2})
        assert levels.top(3) == [("c", 2), ("a", 1), ("b", 1)]
        levels.commit({"c": -1})
        assert levels.spectrum() == {1: 3} and levels.degeneracy() == 1
        assert levels.top(3) == [("a", 1), ("b", 1), ("c", 1)]
        levels.commit({"a": 2}, ["a", "z"])
        assert levels.top(2) == [("a", 3), ("b", 1)]
        assert levels.kcore(0).sorted() == ["a", "b", "c", "z"]
        assert levels.top(0) == [] and levels.top(-1) == []

    def test_a_view_without_an_index_sorts_by_scanning(self):
        view = KCoreView({3: 2, "x": 2, 1: 1}, 2)
        assert view.sorted() == [3, "x"] and len(view) == 2
