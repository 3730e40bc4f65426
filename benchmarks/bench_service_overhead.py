"""Façade overhead: ``CoreService`` commits vs raw ``apply_batch``.

The service façade wraps every batch in a commit (receipt minting, net
delta capture, event construction, subscriber dispatch).  That wrapper
must stay in the noise: the acceptance bar is the façade within 5% of
raw ``apply_batch`` throughput on the mixed-batch workload.  Each bench
replays the same batch stream through a bare engine and through a
service session (best of ``REPLAYS`` replays each, interleaved, to damp
scheduler noise), asserts identical final cores, and — at meaningful
stream lengths — asserts the 5% bound outright.

A second bench drives the sliding-window monitor at the temporal
stream's natural tick granularity (``TemporalEdgeStream.ticks``), the
end-to-end path where every same-tick arrival lands as one batch: one
service commit per arrival tick plus one per expiry flush.

A third bench prices the served reads — ``top(10)``, ``spectrum``,
``degeneracy`` and the sorted ``kcore(k_max)`` through ``CoreService``
— on G(n, 4n) at n=20k and n=100k (scaled with ``REPRO_BENCH_SCALE``
relative to its 0.5 default), next to the full-scan
:mod:`repro.analysis.kcore_views` functions the service answered with
before it kept a level index.

Every bench appends a record to a ``BENCH_service_overhead.json``
artifact so CI keeps a machine-readable trajectory of the façade cost;
set ``REPRO_BENCH_ARTIFACT_DIR`` to choose where it lands.
"""

import json
import os
import statistics
import time
from pathlib import Path

import pytest
from _bench_common import BENCH_SCALE, BENCH_SEED, BENCH_UPDATES, once

from repro.analysis import kcore_views
from repro.bench.runner import build_engine, build_service
from repro.bench.workloads import mixed_batch_workload
from repro.engine.batch import vertex_sort_key
from repro.engine.registry import DEFAULT_ENGINE
from repro.graphs.datasets import load_dataset
from repro.graphs.generators import erdos_renyi_gnm
from repro.graphs.undirected import DynamicGraph
from repro.streaming import SlidingWindowCoreMonitor

#: Ops per batch in the mixed-batch replay.
BATCH_SIZE = int(os.environ.get("REPRO_BENCH_BATCH", "50"))
#: Replays per side; the minimum is kept, interleaved raw/façade.
REPLAYS = int(os.environ.get("REPRO_BENCH_REPLAYS", "3"))
#: Below this many ops the 5% wall-clock assert is skipped (CI smoke
#: scales are too small for stable timing) but still recorded.
WALL_CLOCK_MIN_OPS = 200
#: The acceptance bound: façade within 5% of raw apply_batch.
OVERHEAD_BOUND = 1.05

#: G(n, 4n) sizes of the read-cost bench: 20k and 100k at the default
#: scale (0.5), shrunk proportionally at smaller scales.
READ_SIZES = tuple(
    max(500, int(n * BENCH_SCALE / 0.5)) for n in (20_000, 100_000)
)
#: Timed calls per read and path; the median is kept.
READ_REPS = 15

_RECORDS: list[dict] = []


@pytest.fixture(scope="module", autouse=True)
def _emit_artifact():
    """Write the accumulated records once the module's benches finish."""
    _RECORDS.clear()
    yield
    path = (
        Path(os.environ.get("REPRO_BENCH_ARTIFACT_DIR", "."))
        / "BENCH_service_overhead.json"
    )
    path.write_text(
        json.dumps(
            {
                "benchmark": "service_overhead",
                "scale": BENCH_SCALE,
                "updates": BENCH_UPDATES,
                "batch_size": BATCH_SIZE,
                "replays": REPLAYS,
                "bound": OVERHEAD_BOUND,
                "records": _RECORDS,
            },
            indent=2,
        )
    )


def _replay_raw(workload, batches):
    engine = build_engine("order", workload.base_graph(), seed=BENCH_SEED)
    started = time.perf_counter()
    for batch in batches:
        engine.apply_batch(batch)
    return engine, time.perf_counter() - started


def _replay_service(workload, batches, subscriber_count=0):
    service = build_service("order", workload.base_graph(), seed=BENCH_SEED)
    sinks = [[] for _ in range(subscriber_count)]
    for sink in sinks:
        service.subscribe(sink.append)
    started = time.perf_counter()
    for batch in batches:
        service.apply(batch)
    return service, time.perf_counter() - started


def _record(name, ops, raw_s, facade_s, extra=None):
    entry = {
        "bench": name,
        "ops": ops,
        "raw_seconds": round(raw_s, 6),
        "facade_seconds": round(facade_s, 6),
        "raw_ops_per_sec": round(ops / raw_s, 1) if raw_s else None,
        "facade_ops_per_sec": round(ops / facade_s, 1) if facade_s else None,
        "overhead_ratio": round(facade_s / raw_s, 4) if raw_s else None,
    }
    if extra:
        entry.update(extra)
    _RECORDS.append(entry)
    return entry


@pytest.mark.parametrize("subscribers", [0, 1])
def bench_service_vs_raw_mixed_batches(benchmark, subscribers):
    """The acceptance workload: mixed batches, raw engine vs façade."""
    dataset = load_dataset("gowalla", scale=BENCH_SCALE, seed=BENCH_SEED)
    workload, plan, batches = mixed_batch_workload(
        dataset, BENCH_UPDATES, BATCH_SIZE, p=0.3, seed=BENCH_SEED
    )

    def run():
        raw_best = facade_best = float("inf")
        engine = service = None
        # Interleave the replays so drift hits both sides equally.
        for _ in range(REPLAYS):
            engine, raw_s = _replay_raw(workload, batches)
            service, facade_s = _replay_service(
                workload, batches, subscriber_count=subscribers
            )
            raw_best = min(raw_best, raw_s)
            facade_best = min(facade_best, facade_s)
        assert engine.core_numbers() == service.cores(), (
            "façade replay diverged from raw apply_batch"
        )
        return raw_best, facade_best

    raw_s, facade_s = once(benchmark, run)
    entry = _record(
        f"mixed_batches_subs{subscribers}", len(plan), raw_s, facade_s,
        extra={"subscribers": subscribers, "batches": len(batches)},
    )
    benchmark.extra_info.update(entry)
    if len(plan) >= WALL_CLOCK_MIN_OPS and subscribers == 0:
        assert facade_s <= raw_s * OVERHEAD_BOUND, (
            f"façade overhead {facade_s / raw_s:.3f}x exceeds "
            f"{OVERHEAD_BOUND}x: {facade_s:.3f}s vs {raw_s:.3f}s"
        )


def bench_monitor_tick_replay(benchmark):
    """The tick-granularity window path: one commit per arrival tick.

    Replays a temporal stream through the sliding-window monitor with
    same-tick arrivals batched by ``TemporalEdgeStream.ticks`` — the
    end-to-end shape the ROADMAP's observe_many item asks for — and
    records how far below one-commit-per-edge the tick batching lands.
    """
    dataset = load_dataset("facebook", scale=BENCH_SCALE, seed=BENCH_SEED)
    stream = dataset.stream()
    tick = max(1.0, len(stream) / max(1, BENCH_UPDATES))
    window = tick * 40

    def run():
        monitor = SlidingWindowCoreMonitor(window=window)
        for t, edges in stream.ticks(every=tick):
            monitor.observe_many(edges, t)
        monitor.drain()
        return monitor

    monitor = once(benchmark, run)
    commits = monitor.service.last_receipt.receipt_id
    ticks = sum(1 for _ in stream.ticks(every=tick))
    entry = {
        "bench": "monitor_tick_replay",
        "edges": len(stream),
        "arrival_ticks": ticks,
        "service_commits": commits,
        "arrivals": monitor.stats.arrivals,
        "expiries": monitor.stats.expiries,
        "promotions": monitor.stats.promotions,
        "demotions": monitor.stats.demotions,
    }
    _RECORDS.append(entry)
    benchmark.extra_info.update(entry)
    # Every tick's arrivals land as ONE batch: at most one insert commit
    # per tick plus the expiry commits, never one per edge.
    assert monitor.stats.arrivals == len(stream)
    assert commits <= 2 * ticks + 1


def _median_ms(fn, reps=READ_REPS, before=None):
    """Median wall time of ``fn()`` in ms; ``before()`` runs untimed
    ahead of each call."""
    times = []
    for _ in range(reps):
        if before is not None:
            before()
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1000


@pytest.mark.parametrize("n", READ_SIZES)
def bench_read_cost(benchmark, n):
    """Served reads from the level index vs the full-scan oracles.

    ``index_ms`` repeats each read on an unchanged graph (the per-level
    sort cache holds).  ``after_churn_ms`` first churns the top level:
    it removes and re-inserts an edge of a top-level vertex with exactly
    ``k_max`` neighbours in the top core (the max core always has one,
    or the next core up would be non-empty), two single-edge commits
    that drop it below ``k_max`` and back, so the read re-sorts that
    level.
    ``scan_ms`` is the oracle over the engine's core map, which is what
    ``CoreService`` served before.
    """
    graph = DynamicGraph(erdos_renyi_gnm(n, 4 * n, seed=BENCH_SEED))
    service = build_service(DEFAULT_ENGINE, graph, seed=BENCH_SEED)
    core = service.engine.core
    k_max = service.degeneracy()
    edge = next(
        (v, next(w for w in graph.adj[v] if core[w] == k_max))
        for v in service.kcore(k_max)
        if sum(core[w] == k_max for w in graph.adj[v]) == k_max
    )

    def churn():
        service.remove(*edge)
        service.insert(*edge)

    reads = {
        "top10": (
            lambda: service.top(10),
            lambda: kcore_views.top_cores(core, 10),
        ),
        "spectrum": (
            service.spectrum,
            lambda: kcore_views.core_spectrum(core),
        ),
        "degeneracy": (
            service.degeneracy,
            lambda: kcore_views.degeneracy(core),
        ),
        "kcore_kmax_sorted": (
            lambda: service.kcore(k_max).sorted(),
            lambda: sorted(
                kcore_views.KCoreView(core, k_max), key=vertex_sort_key
            ),
        ),
    }

    def run():
        rows = {}
        for name, (served, scan) in reads.items():
            assert served() == scan(), name
            rows[name] = {
                "index_ms": round(_median_ms(served), 4),
                "after_churn_ms": round(
                    _median_ms(served, before=churn), 4
                ),
                "scan_ms": round(_median_ms(scan), 4),
            }
            assert served() == scan(), name
        rows["churn_2commits"] = {"index_ms": round(_median_ms(churn), 4)}
        return rows

    rows = once(benchmark, run)
    entry = {"bench": f"read_cost_n{n}", "n": n, "m": 4 * n,
             "k_max": k_max, "reads": rows}
    _RECORDS.append(entry)
    benchmark.extra_info.update(entry)
