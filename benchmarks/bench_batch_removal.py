"""Batch-native removal runs vs the per-edge loop.

The removal-side claim of the batch pipeline: a window-expiry batch of E
edges performs O(1) targeted ``mcd`` passes per *run* (the joint cascade
keeps ``mcd`` incrementally exact) instead of one refresh per edge, and
that shows up as wall-clock wins under both sequence backends.  Each
bench asserts the counter collapse outright and the wall-clock win at
meaningful stream lengths (tiny CI smoke scales only record it).

Besides ``benchmark.extra_info``, every bench appends a record to a
``BENCH_batch_removal.json`` artifact (ops/sec plus the per-run
``mcd_recomputations``) so CI keeps a machine-readable perf trajectory;
set ``REPRO_BENCH_ARTIFACT_DIR`` to choose where it lands.
"""

import json
import os
from pathlib import Path

import pytest
from _bench_common import BENCH_SCALE, BENCH_SEED, BENCH_UPDATES, once

from repro.bench.runner import build_engine, run_batches, run_mixed, run_updates
from repro.bench.workloads import make_workload, mixed_batch_workload
from repro.engine.batch import Batch
from repro.graphs.datasets import load_dataset

#: Edges expiring per tick in the window-expiry replay.
WINDOW = int(os.environ.get("REPRO_BENCH_WINDOW", "50"))
#: Below this many update edges, wall-clock asserts are skipped (CI
#: smoke runs are too small for stable timing) but still recorded.
WALL_CLOCK_MIN_OPS = 200

_RECORDS: list[dict] = []


@pytest.fixture(scope="module", autouse=True)
def _emit_artifact():
    """Write the accumulated records once the module's benches finish."""
    _RECORDS.clear()
    yield
    path = (
        Path(os.environ.get("REPRO_BENCH_ARTIFACT_DIR", "."))
        / "BENCH_batch_removal.json"
    )
    path.write_text(
        json.dumps(
            {
                "benchmark": "batch_removal",
                "scale": BENCH_SCALE,
                "updates": BENCH_UPDATES,
                "window": WINDOW,
                "records": _RECORDS,
            },
            indent=2,
        )
    )


def _record(name, sequence, ops, per_edge_s, batched_s, per_edge_mcd,
            batched_mcd, runs):
    entry = {
        "bench": name,
        "sequence": sequence,
        "ops": ops,
        "per_edge_seconds": round(per_edge_s, 6),
        "batched_seconds": round(batched_s, 6),
        "per_edge_ops_per_sec": round(ops / per_edge_s, 1) if per_edge_s else None,
        "batched_ops_per_sec": round(ops / batched_s, 1) if batched_s else None,
        "speedup": round(per_edge_s / batched_s, 3) if batched_s else None,
        "mcd_recomputations_per_edge_path": per_edge_mcd,
        "mcd_recomputations_batched": batched_mcd,
        "runs": runs,
        "mcd_recomputations_per_run": (
            round(batched_mcd / runs, 2) if runs else 0
        ),
    }
    _RECORDS.append(entry)
    return entry


@pytest.mark.parametrize("sequence", ["om", "treap"])
def bench_window_expiry_removal_runs(benchmark, sequence):
    """Window expiry: bulk deletions, the workload the run coalesces."""
    dataset = load_dataset("gowalla", scale=BENCH_SCALE, seed=BENCH_SEED)
    workload = make_workload(dataset, BENCH_UPDATES, seed=BENCH_SEED)
    victims = workload.update_edges
    windows = [
        Batch.removes(victims[i : i + WINDOW])
        for i in range(0, len(victims), WINDOW)
    ]

    def run():
        per_edge = build_engine(
            "order", workload.full_graph(), seed=BENCH_SEED, sequence=sequence
        )
        log = run_updates(per_edge, victims, "remove")
        batched = build_engine(
            "order", workload.full_graph(), seed=BENCH_SEED, sequence=sequence
        )
        results = run_batches(batched, windows)
        assert per_edge.core_numbers() == batched.core_numbers()
        return per_edge, log, batched, results

    per_edge, log, batched, results = once(benchmark, run)
    batched_seconds = sum(r.seconds for r in results)
    entry = _record(
        "window_expiry", sequence, len(victims),
        log.total_seconds, batched_seconds,
        per_edge.mcd_recomputations, batched.mcd_recomputations,
        runs=len(windows),
    )
    benchmark.extra_info.update(entry)
    # The headline counter collapse: per-edge refreshes ~2+|V*| vertices
    # per edge; the joint cascade recomputes only demoted vertices.
    if victims:
        assert batched.mcd_recomputations < per_edge.mcd_recomputations
    if len(victims) >= WALL_CLOCK_MIN_OPS:
        assert batched_seconds < log.total_seconds, (
            f"batch-native removal should beat the per-edge loop: "
            f"{batched_seconds:.3f}s vs {log.total_seconds:.3f}s ({sequence})"
        )


@pytest.mark.parametrize("sequence", ["om", "treap"])
def bench_mixed_stream_with_removal_runs(benchmark, sequence):
    """Mixed insert/remove batches: both sides now coalesce their repair."""
    dataset = load_dataset("gowalla", scale=BENCH_SCALE, seed=BENCH_SEED)
    workload, plan, batches = mixed_batch_workload(
        dataset, BENCH_UPDATES, WINDOW, p=0.4, seed=BENCH_SEED
    )

    def run():
        per_edge = build_engine(
            "order", workload.base_graph(), seed=BENCH_SEED, sequence=sequence
        )
        log = run_mixed(per_edge, plan)
        batched = build_engine(
            "order", workload.base_graph(), seed=BENCH_SEED, sequence=sequence
        )
        results = run_batches(batched, batches)
        assert per_edge.core_numbers() == batched.core_numbers()
        return per_edge, log, batched, results

    per_edge, log, batched, results = once(benchmark, run)
    batched_seconds = sum(r.seconds for r in results)
    removal_runs = sum(1 for r in results if r.removes)
    entry = _record(
        "mixed_stream", sequence, len(plan),
        log.total_seconds, batched_seconds,
        per_edge.mcd_recomputations, batched.mcd_recomputations,
        runs=removal_runs,
    )
    benchmark.extra_info.update(entry)
    if any(r.removes for r in results):
        assert batched.mcd_recomputations < per_edge.mcd_recomputations
    if len(plan) >= WALL_CLOCK_MIN_OPS:
        assert batched_seconds < log.total_seconds
