"""Scenario-engine throughput: every workload family, head to head.

Each registered scenario family (:mod:`repro.scenarios.generators`)
replays through ``CoreService`` on the engine matrix — the paper's
order-based engine and the Guo–Sekerinski simplified variant — and
every replay pair must checkpoint
identical per-tick core maps (the agreement check is part of the bench,
so a perf artifact can never come from diverging answers).  A final
bench measures the trace format itself: record + verify + load of the
largest generated stream.

Scale knobs: ``REPRO_BENCH_SCALE`` multiplies the scenario sizes and
``REPRO_BENCH_TICKS`` the tick counts.  Every bench appends a record to
a ``BENCH_scenarios.json`` artifact; set ``REPRO_BENCH_ARTIFACT_DIR``
to choose where it lands.
"""

import json
import os
import time
from pathlib import Path

import pytest
from _bench_common import BENCH_SCALE, BENCH_SEED

from repro import scenarios as sc

#: Tick-count multiplier for the generated streams.
BENCH_TICKS = int(os.environ.get("REPRO_BENCH_TICKS", "24"))

#: The agreement matrix every family replays across.
ENGINES = ("order", "order-simplified")

_RECORDS: list[dict] = []


@pytest.fixture(scope="module", autouse=True)
def _emit_artifact():
    """Write the accumulated records once the module's benches finish."""
    _RECORDS.clear()
    yield
    path = (
        Path(os.environ.get("REPRO_BENCH_ARTIFACT_DIR", "."))
        / "BENCH_scenarios.json"
    )
    path.write_text(
        json.dumps(
            {
                "benchmark": "scenarios",
                "scale": BENCH_SCALE,
                "ticks": BENCH_TICKS,
                "engines": list(ENGINES),
                "records": _RECORDS,
            },
            indent=2,
        )
    )


def _bench_params(name: str) -> dict:
    """Per-family knobs scaled to the bench tick budget."""
    return {
        "burst": dict(ticks=BENCH_TICKS),
        "sliding-window": dict(ticks=BENCH_TICKS),
        "flash-crowd": dict(waves=max(2, BENCH_TICKS // 8)),
        "relabel-storm": dict(ticks=BENCH_TICKS),
        "shard-merge-storm": dict(cycles=max(2, BENCH_TICKS // 4)),
        "mixed": dict(),
    }[name]


def _scenario(name: str) -> sc.Scenario:
    return sc.make_scenario(
        name, seed=BENCH_SEED, scale=BENCH_SCALE, **_bench_params(name)
    )


@pytest.mark.parametrize("name", sorted(sc.SCENARIOS))
def bench_scenario_family(benchmark, name):
    """Replay one family across the engine matrix, agreement-checked."""
    scenario = _scenario(name)

    def run():
        return sc.replay_all(scenario, ENGINES, seed=BENCH_SEED, check=True)

    reports = benchmark.pedantic(run, rounds=1, iterations=1)
    entry = {
        "bench": "scenario_family",
        "scenario": name,
        "ticks": scenario.n_ticks,
        "ops": scenario.n_ops,
        "base_edges": len(scenario.base_edges),
        "final_digest": reports[ENGINES[0]].checkpoints[-1].digest,
        "engines": {
            engine: {
                "seconds": round(report.elapsed, 6),
                "ops_per_sec": round(report.ops_per_second, 1),
            }
            for engine, report in reports.items()
        },
    }
    _RECORDS.append(entry)
    benchmark.extra_info.update(
        ops=entry["ops"],
        order_ops_per_sec=entry["engines"]["order"]["ops_per_sec"],
    )


def bench_trace_format(benchmark, tmp_path):
    """Record + verify + load cost of the biggest generated stream."""
    scenario = max(
        (_scenario(name) for name in sc.SCENARIOS),
        key=lambda s: s.n_ops,
    )
    path = tmp_path / "bench.trace"

    def run():
        started = time.perf_counter()
        written = sc.record(scenario, path)
        recorded = time.perf_counter()
        sc.verify(path)
        verified = time.perf_counter()
        loaded = sc.load(path)
        done = time.perf_counter()
        assert loaded == scenario
        return {
            "bytes": written,
            "record_seconds": round(recorded - started, 6),
            "verify_seconds": round(verified - recorded, 6),
            "load_seconds": round(done - verified, 6),
        }

    timings = benchmark.pedantic(run, rounds=1, iterations=1)
    _RECORDS.append(
        {
            "bench": "trace_format",
            "scenario": scenario.name,
            "ops": scenario.n_ops,
            **timings,
        }
    )
    benchmark.extra_info.update(timings)
