"""Tests of the benchmark itself.

Run from the repository root (not part of the repository's test suite)::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import asyncio
import contextlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import gate  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from repro.core.decomposition import core_numbers  # noqa: E402
from repro.graphs.undirected import DynamicGraph  # noqa: E402
from repro.service import protocol  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

#: Sizes small enough for a smoke run, large enough for every percentile.
TINY = {
    "ingest-batched": dict(inputs.WORKLOADS["ingest-batched"], scale=1,
                           tick_ops=1, base_chunk=50),
    "trickle-durable": dict(inputs.WORKLOADS["trickle-durable"], scale=1,
                            ticks=30, arrivals=4, window=3),
    "read-heavy": dict(inputs.WORKLOADS["read-heavy"], n=150, writes=120,
                       reads_per_commit=10),
}


# -- percentile helper --------------------------------------------------

def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert stats.percentile(samples, 50) == 50
    assert stats.percentile(samples, 90) == 90
    assert stats.percentile(reversed(samples), 90) == 90


@pytest.mark.parametrize("q, enough", [(50, 20), (90, 100), (99, 1000)])
def test_percentile_refuses_fewer_than_ten_samples_beyond(q, enough):
    assert stats.min_samples(q) == enough
    stats.percentile(range(enough), q)
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(range(enough - 1), q)


# -- failure accounting -------------------------------------------------

async def _ok():
    return "fine"


async def _refused(err_type):
    """A request the server answered with an ``err_type`` failure frame."""
    protocol.raise_remote_error({"type": err_type, "message": "injected",
                                 "retry_after_ms": 50})


async def _dropped():
    raise protocol.ConnectionClosedError("injected")


def test_failed_frac_counts_injected_refusals_once():
    rec = stats.Recorder()

    async def drive():
        await rec.call("commit", "a", _ok())
        await rec.call("commit", "b", _refused(protocol.ERR_RETRY_AFTER))
        await rec.call("commit", "c", _refused(protocol.ERR_DEADLINE))
        await rec.call("core", "d", _dropped())
        assert await rec.call("core", "e", _ok()) == "fine"

    asyncio.run(drive())
    assert rec.attempted == 5
    assert rec.failures == {"shed": 1, "deadline": 1, "error": 1}
    assert rec.failed_frac == pytest.approx(3 / 5)
    assert [rid for rid, _ in rec.latencies["commit"]] == ["a"]
    assert rec.check_against_server(1, 1) == []
    assert len(rec.check_against_server(0, 1)) == 1
    assert len(rec.check_against_server(2, 0)) == 2


def test_server_refusals_are_counted_once_and_match_its_counters(tmp_path):
    from repro.service.client import CoreClient

    async def drive():
        server = run.ServerProcess(tmp_path, trace=False)
        port = await server.start()
        try:
            client = await CoreClient.connect("127.0.0.1", port,
                                              session=run.TENANT)
            rec = stats.Recorder()
            await rec.call("commit", "m-0", client.commit(
                [["insert", 1, 2]], token="m-0", retry=False))
            # A zero deadline is refused before admission.
            await rec.call("commit", "m-1", client.commit(
                [["insert", 2, 3]], token="m-1", deadline=0, retry=False))
            status = await client.status()
            shed = (await client.server_stats())["shed"]
            await client.close()
        finally:
            await server.stop()
        return rec, shed, status["deadline_expired"]

    rec, shed, expired = asyncio.run(drive())
    assert (rec.attempted, rec.failures) == (2, {"deadline": 1})
    assert rec.check_against_server(shed, expired) == []


# -- correctness gate ---------------------------------------------------

def _small_inputs():
    return inputs.make_inputs("trickle-durable", 3,
                              TINY["trickle-durable"])


def _final_cores(inp, committed):
    graph = DynamicGraph(inp.scenario.base_edges)
    for ops in committed:
        gate.apply_ops(graph, ops)
    return core_numbers(graph)


def test_gate_passes_on_the_true_cores_and_trips_on_a_wrong_digest():
    inp = _small_inputs()
    committed = inp.commits[:60]
    cores = _final_cores(inp, committed)
    assert gate.check_final_cores(inp, committed, cores) == []
    wrong = dict(cores)
    vertex = next(iter(wrong))
    wrong[vertex] += 1
    problems = gate.check_final_cores(inp, committed, wrong)
    assert problems and "digests differ" in problems[0]


def test_event_gate_trips_on_lost_dropped_or_wrong_events():
    base = {1: 1, 2: 1, 3: 0}
    final = {1: 2, 2: 2, 3: 0}
    events = [(1, 1, 2, 5), (2, 1, 2, 5)]
    assert gate.check_events(base, final, events, 2, 0) == []
    assert gate.check_events(base, final, events[:1], 2, 0)
    assert gate.check_events(base, final, events, 2, 1)
    assert gate.check_events(base, final, [(1, 1, 3, 5), events[1]], 2, 0)


def test_read_gate_trips_on_a_wrong_answer():
    inp = inputs.make_inputs("read-heavy", 2, TINY["read-heavy"])
    committed = inp.commits[:5]
    cores = _final_cores(inp, committed)
    samples = [
        (5, op, params, gate.expected_answer(op, params, cores))
        for op, params in (("top", {"n": 10}), ("spectrum", {}),
                           ("degeneracy", {}), ("kcore", {"k": 2}),
                           ("core", {"vertex": 3}))
    ]
    assert gate.check_reads(inp, committed, samples) == []
    writes, op, params, answer = samples[0]
    bad = samples[1:] + [(writes, op, params, answer[1:])]
    assert len(gate.check_reads(inp, committed, bad)) == 1


# -- inputs and spans ---------------------------------------------------

@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_inputs_are_byte_identical_per_seed(workload):
    a = inputs.make_inputs(workload, 5, TINY[workload])
    b = inputs.make_inputs(workload, 5, TINY[workload])
    c = inputs.make_inputs(workload, 6, TINY[workload])
    assert a.trace_bytes() == b.trace_bytes()
    assert a.trace_bytes() != c.trace_bytes()
    assert a.digest() == a.provenance()["input_digest"]


def test_self_time_subtracts_child_spans():
    spans = [
        tracing.Span("outer", 0.0, 10.0, None, "r"),
        tracing.Span("a", 1.0, 3.0, 0, "r"),
        tracing.Span("b", 5.0, 9.0, 0, "r"),
        tracing.Span("c", 6.0, 7.0, 2, "r"),
    ]
    assert tracing.self_seconds(spans) == [4.0, 2.0, 3.0, 1.0]


def test_store_records_parents_and_inherited_request_ids():
    store = tracing.SpanStore()
    inner = store.wrap("inner", lambda: 1)
    outer = store.wrap("outer", lambda token: inner(),
                       rid_of=lambda args, kwargs: kwargs["token"])
    assert outer(token="m-1") == 1
    names = [(s.name, s.parent, s.rid) for s in store.spans]
    assert names == [("outer", None, "m-1"), ("inner", 0, "m-1")]


# -- BENCHMARK.json and smoke runs --------------------------------------

def test_benchmark_json_names_the_workloads_and_their_parameters():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        inputs.WORKLOADS
    )
    for entry in BENCHMARK["workloads"]:
        params = inputs.WORKLOADS[entry["name"]]
        for key, value in params.items():
            assert re.search(rf"\b{key}={value}\b", entry["why"]), (
                entry["name"], key
            )


def _smoke(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = asyncio.run(run.benchmark(
            workload, 1, 0.2, trace, params=TINY[workload]
        ))
    lines = out.getvalue().strip().splitlines()
    assert code == 0, lines
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_smoke_run_prints_every_end_to_end_metric(workload):
    lines, result = _smoke(workload, False)
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 100
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    provenance = json.loads(
        next(x for x in lines if x.startswith("provenance "))[11:]
    )
    assert provenance["workload"] == workload
    assert [r["input_digest"] for r in provenance["replays"]] == [
        inputs.make_inputs(workload, run.replay_seed(1, r),
                           TINY[workload]).digest()
        for r in range(run.REPLAYS)
    ]


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_traced_smoke_run_prints_every_per_layer_metric(workload):
    lines, result = _smoke(workload, True)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_a_failed_gate_prints_no_metrics_and_exits_1(monkeypatch):
    monkeypatch.setattr(gate, "check_final_cores",
                        lambda *args: ["injected mismatch"])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = asyncio.run(run.benchmark(
            "trickle-durable", 1, 0.2, False,
            params=TINY["trickle-durable"],
        ))
    assert code == 1
    assert "injected mismatch" in out.getvalue()
    assert " = " not in out.getvalue() and "{" not in out.getvalue()


def test_without_sources_the_command_fails_and_prints_no_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload",
         "trickle-durable", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


# -- reference-speed scaling ---------------------------------------------

def test_scaled_time_uses_the_median_reference_around_it():
    clock = calib.Calibration()
    clock.at = [0.0, 0.1, 0.2, 5.0]
    clock.seconds = [0.002, 0.004, 0.003, 0.0005]
    # The three timings within WINDOW of [0.1, 0.3] have median 3 ms.
    assert clock.scaled(0.1, 0.2) == pytest.approx(0.2 * 0.001 / 0.003)
    # None within WINDOW: the nearest one is used.
    assert clock.factor(3.5, 3.6) == pytest.approx(0.001 / 0.0005)
    assert clock.factor(1.0, 1.1) == pytest.approx(0.001 / 0.003)


def test_reference_loop_reads_new_positions_and_is_timed_when_due():
    a, b = calib.Calibration(), calib.Calibration()
    assert a.reference() == b.reference()
    assert a._position == b._position != 1
    clock = calib.Calibration()
    assert clock.due()
    clock.tick()
    assert not clock.due() and len(clock.seconds) == 1
    assert clock.seconds[0] > 0
    with pytest.raises(ValueError):
        calib.Calibration().factor(0.0, 1.0)
