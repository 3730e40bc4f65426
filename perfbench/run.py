"""Served end-to-end benchmark of the core-maintenance service.

Usage, from the repository root::

    python3 perfbench/run.py --workload ingest-batched --seed 1 \
        --seconds 10 --trace 0

The benchmark starts ``perfbench/serve.py`` (a ``CoreServer`` with
per-tenant write-ahead logs under ``.perfbench_work/``) as its own
process and drives it over loopback from one asyncio closed loop: one
caller sends a request and waits for the reply before sending the next.
``ingest-batched`` adds a subscriber connection that streams every core
event.  Workloads and their sizes are in :mod:`inputs`; the rationale is
in ``perfbench/README.md``.

A run pins itself and the server to one CPU, then replays a whole
stream of the workload :data:`REPLAYS` times, each time with its own
input (seeded from ``--seed``, see :func:`replay_seed`) on a freshly
set-up server (``setup_s`` is the median set-up).  A replay stops early
only when it reaches ``--seconds``; the committed sizes make the
replays together take about that long.  Every end-to-end timing is
scaled to a fixed reference speed of the CPU, timed between requests
(:mod:`calib`), so that a shared host's drifting CPU speed does not
move the figures.  Then the run checks the served answers
against in-process replays and oracles.  A failed check prints the
mismatches, no metrics, and exits 1.  Otherwise the run prints every
metric by name and unit, the input provenance, and as its last line the
JSON result: the end-to-end metrics with ``--trace 0``; with
``--trace 1`` one untraced and one traced replay (spans recorded in the
server process, see :mod:`tracing`) give the per-layer metrics and the
tracing overhead.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TENANT = "bench"
#: Untraced replays per run, each of its own input on its own set-up;
#: ``setup_s`` is the median set-up, the other timings pool the replays.
REPLAYS = 3
#: Reads after every this many commits are checked against the oracle.
READ_SAMPLE_EVERY = 10

sys.path.insert(0, str(HERE))


@dataclass
class Pass:
    """Raw results of one set-up and one replay of the stream."""

    inputs: object = None
    #: ``(start, seconds)`` of the set-up and of its bulk load.
    setup_s: list = field(default_factory=list)
    snapshot_write_s: list = field(default_factory=list)
    committed: list = field(default_factory=list)
    changed: int = 0
    sent_at: dict = field(default_factory=dict)
    receipt_token: dict = field(default_factory=dict)
    events: list = field(default_factory=list)
    arrival: dict = field(default_factory=dict)
    dropped: int = 0
    read_samples: list = field(default_factory=list)
    final_cores: dict = field(default_factory=dict)
    status: dict = field(default_factory=dict)
    server_stats: dict = field(default_factory=dict)
    wal_bytes: int = 0
    rss_mb: float = 0.0
    spans_path: Path | None = None
    recorder: object = None
    problems: list = field(default_factory=list)

    @property
    def ops(self) -> int:
        """Edge ops committed in the measured loop."""
        return sum(len(ops) for ops in self.committed)

    @property
    def answered(self) -> int:
        """Requests (commits and reads) that succeeded."""
        return sum(len(v) for v in self.recorder.latencies.values())


class ServerProcess:
    """``serve.py`` as a child process; stopped by closing its stdin."""

    def __init__(self, workdir: Path, trace: bool) -> None:
        self.workdir = workdir
        self.log_dir = workdir / "logs"
        self.report = workdir / "server.json"
        self.spans = workdir / "spans.jsonl" if trace else None
        self.proc = None
        self.port = None

    async def start(self) -> int:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        cmd = [sys.executable, str(HERE / "serve.py"),
               "--log-dir", str(self.log_dir), "--report", str(self.report)]
        if self.spans is not None:
            cmd += ["--trace", str(self.spans)]
        self.proc = await asyncio.create_subprocess_exec(
            *cmd, cwd=str(ROOT), env=env,
            stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
        )
        try:
            line = await asyncio.wait_for(self.proc.stdout.readline(), 60)
            if not line.startswith(b"READY "):
                raise RuntimeError(f"server did not start: {line!r}")
        except BaseException:
            await self.halt()
            raise
        self.port = int(line.split()[1])
        return self.port

    async def halt(self):
        """Close stdin and wait for the exit (kill after 60 s); the exit
        code, or ``None`` when nothing runs."""
        proc, self.proc = self.proc, None
        if proc is None:
            return None
        proc.stdin.close()
        try:
            await asyncio.wait_for(proc.wait(), 60)
        except asyncio.TimeoutError:
            proc.kill()
            await proc.wait()
        return proc.returncode

    async def stop(self) -> dict:
        """:meth:`halt`, then the server's report."""
        code = await self.halt()
        if code != 0 or not self.report.exists():
            raise RuntimeError(f"server exited with {code}")
        return json.loads(self.report.read_text())


async def set_up(inputs, workdir: Path, trace: bool, run: Pass, clock):
    """One timed set-up: fresh logs, (bulk load,) server spawn, base
    graph; ends when the tenant answers with the base graph's spectrum."""
    from repro.analysis.kcore_views import core_spectrum
    from repro.graphs.undirected import DynamicGraph
    from repro.service import CoreService
    from repro.service.client import CoreClient

    from inputs import FSYNC

    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    server = ServerProcess(workdir, trace)
    base = inputs.scenario.base_edges
    clock.tick()
    started = time.perf_counter()
    if base and not inputs.base_chunk:
        # Bulk load as an operator would: a logged session over the base
        # graph (its snapshot is written here), recovered by the server
        # on the tenant's first request.
        server.log_dir.mkdir()
        t = time.perf_counter()
        CoreService.open(
            DynamicGraph(base), log=server.log_dir / f"{TENANT}.wal",
            fsync=FSYNC,
        ).close()
        run.snapshot_write_s.append((t, time.perf_counter() - t))
        clock.tick()
    port = await server.start()
    try:
        client = await CoreClient.connect("127.0.0.1", port, session=TENANT)
        if base and inputs.base_chunk:
            for i in range(0, len(base), inputs.base_chunk):
                if clock.due():
                    clock.tick()
                chunk = base[i:i + inputs.base_chunk]
                await client.commit([["insert", u, v] for u, v in chunk],
                                    token=f"base-{i}", retry=False)
        spectrum = await client.spectrum()
    except BaseException:
        await server.halt()
        raise
    run.setup_s.append((started, time.perf_counter() - started))
    clock.tick()
    if spectrum != core_spectrum(inputs.base_cores):
        run.problems.append(
            f"after set-up the tenant's spectrum is {spectrum}, "
            f"the base graph's {core_spectrum(inputs.base_cores)}"
        )
    return server, client


async def subscribe(port: int, run: Pass):
    """The subscriber connection; its task appends every event."""
    from repro.service.client import CoreClient

    from serve import SUBSCRIBER_BUFFER

    client = await CoreClient.connect("127.0.0.1", port, session=TENANT)
    stream = await client.subscribe(buffer=SUBSCRIBER_BUFFER)

    async def consume():
        async for batch in stream:
            now = time.perf_counter()
            if batch.kind == "reset":
                run.problems.append("subscriber got a reset frame")
                continue
            run.dropped = batch.dropped
            for event in batch.events:
                run.events.append(event)
                run.arrival[event[3]] = now

    return client, stream, asyncio.create_task(consume())


async def drive(inputs, client, seconds: float, run: Pass, clock) -> None:
    """The closed loop: commit, then ``reads_per_commit`` reads, until
    the stream ends, or the time is up and every reported percentile
    has its samples.  Between requests, every ``calib.EVERY`` seconds, it times
    the reference loop (after the subscriber has caught up, so the
    server is idle)."""
    from stats import Recorder, min_samples

    rec = run.recorder = Recorder()
    reads = inputs.reads() if inputs.reads_per_commit else None
    need = min_samples(90)

    async def calibrate():
        if clock.due():
            if inputs.subscribe:
                await wait_for_events(run, timeout=1.0)
            clock.tick()

    started = time.perf_counter()
    deadline = started + seconds
    for i, ops in enumerate(inputs.commits):
        if time.perf_counter() >= deadline and i >= need:
            break
        await calibrate()
        token = f"m-{i}"
        run.sent_at[token] = time.perf_counter()
        summary = await rec.call(
            "commit", token, client.commit(ops, token=token, retry=False)
        )
        if summary is not None:
            run.committed.append(ops)
            run.changed += len(summary["changed"])
            run.receipt_token[summary["receipt_id"]] = token
        sampled = i % READ_SAMPLE_EVERY == 0
        for j in range(inputs.reads_per_commit):
            await calibrate()
            op, params = next(reads)
            rid = f"r-{i}-{j}"
            reply = await rec.call(
                op, rid, client.query(op, rid=rid, **params)
            )
            if reply is not None and sampled:
                run.read_samples.append(
                    (len(run.committed), op, params, reply["result"])
                )
    clock.tick()


async def wait_for_events(run: Pass, timeout: float = 30.0) -> None:
    until = time.perf_counter() + timeout
    while len(run.events) < run.changed and time.perf_counter() < until:
        await asyncio.sleep(0.01)


async def measured_pass(inputs, seconds: float, trace: bool,
                        workdir: Path, clock) -> Pass:
    """Set up, replay the stream, shut down."""
    from repro.service.wal import log_stat

    run = Pass(inputs=inputs)
    server, client = await set_up(inputs, workdir, trace, run, clock)
    try:
        sub = None
        if inputs.subscribe:
            sub = await subscribe(server.port, run)
        wal = server.log_dir / f"{TENANT}.wal"
        wal_before = log_stat(wal)["bytes"]
        await drive(inputs, client, seconds, run, clock)
        run.wal_bytes = log_stat(wal)["bytes"] - wal_before
        if sub is not None:
            sub_client, stream, task = sub
            await wait_for_events(run)
            await stream.close()
            await task
            await sub_client.close()
        run.final_cores = await client.cores()
        run.status = await client.status()
        run.server_stats = await client.server_stats()
        await client.close()
    except BaseException:
        await server.halt()
        raise
    report = await server.stop()
    run.rss_mb = report["peak_rss_mb"]
    run.spans_path = server.spans
    return run


def gate(passes: list) -> list:
    """Every correctness check of every pass; the list of mismatches.

    Passes that committed the same ops of the same input must end on the
    same core map, so the in-process replay and the oracle run once per
    distinct stream.
    """
    problems = []
    checked: list = []
    for run in passes:
        same = next((cores for inputs, committed, cores in checked
                     if inputs is run.inputs and committed == run.committed),
                    None)
        if same is None:
            problems += gate_pass(run.inputs, run, final=True)
            checked.append((run.inputs, run.committed, run.final_cores))
        else:
            problems += gate_pass(run.inputs, run, final=False)
            if run.final_cores != same:
                problems.append("two replays of the same commits ended "
                                "on different core maps")
    return problems


def gate_pass(inputs, run: Pass, final: bool) -> list:
    """The checks of one pass; ``final`` adds the final core map's."""
    import gate as checks

    problems = list(run.problems)
    if final:
        problems += checks.check_final_cores(
            inputs, run.committed, run.final_cores
        )
    if inputs.subscribe:
        problems += checks.check_events(
            inputs.base_cores, run.final_cores, run.events, run.changed,
            run.dropped,
        )
    if inputs.reads_per_commit:
        problems += checks.check_reads(
            inputs, run.committed, run.read_samples
        )
    problems += run.recorder.check_against_server(
        run.server_stats["shed"], run.status["deadline_expired"]
    )
    return problems


def scaled_latencies(run: Pass, clock) -> dict:
    """``op -> [seconds]``: the pass's round trips at reference speed."""
    rec = run.recorder
    return {
        op: [clock.scaled(rec.started[rid], s) for rid, s in pairs]
        for op, pairs in rec.latencies.items()
    }


def scaled_rate(run: Pass, clock) -> float:
    """Requests answered per second of their round trips, at reference
    speed."""
    return run.answered / sum(
        sum(v) for v in scaled_latencies(run, clock).values()
    )


def end_to_end(passes: list, clock) -> dict:
    """The end-to-end metrics of the untraced passes, pooled over the
    passes and scaled to reference speed (:mod:`calib`), plus the
    workload-specific ones (``detail``).  Rates are requests over the
    sum of their round trips."""
    from stats import percentile

    inputs = passes[0].inputs
    latencies: dict = {}
    for run in passes:
        for op, values in scaled_latencies(run, clock).items():
            latencies.setdefault(op, []).extend(values)
    busy = sum(sum(v) for v in latencies.values())
    answered = sum(len(v) for v in latencies.values())

    def ms(op):
        return [s * 1000 for s in latencies.get(op, ())]

    commit_ms = ms("commit")
    metrics = {
        "setup_s": (statistics.median(
            clock.scaled(*t) for run in passes for t in run.setup_s), "s"),
        "updates_per_s": (sum(run.ops for run in passes) / busy, "1/s"),
        "requests_per_s": (answered / busy, "1/s"),
        "commit_p50_ms": (percentile(commit_ms, 50), "ms"),
        "server_rss_mb": (statistics.median(
            run.rss_mb for run in passes), "MB"),
    }
    attempted = sum(run.recorder.attempted for run in passes)
    raw_busy = sum(s for run in passes
                   for pairs in run.recorder.latencies.values()
                   for _, s in pairs)
    detail = {
        "commits": (len(commit_ms), "count"),
        "replays": (len(passes), "count"),
        "wall.requests_per_s": (answered / raw_busy, "1/s"),
        "calib.ref_ms.p50": (statistics.median(clock.seconds) * 1000, "ms"),
        "commit_p90_ms": (percentile(commit_ms, 90), "ms"),
        "failed_frac": (
            sum(run.recorder.failed for run in passes) / attempted, "ratio"),
    }
    if inputs.subscribe:
        lag = [
            clock.scaled(run.sent_at[t], run.arrival[r] - run.sent_at[t])
            * 1000
            for run in passes for r, t in run.receipt_token.items()
            if r in run.arrival
        ]
        detail["event_p50_ms"] = (percentile(lag, 50), "ms")
        detail["events.dropped"] = (
            sum(run.dropped for run in passes), "count")
    if inputs.reads_per_commit:
        reads = answered - len(commit_ms)
        detail["reads_per_s"] = (reads / busy, "1/s")
        for op in ("core", "top", "spectrum", "degeneracy", "kcore"):
            detail[f"{op}_p50_ms"] = (percentile(ms(op), 50), "ms")
        detail["core_p90_ms"] = (percentile(ms("core"), 90), "ms")
    snapshot = [clock.scaled(*t) for run in passes
                for t in run.snapshot_write_s]
    if snapshot:
        detail["snapshot.write_s"] = (statistics.median(snapshot), "s")
    return {"metrics": metrics, "detail": detail}


def per_layer(run: Pass, untraced: Pass, clock) -> dict:
    """Per-layer metrics of a traced pass (see ``perfbench/README.md``);
    span times are wall-clock, the overhead compares scaled rates."""
    import tracing
    from stats import percentile

    inputs = run.inputs

    spans = tracing.load(run.spans_path)
    own = tracing.self_seconds(spans)
    rtt = {rid: s for op in run.recorder.latencies
           for rid, s in run.recorder.latencies[op]}

    def durations(name, *, self_time=False):
        return [
            (own[i] if self_time else s.seconds) * 1000
            for i, s in enumerate(spans)
            if s.name == name and s.rid in rtt
        ]

    def p50(values):
        return percentile(values, 50)

    server_side = {}
    for s in spans:
        if s.name in ("session.apply", "session.query") and s.rid in rtt:
            server_side[s.rid] = s.seconds
    commit_rids = {rid for rid, _ in run.recorder.latencies["commit"]}
    engine = [s for s in spans
              if s.name == "engine.apply" and s.rid in commit_rids]
    ops = run.ops
    counters = {}
    for s in engine:
        for key, value in s.attrs.items():
            counters[key] = counters.get(key, 0) + value
    untraced_rate = scaled_rate(untraced, clock)
    traced_rate = scaled_rate(run, clock)
    metrics = {
        "wire.commit_ms.p50": (p50([
            (rtt[r] - server_side[r]) * 1000
            for r in commit_rids if r in server_side
        ]), "ms"),
        "session.self_ms.p50": (
            p50(durations("session.apply", self_time=True)), "ms"),
        "batch.validate_ms.p50": (p50(durations("batch.validate")), "ms"),
        "wal.append_ms.p50": (
            p50(durations("wal.append", self_time=True)), "ms"),
        "wal.fsync_ms.p50": (p50(durations("wal.fsync")), "ms"),
        "wal.bytes_per_op": (run.wal_bytes / ops, "B"),
        "engine.apply_ms.p50": (p50(durations("engine.apply")), "ms"),
        "engine.busy_s": (sum(s.seconds for s in engine), "s"),
        "engine.candidate_visits_per_op": (
            counters.get("candidate_visits", 0) / ops, "count"),
        "sequence.order_queries_per_op": (
            counters.get("order_queries", 0) / ops, "count"),
        "sequence.relabels_per_op": (
            counters.get("relabels", 0) / ops, "count"),
        "events.per_commit": (run.changed / len(run.committed), "count"),
        "server.shed": (run.server_stats["shed"], "count"),
        "server.deadline_expired": (run.status["deadline_expired"], "count"),
        "failed_frac": (run.recorder.failed_frac, "ratio"),
        "trace.overhead_frac": (untraced_rate / traced_rate - 1, "ratio"),
    }
    detail = {}
    if inputs.subscribe:
        detail["events.materialize_ms.p50"] = (
            p50(durations("events.materialize")), "ms")
        # The subscriber's pump runs outside any request: every take of
        # the pass counts (the subscription starts after set-up).
        detail["events.take_ms.p50"] = (p50([
            s.seconds * 1000 for s in spans if s.name == "events.take"
        ]), "ms")
        detail["events.dropped"] = (run.dropped, "count")
    if inputs.reads_per_commit:
        read_rids = {r for r in rtt if r.startswith("r-")}
        detail["wire.read_ms.p50"] = (p50([
            (rtt[r] - server_side[r]) * 1000
            for r in read_rids if r in server_side
        ]), "ms")
        detail["session.query_self_ms.p50"] = (
            p50(durations("session.query", self_time=True)), "ms")
        for op in ("core", "top", "spectrum", "degeneracy", "kcore"):
            # One read's time in its view, summed over its spans (kcore
            # has two: building the view and iterating it).
            per_read: dict = {}
            for s in spans:
                if s.name == f"kcore_views.{op}" and s.rid in read_rids:
                    per_read[s.rid] = per_read.get(s.rid, 0.0) + s.seconds
            detail[f"kcore_views.{op}_ms.p50"] = (
                p50([v * 1000 for v in per_read.values()]), "ms")
        recover = [s.seconds for s in spans if s.name == "snapshot.recover"]
        detail["snapshot.recover_s"] = (statistics.median(recover), "s")
        detail["snapshot.write_s"] = (
            statistics.median(s for _, s in run.snapshot_write_s), "s")
    return {"metrics": metrics, "detail": detail}


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count()}


def emit(result: dict, provenance: dict, passes: list) -> dict:
    """Print every metric by name and unit; return the result JSON."""
    from repro.scenarios import core_digest

    for section in ("metrics", "detail"):
        for name, (value, unit) in result[section].items():
            print(f"{name} = {value:.6g} {unit}")
    failures: dict = {}
    for run in passes:
        for kind, n in run.recorder.failures.items():
            failures[kind] = failures.get(kind, 0) + n
    attempted = sum(run.recorder.attempted for run in passes)
    shared = ("workload", "params", "fsync")
    replays = []
    for run in passes:
        own = {k: v for k, v in run.inputs.provenance().items()
               if k not in shared}
        replays.append(dict(own, final_digest=core_digest(run.final_cores)))
    provenance = dict(provenance, replays=replays, attempted=attempted,
                      failures=failures)
    print("provenance " + json.dumps(provenance, sort_keys=True))
    return {
        "correct": True,
        "attempted": attempted,
        "failed": sum(failures.values()),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }


def replay_seed(seed: int, replay: int) -> int:
    """The input seed of replay ``replay`` of a run at ``seed``.  Each
    replay gets its own input, so that a run averages over several draws
    of the generator: on ``ingest-batched`` one draw's kernel work per
    op ranges over a third of its median from seed to seed."""
    return seed * REPLAYS + replay


async def benchmark(workload: str, seed: int, seconds: float,
                    trace: bool, params=None) -> int:
    """One run; ``params`` overrides the committed sizes (tests)."""
    from calib import Calibration
    from inputs import FSYNC, make_inputs

    if trace:
        # Traced and untraced replay share their input.
        first = make_inputs(workload, replay_seed(seed, 0), params)
        plan = [(first, False), (first, True)]
    else:
        plan = [(make_inputs(workload, replay_seed(seed, r), params), False)
                for r in range(REPLAYS)]
    provenance = dict(workload=workload, seed=seed, params=plan[0][0].params,
                      fsync=FSYNC, **environment(), seconds=seconds,
                      trace=int(trace))
    workdir = WORK / f"{workload}-{os.getpid()}"
    clock = Calibration()
    provenance["cpu"] = clock.pin()
    try:
        passes = [await measured_pass(inputs, seconds, traced, workdir, clock)
                  for inputs, traced in plan]
        problems = gate(passes)
        if problems:
            print("correctness gate FAILED:")
            for problem in problems:
                print(f"  {problem}")
            return 1
        if trace:
            result = per_layer(passes[1], passes[0], clock)
            final = emit(result, provenance, passes[1:])
        else:
            result = end_to_end(passes, clock)
            final = emit(result, provenance, passes)
    finally:
        clock.unpin()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(final))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Served end-to-end benchmark (see perfbench/README.md)"
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from inputs import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    return asyncio.run(
        benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    )


if __name__ == "__main__":
    sys.exit(main())
