"""Command-line interface: ``repro <experiment> [options]``.

Examples
--------
List the datasets and their stand-in statistics::

    repro table1

Reproduce the Fig. 2 search-space ratios on three datasets with a larger
update stream::

    repro fig2 --datasets patents,pokec,ca --updates 2000

Run the whole evaluation at double scale::

    repro all --scale 2.0
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.bench import experiments, reporting
from repro.engine.registry import DEFAULT_ENGINE
from repro.graphs.datasets import dataset_names


def _engine_name(value: str) -> str:
    from repro.engine.registry import available_engines, is_engine_name

    if is_engine_name(value):
        return value
    raise argparse.ArgumentTypeError(
        f"unknown engine {value!r}; known: "
        f"{', '.join(available_engines())} (plus any 'trav-<h>', h >= 2)"
    )


def _dataset_list(value: str) -> list[str]:
    names = [n.strip() for n in value.split(",") if n.strip()]
    known = set(dataset_names())
    for name in names:
        if name not in known:
            raise argparse.ArgumentTypeError(
                f"unknown dataset {name!r}; known: {', '.join(sorted(known))}"
            )
    return names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the experiments of 'A Fast Order-Based "
        "Approach for Core Maintenance' (ICDE 2017).",
    )
    parser.add_argument(
        "experiment",
        choices=[
            "list", "table1", "table2", "table3",
            "fig1", "fig2", "fig5", "fig9", "fig10", "fig11", "fig12",
            "ablation", "batch", "validate", "recover", "log-stat",
            "serve", "gen", "replay", "all",
        ],
        help="which table/figure (or utility) to run",
    )
    parser.add_argument(
        "--engine", default=DEFAULT_ENGINE, type=_engine_name,
        help="engine registry name for 'batch'/'validate' "
        "(order, order-om, order-treap, order-large, order-random, "
        "order-simplified, naive, trav-<h>)",
    )
    parser.add_argument(
        "--batch-size", type=int, default=100,
        help="batch: ops per batch in the batched replay",
    )
    parser.add_argument(
        "--mix", type=float, default=0.2,
        help="batch: probability of a removal after each insertion",
    )
    parser.add_argument(
        "--datasets",
        type=_dataset_list,
        default=None,
        help="comma-separated dataset names (default: all 11)",
    )
    parser.add_argument(
        "--updates", type=int, default=experiments.DEFAULT_UPDATES,
        help="update edges per dataset (paper: 100000)",
    )
    parser.add_argument(
        "--hops", type=lambda s: tuple(int(h) for h in s.split(",")),
        default=(2, 3), help="traversal hop counts, e.g. 2,3,4,5,6",
    )
    parser.add_argument(
        "--scale", type=float, default=None,
        help="dataset size multiplier (default: REPRO_SCALE or 1.0)",
    )
    parser.add_argument(
        "--log", default=None, metavar="PATH",
        help="recover/log-stat: path to a write-ahead commit log",
    )
    parser.add_argument(
        "--compact", action="store_true",
        help="recover: snapshot the recovered state and truncate the log",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="recover/log-stat: machine-readable JSON on stdout",
    )
    parser.add_argument(
        "--host", default="127.0.0.1",
        help="serve: bind address (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, default=0,
        help="serve: TCP port (default 0 = pick a free port)",
    )
    parser.add_argument(
        "--log-dir", default=None, metavar="DIR",
        help="serve: directory for per-session commit logs (durable, "
        "recoverable sessions; omit for memory-only sessions)",
    )
    parser.add_argument(
        "--fsync", default="always", choices=["always", "interval", "never"],
        help="serve: WAL fsync policy for session logs",
    )
    parser.add_argument(
        "--max-seconds", type=float, default=None,
        help="serve: stop after this many seconds (default: run forever)",
    )
    parser.add_argument(
        "--scenario", default=None, metavar="NAME",
        help="gen: scenario family to generate (see repro.scenarios; "
        "e.g. burst, sliding-window, flash-crowd, relabel-storm, "
        "shard-merge-storm, mixed)",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="gen: write the trace here (default: stdout, for piping "
        "into 'repro replay')",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="replay: read the trace here (default: stdin)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="replay: verify the trace end to end, replay it across "
        "--engines asserting identical per-tick core maps, and — for a "
        "registered scenario family — regenerate from the header and "
        "assert the bytes match",
    )
    parser.add_argument(
        "--engines", default="order,order-simplified", metavar="NAMES",
        help="replay --check: comma-separated engine list that must "
        "agree (default: order,order-simplified)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--groups", type=int, default=10, help="fig12: number of groups"
    )
    parser.add_argument(
        "--group-size", type=int, default=100, help="fig12: edges per group"
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    names = args.datasets or list(dataset_names())
    common = dict(scale=args.scale, seed=args.seed)

    if args.experiment == "list":
        rows = experiments.table1(names, scale=args.scale, seed=args.seed)
        print(reporting.render_table1(rows))
        return 0
    if args.experiment == "table1":
        print(reporting.render_table1(
            experiments.table1(names, **common)))
        return 0
    if args.experiment in ("fig1", "fig2"):
        results = [
            experiments.insertion_visits(n, args.updates, **common)
            for n in names
        ]
        renderer = (
            reporting.render_fig1
            if args.experiment == "fig1"
            else reporting.render_fig2
        )
        print(renderer(results))
        return 0
    if args.experiment == "fig5":
        pair = args.datasets or ["patents", "orkut"]
        print(reporting.render_fig5(
            [experiments.fig5(n, **common) for n in pair]))
        return 0
    if args.experiment == "fig9":
        print(reporting.render_fig9(
            [experiments.fig9(n, args.updates, **common) for n in names]))
        return 0
    if args.experiment == "fig10":
        print(reporting.render_fig10(
            [experiments.fig10a(n, **common) for n in names],
            "core CDF"))
        print()
        print(reporting.render_fig10(
            [experiments.fig10b(n, args.updates, **common) for n in names],
            "K CDF"))
        return 0
    if args.experiment == "table2":
        print(reporting.render_table2([
            experiments.table2(n, args.updates, args.hops, **common)
            for n in names
        ]))
        return 0
    if args.experiment == "table3":
        print(reporting.render_table3(
            [experiments.table3(n, args.hops, **common) for n in names]))
        return 0
    if args.experiment == "fig11":
        trio = args.datasets or ["patents", "orkut", "livejournal"]
        print(reporting.render_fig11([
            experiments.fig11(n, n_updates=args.updates, **common)
            for n in trio
        ]))
        return 0
    if args.experiment == "fig12":
        target = (args.datasets or ["patents"])[0]
        print(reporting.render_fig12([
            experiments.fig12(
                target, args.groups, args.group_size, p, **common
            )
            for p in (0.0, 0.1, 0.2)
        ]))
        return 0
    if args.experiment == "ablation":
        from repro.bench.reporting import format_table

        rows = []
        for name in names:
            result = experiments.ablation_jump(name, args.updates, **common)
            rows.append(
                [
                    name,
                    result.visited,
                    result.scanned,
                    result.steps_saved,
                    f"{result.jump_seconds:.3f}",
                    f"{result.scan_seconds:.3f}",
                ]
            )
        print(
            format_table(
                ["dataset", "|V+|", "scan steps", "steps saved",
                 "jump s", "scan s"],
                rows,
            )
        )
        return 0
    if args.experiment == "batch":
        targets = args.datasets or ["patents", "gowalla", "ca"]
        engines = ["order", "trav-2", "naive"]
        if args.engine not in engines:
            engines.append(args.engine)
        print(reporting.render_batch([
            experiments.batch_throughput(
                n, args.updates, args.batch_size, p=args.mix,
                engines=engines, **common,
            )
            for n in targets
        ]))
        return 0
    if args.experiment == "validate":
        from repro.analysis.validation import validate_maintainer
        from repro.bench.workloads import make_workload
        from repro.graphs.datasets import load_dataset
        from repro.service import CoreService

        from repro.bench.runner import run_updates

        failures = 0
        for name in names:
            dataset = load_dataset(name, scale=args.scale, seed=args.seed)
            workload = make_workload(dataset, args.updates, seed=args.seed)
            service = CoreService.open(
                workload.base_graph(), engine=args.engine, seed=args.seed
            )
            # Per-edge replay on service.engine on purpose: validate
            # exercises the paper's per-edge OrderInsert/OrderRemoval
            # paths, which the batch pipeline's coalesced runs bypass.
            run_updates(service.engine, workload.update_edges, "insert")
            run_updates(
                service.engine,
                list(reversed(workload.update_edges)),
                "remove",
            )
            report = validate_maintainer(service.engine)
            status = "ok" if report.ok else "FAILED"
            print(f"{name}: {status}")
            if not report.ok:
                failures += 1
        return 1 if failures else 0
    if args.experiment in ("recover", "log-stat"):
        # Exit codes (scriptable health checks): 0 clean log, 3 torn
        # tail (recoverable: crash mid-append), 4 corruption beyond the
        # tail (LogCorruptionError), 1 other failures, 2 usage error.
        if not args.log:
            print(
                f"{args.experiment}: --log PATH is required", file=sys.stderr
            )
            return 2
        import json as _json

        from repro.errors import LogCorruptionError, ServiceError
        from repro.service import CoreService, log_stat

        if args.experiment == "log-stat":
            try:
                stat = log_stat(args.log)
            except LogCorruptionError as exc:
                if args.json:
                    print(_json.dumps(
                        {"path": args.log, "error": str(exc),
                         "corrupt": True}
                    ))
                print(f"log-stat: {exc}", file=sys.stderr)
                return 4
            except (OSError, ServiceError) as exc:
                print(f"log-stat: {exc}", file=sys.stderr)
                return 1
            if args.json:
                print(_json.dumps(stat))
            else:
                for key, value in stat.items():
                    print(f"{key}: {value}")
            return 3 if stat["torn_bytes"] else 0
        try:
            service = CoreService.recover(args.log)
        except LogCorruptionError as exc:
            if args.json:
                print(_json.dumps(
                    {"path": args.log, "error": str(exc), "corrupt": True}
                ))
            print(f"recover: {exc}", file=sys.stderr)
            return 4
        except (OSError, ServiceError) as exc:
            print(f"recover: {exc}", file=sys.stderr)
            return 1
        report = service.recovery
        if args.json:
            payload = {
                "path": args.log,
                "engine": service.engine.name,
                "replayed": report.replayed,
                "skipped": report.skipped,
                "torn_bytes": report.torn_bytes,
                "from_snapshot": report.from_snapshot,
                "vertices": service.engine.graph.n,
                "edges": service.engine.graph.m,
                "degeneracy": service.engine.degeneracy(),
            }
            if args.compact:
                payload["snapshot"] = str(service.compact())
            print(_json.dumps(payload))
            service.close()
            return 3 if report.torn_bytes else 0
        print(f"recovered: {args.log}")
        print(f"engine: {service.engine.name}")
        print(
            f"replayed: {report.replayed}  skipped: {report.skipped}  "
            f"torn bytes: {report.torn_bytes}  "
            f"from snapshot: {report.from_snapshot}"
        )
        print(
            f"graph: {service.engine.graph.n} vertices, "
            f"{service.engine.graph.m} edges, "
            f"degeneracy {service.engine.degeneracy()}"
        )
        if args.compact:
            snapshot = service.compact()
            print(f"compacted: snapshot at {snapshot}")
        service.close()
        return 3 if report.torn_bytes else 0
    if args.experiment == "serve":
        import asyncio

        from repro.service import CoreServer

        async def _serve() -> int:
            async with CoreServer(
                engine=args.engine,
                seed=args.seed,
                log_dir=args.log_dir,
                fsync=args.fsync,
            ) as server:
                host, port = await server.start(args.host, args.port)
                durability = (
                    f"log_dir={args.log_dir} fsync={args.fsync}"
                    if args.log_dir
                    else "memory-only (no --log-dir: crashes degrade "
                    "sessions permanently)"
                )
                print(
                    f"repro serve: listening on {host}:{port} "
                    f"(engine={args.engine}, {durability})",
                    flush=True,
                )
                try:
                    if args.max_seconds is not None:
                        await asyncio.sleep(args.max_seconds)
                    else:
                        await asyncio.Event().wait()
                except asyncio.CancelledError:
                    pass
            return 0

        try:
            return asyncio.run(_serve())
        except KeyboardInterrupt:
            return 0
    if args.experiment == "gen":
        import json as _json

        from repro import scenarios as sc
        from repro.errors import ScenarioError

        if not args.scenario:
            print(
                "gen: --scenario NAME is required (known: "
                f"{', '.join(sc.available_scenarios())})",
                file=sys.stderr,
            )
            return 2
        try:
            scenario = sc.make_scenario(
                args.scenario, seed=args.seed, scale=args.scale or 1.0
            )
        except ScenarioError as exc:
            print(f"gen: {exc}", file=sys.stderr)
            return 2
        written = sc.record(scenario, args.out or sys.stdout.buffer)
        summary = dict(
            scenario.describe(), bytes=written, target=args.out or "<stdout>"
        )
        if args.json and args.out:
            print(_json.dumps(summary))
        else:
            # stdout may be carrying the trace — the summary goes to
            # stderr so 'repro gen | repro replay' pipes stay clean.
            print(
                f"gen: {scenario.name} seed={scenario.seed} "
                f"ticks={scenario.n_ticks} ops={scenario.n_ops} "
                f"bytes={written} -> {summary['target']}",
                file=sys.stderr,
            )
        return 0
    if args.experiment == "replay":
        import json as _json
        from pathlib import Path

        from repro import scenarios as sc
        from repro.engine.registry import is_engine_name
        from repro.errors import ScenarioError, TraceError

        # Exit codes (scriptable, mirroring recover/log-stat): 0 ok,
        # 2 usage error, 4 bad trace bytes, 5 replay disagreement.
        try:
            if args.trace:
                data = Path(args.trace).read_bytes()
                origin = repr(args.trace)
            else:
                data = sys.stdin.buffer.read()
                origin = "<stdin>"
        except OSError as exc:
            print(f"replay: {exc}", file=sys.stderr)
            return 1
        try:
            scenario = sc.loads(data, origin=origin)
        except TraceError as exc:
            print(f"replay: {exc}", file=sys.stderr)
            return 4
        if args.check:
            engines = [
                e.strip() for e in args.engines.split(",") if e.strip()
            ]
        else:
            engines = [args.engine]
        bad = [e for e in engines if not is_engine_name(e)]
        if bad or not engines:
            print(
                f"replay: unknown engines {', '.join(bad) or '(none)'}",
                file=sys.stderr,
            )
            return 2
        try:
            reports = sc.replay_all(
                scenario, engines, seed=args.seed, check=args.check
            )
        except ScenarioError as exc:
            print(f"replay: {exc}", file=sys.stderr)
            return 5
        if args.check and scenario.name in sc.SCENARIOS:
            regenerated = sc.make_scenario(
                scenario.name, seed=scenario.seed, **scenario.params
            )
            if sc.dumps(regenerated) != data:
                print(
                    f"replay: trace bytes do not match regenerating "
                    f"{scenario.name!r} with seed {scenario.seed}",
                    file=sys.stderr,
                )
                return 5
        primary = reports[engines[0]]
        if args.json:
            payload = primary.summary()
            payload["engines"] = engines
            payload["checked"] = bool(args.check)
            print(_json.dumps(payload))
        else:
            s = primary.summary()
            checked = (
                f" (agreement across {', '.join(engines)} checked)"
                if args.check
                else ""
            )
            print(
                f"replay: {s['scenario']} via {s['engine']}: "
                f"{s['ticks']} ticks, {s['ops']} ops "
                f"({s['inserts']} ins / {s['removes']} rm) in "
                f"{s['elapsed_seconds']:.3f}s — "
                f"{s['ops_per_second']:.0f} ops/s, final digest "
                f"{s['final_digest']}{checked}"
            )
        return 0
    if args.experiment == "all":
        results = experiments.run_all(
            names, args.updates, args.hops, **common
        )
        print(reporting.render_table1(results["table1"]))
        print()
        print(reporting.render_fig1(results["fig1_fig2"]))
        print()
        print(reporting.render_fig2(results["fig1_fig2"]))
        print()
        print(reporting.render_fig5(results["fig5"]))
        print()
        print(reporting.render_fig9(results["fig9"]))
        print()
        print(reporting.render_fig10(results["fig10a"], "core CDF"))
        print()
        print(reporting.render_fig10(results["fig10b"], "K CDF"))
        print()
        print(reporting.render_table2(results["table2"]))
        print()
        print(reporting.render_table3(results["table3"]))
        print()
        print(reporting.render_fig11(results["fig11"]))
        print()
        print(reporting.render_fig12(results["fig12"]))
        print()
        print(f"total: {results['elapsed_seconds']:.1f}s")
        return 0
    return 1  # pragma: no cover - argparse guards choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
