"""The benchmark's server process: one ``CoreServer`` over loopback.

Usage (from the repository root, with ``src`` importable)::

    python perfbench/serve.py --log-dir DIR --report FILE [--trace SPANS]

Prints ``READY <port>`` once it listens and serves until its standard
input closes (so it also ends when the benchmark dies).  Then it closes
the server and writes its peak resident set size (``VmHWM``) to
``FILE``; with ``--trace``, also the spans of the layer calls listed in
:mod:`tracing`, which are wrapped before the server starts.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
from inputs import FSYNC  # noqa: E402

#: Large enough that one subscriber never drops an event of one commit.
SUBSCRIBER_BUFFER = 1 << 22


def peak_rss_mb() -> float:
    """This process's ``VmHWM``.  (``ru_maxrss`` would not do: Linux
    carries the forking parent's peak over into it across ``exec``.)"""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


async def serve(args, store) -> None:
    from repro.service.server import CoreServer, ServerLimits

    limits = ServerLimits(subscriber_buffer=SUBSCRIBER_BUFFER)
    async with CoreServer(log_dir=args.log_dir, fsync=FSYNC,
                          limits=limits) as server:
        _, port = await server.start("127.0.0.1", 0)
        print(f"READY {port}", flush=True)
        await asyncio.to_thread(sys.stdin.buffer.read)
    if store is not None:
        store.dump(args.trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--log-dir", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args(argv)
    store = None
    if args.trace:
        store = tracing.SpanStore()
        tracing.install(store)
    asyncio.run(serve(args, store))
    Path(args.report).write_text(json.dumps({"peak_rss_mb": peak_rss_mb()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
