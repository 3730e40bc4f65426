"""Seeded inputs of the three benchmark workloads.

Every workload is described the same way, as a :class:`Inputs`: a
:class:`~repro.scenarios.Scenario` (base edges plus one tick per commit,
so ``repro.scenarios.dumps`` of it is the byte-exact record of what the
server is sent), a read plan, and the serving options.  The seed is the
only source of randomness: the same ``(workload, seed)`` always yields
byte-identical trace bytes, which :func:`Inputs.digest` summarises.

``WORKLOADS`` holds the committed sizes; ``BENCHMARK.json`` repeats each
workload's parameters in its ``why`` line (a test keeps the two equal).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Optional

from repro.core.decomposition import core_numbers
from repro.engine.batch import Batch
from repro.graphs.generators import erdos_renyi_gnm
from repro.graphs.undirected import DynamicGraph
from repro.scenarios import Scenario, Tick, dumps, make_scenario
from repro.scenarios.base import ScenarioBuilder

#: Committed workload sizes.  ``kind`` picks the builder below; every
#: other key is a generator parameter recorded in the run's provenance.
#: ``ingest-batched`` is sized to end before the run's time is up even
#: when the CPU runs slow: cutting it short would drop its cheap tail
#: after the 3-core emergence and swing the figures.
WORKLOADS: dict[str, dict] = {
    "ingest-batched": {
        "kind": "mixed", "scale": 100, "tick_ops": 50, "p": 0.2,
        "base_chunk": 2000, "subscribe": True,
    },
    "trickle-durable": {
        "kind": "sliding-window", "scale": 10, "ticks": 300,
        "arrivals": 12, "window": 10,
    },
    "read-heavy": {
        "kind": "gnm", "n": 4000, "m_per_n": 4, "writes": 100,
        "write_window": 16, "reads_per_commit": 100,
    },
}

#: WAL fsync policy of every workload (the server's default).
FSYNC = "always"

#: Read mix of ``read-heavy``: op -> share of reads.
READ_MIX = (("core", 0.80), ("top", 0.05), ("spectrum", 0.05),
            ("degeneracy", 0.05), ("kcore", 0.05))


@dataclass
class Inputs:
    """One workload's generated input and serving options."""

    workload: str
    seed: int
    params: dict
    scenario: Scenario
    #: Base edges per set-up commit; 0 means the base graph is
    #: bulk-loaded through ``CoreService.open(graph, log=...)`` instead.
    base_chunk: int = 0
    subscribe: bool = False
    reads_per_commit: int = 0
    #: Vertex range and ``kcore`` level of the read plan.
    n_vertices: int = 0
    k_max: int = 0
    base_cores: dict = field(default_factory=dict)

    @property
    def commits(self) -> list[list]:
        """One ``[[kind, u, v], ...]`` op list per commit, in order."""
        return [
            [[op.kind, op.edge[0], op.edge[1]] for op in tick.batch]
            for tick in self.scenario.ticks
        ]

    def trace_bytes(self) -> bytes:
        return dumps(self.scenario)

    def digest(self) -> str:
        """sha256 prefix of the scenario's trace bytes (input identity)."""
        return hashlib.sha256(self.trace_bytes()).hexdigest()[:16]

    def reads(self):
        """The endless seeded read plan: ``(op, params)`` pairs."""
        rng = random.Random(f"reads:{self.seed}")
        ops = [op for op, _ in READ_MIX]
        weights = [share for _, share in READ_MIX]
        while True:
            op = rng.choices(ops, weights)[0]
            if op == "core":
                yield op, {"vertex": rng.randrange(self.n_vertices)}
            elif op == "top":
                yield op, {"n": 10}
            elif op == "kcore":
                yield op, {"k": self.k_max}
            else:
                yield op, {}

    def provenance(self) -> dict:
        inserts, removes = self.scenario.counts()
        return {
            "workload": self.workload,
            "seed": self.seed,
            "params": self.params,
            "base_edges": len(self.scenario.base_edges),
            "commits": self.scenario.n_ticks,
            "ops": self.scenario.n_ops,
            "inserts": inserts,
            "removes": removes,
            "fsync": FSYNC,
            "input_digest": self.digest(),
        }


def split_per_op(scenario: Scenario) -> Scenario:
    """The same op stream with every op in its own tick (commit)."""
    ticks = [
        Tick(float(i), Batch([op]))
        for i, op in enumerate(
            op for tick in scenario.ticks for op in tick.batch
        )
    ]
    return Scenario(
        scenario.name, seed=scenario.seed, params=scenario.params,
        base_edges=scenario.base_edges, ticks=ticks,
    )


def read_heavy_scenario(seed: int, n: int, m_per_n: int, writes: int,
                        write_window: int) -> Scenario:
    """G(n, m_per_n * n) plus single-edge writes: each new random edge is
    removed again ``write_window`` inserts later, so the base graph (and
    its degeneracy) stays in place under the reads."""
    base = erdos_renyi_gnm(n, m_per_n * n, seed=seed)
    builder = ScenarioBuilder(
        "read-heavy", seed=seed,
        params=dict(n=n, m_per_n=m_per_n, writes=writes,
                    write_window=write_window),
        base_edges=base,
    )
    rng = random.Random(f"writes:{seed}")
    recent: list = []
    staged = 0
    t = 0.0
    while staged < writes:
        if len(recent) >= write_window:
            builder.remove(*recent.pop(0))
        else:
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v or not builder.insert(u, v):
                continue
            recent.append((u, v))
        builder.tick(t)
        t += 1.0
        staged += 1
    return builder.build()


def make_inputs(workload: str, seed: int,
                params: Optional[dict] = None) -> Inputs:
    """Build ``workload``'s inputs at ``seed`` (sizes from ``params``,
    default the committed :data:`WORKLOADS` entry)."""
    if workload not in WORKLOADS:
        raise ValueError(
            f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}"
        )
    params = dict(WORKLOADS[workload] if params is None else params)
    kind = params["kind"]
    if kind == "mixed":
        scenario = make_scenario(
            "mixed", seed=seed, scale=params["scale"],
            tick_ops=params["tick_ops"], p=params["p"],
        )
        inputs = Inputs(workload, seed, params, scenario,
                        base_chunk=params["base_chunk"],
                        subscribe=params["subscribe"])
    elif kind == "sliding-window":
        scenario = split_per_op(make_scenario(
            "sliding-window", seed=seed, scale=params["scale"],
            ticks=params["ticks"], arrivals=params["arrivals"],
            window=params["window"],
        ))
        inputs = Inputs(workload, seed, params, scenario)
    elif kind == "gnm":
        scenario = read_heavy_scenario(
            seed, params["n"], params["m_per_n"], params["writes"],
            params["write_window"],
        )
        inputs = Inputs(workload, seed, params, scenario,
                        reads_per_commit=params["reads_per_commit"],
                        n_vertices=params["n"])
    else:
        raise ValueError(f"unknown workload kind {kind!r}")
    inputs.base_cores = core_numbers(DynamicGraph(scenario.base_edges))
    inputs.k_max = max(inputs.base_cores.values(), default=0)
    return inputs
