"""The correctness gate every run passes before it prints a metric.

Each check returns a list of mismatch descriptions; an empty list means
the served answers agree with independent in-process computations.
"""

from __future__ import annotations

from repro.analysis import kcore_views
from repro.core.decomposition import core_numbers
from repro.engine.batch import Batch, vertex_sort_key
from repro.graphs.undirected import DynamicGraph
from repro.scenarios import core_digest
from repro.service import CoreService


def apply_ops(graph: DynamicGraph, ops) -> None:
    for kind, u, v in ops:
        if kind == "insert":
            graph.add_edge(u, v)
        else:
            graph.remove_edge(u, v)


def check_final_cores(inputs, committed: list[list], served: dict) -> list:
    """The served core map must equal both an in-process ``CoreService``
    replay of the same commits and the from-scratch oracle of the final
    graph (``scenarios.core_digest`` equality)."""
    service = CoreService.open(inputs.scenario.base_edges)
    graph = DynamicGraph(inputs.scenario.base_edges)
    for ops in committed:
        service.apply(Batch((kind, (u, v)) for kind, u, v in ops))
        apply_ops(graph, ops)
    digests = {
        "served": core_digest(served),
        "replay": core_digest(service.cores()),
        "oracle": core_digest(core_numbers(graph)),
    }
    if len(set(digests.values())) != 1:
        return [f"final core digests differ: {digests}"]
    return []


def check_events(base_cores: dict, final_cores: dict, events: list,
                 expected: int, dropped: int) -> list:
    """Streamed events must add up to the net core change since set-up,
    arrive exactly once each, and none may be dropped."""
    problems = []
    if dropped:
        problems.append(f"subscriber reports {dropped} dropped events")
    if len(events) != expected:
        problems.append(
            f"subscriber got {len(events)} events, commits reported "
            f"{expected} changed vertices"
        )
    net: dict = {}
    for vertex, old, new, _receipt in events:
        net[vertex] = net.get(vertex, 0) + new - old
    truth = {
        v: c - base_cores.get(v, 0)
        for v, c in final_cores.items() if c != base_cores.get(v, 0)
    }
    net = {v: d for v, d in net.items() if d}
    if net != truth:
        wrong = sorted(set(net.items()) ^ set(truth.items()))[:5]
        problems.append(f"event deltas differ from the net core change, "
                        f"e.g. {wrong}")
    return problems


def expected_answer(op: str, params: dict, cores: dict):
    """What a ``query`` of ``op`` must return over ``cores`` (wire form)."""
    if op == "core":
        return cores.get(params["vertex"])
    if op == "top":
        return [list(p) for p in kcore_views.top_cores(cores, params["n"])]
    if op == "spectrum":
        return sorted(
            ([k, n] for k, n in kcore_views.core_spectrum(cores).items()),
            key=lambda pair: vertex_sort_key(pair[0]),
        )
    if op == "degeneracy":
        return kcore_views.degeneracy(cores)
    if op == "kcore":
        return sorted(kcore_views.k_core_vertices(cores, params["k"]),
                      key=vertex_sort_key)
    raise ValueError(f"unknown read op {op!r}")


def check_reads(inputs, committed: list[list], samples: list) -> list:
    """Sampled answers ``(writes_before, op, params, answer)`` must match
    ``kcore_views`` over the oracle's cores of the graph they read."""
    problems = []
    graph = DynamicGraph(inputs.scenario.base_edges)
    applied = 0
    cores = core_numbers(graph)
    for writes, op, params, answer in sorted(
        samples, key=lambda s: s[0]
    ):
        if writes != applied:
            for ops in committed[applied:writes]:
                apply_ops(graph, ops)
            applied = writes
            cores = core_numbers(graph)
        want = expected_answer(op, params, cores)
        if answer != want:
            problems.append(
                f"{op}({params}) after {writes} writes answered "
                f"{str(answer)[:80]}, oracle {str(want)[:80]}"
            )
    return problems
