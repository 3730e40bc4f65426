"""One function per table/figure of the paper's evaluation (Section VII).

Every function is pure given its arguments (datasets are generated from
seeds) and returns plain dataclasses that :mod:`repro.bench.reporting`
renders.  Default sizes are scaled for pure Python — see DESIGN.md §2 —
and every knob (update counts, dataset scale, hop counts) is exposed so
larger runs are one argument away.

Experiment index
----------------
==========  ==========================================================
table1      dataset statistics (paper vs stand-in)
fig10a      cumulative distribution of core numbers
fig10b      cumulative distribution of K over sampled update edges
fig1        distribution of #vertices visited per insertion
fig2        ratio sum|visited| / sum|V*| (traversal vs order)
fig5        cumulative size distributions of pc / sc / oc
fig9        |V+|/|V*| under the three k-order generation heuristics
table2      accumulated insert & remove time, Order vs Trav-h
table3      index creation time per engine
fig11       scalability: vary |V| and |E| at 20%..100%
fig12       stability: grouped insertions, optional removal mix p
==========  ==========================================================
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.analysis.distributions import (
    FIG1_LABELS,
    cumulative_distribution,
)
from repro.analysis.metrics import UpdateLog
from repro.analysis.subcore import order_core, pure_core, sub_core
from repro.bench.runner import (
    build_engine,
    build_service,
    run_batches,
    run_mixed,
    run_updates,
    time_index_build,
)
from repro.bench.workloads import (
    grouped_stream,
    interleave_removals,
    make_workload,
    mixed_batch_workload,
    sample_edge_fraction,
    sample_vertex_fraction,
)
from repro.core.decomposition import core_numbers, korder_decomposition
from repro.core.korder import KOrder
from repro.core.maintainer import OrderedCoreMaintainer, compute_mcd
from repro.graphs.datasets import dataset_names, load_dataset
from repro.graphs.undirected import DynamicGraph

#: Traversal hop counts benchmarked in Table II / Table III.
DEFAULT_HOPS: tuple[int, ...] = (2, 3, 4, 5, 6)

#: Default number of update edges per dataset (the paper uses 100,000 on a
#: C++ implementation; see DESIGN.md for the scaling rationale).
DEFAULT_UPDATES = 400


# ======================================================================
# Table I — dataset statistics
# ======================================================================

@dataclass
class Table1Row:
    dataset: str
    n: int
    m: int
    avg_deg: float
    max_k: int
    paper_n: int
    paper_m: int
    paper_avg_deg: float
    paper_max_k: int


def table1(
    names: Optional[Sequence[str]] = None,
    scale: Optional[float] = None,
    seed: int = 42,
) -> list[Table1Row]:
    """Regenerate Table I: stand-in statistics next to the paper's."""
    rows = []
    for name in names or dataset_names():
        dataset = load_dataset(name, scale=scale, seed=seed)
        graph = dataset.graph()
        core = core_numbers(graph)
        paper = dataset.spec.paper
        rows.append(
            Table1Row(
                dataset=name,
                n=graph.n,
                m=graph.m,
                avg_deg=round(graph.average_degree(), 2),
                max_k=max(core.values(), default=0),
                paper_n=paper.n,
                paper_m=paper.m,
                paper_avg_deg=paper.avg_deg,
                paper_max_k=paper.max_k,
            )
        )
    return rows


# ======================================================================
# Fig. 10 — core-number and K distributions
# ======================================================================

@dataclass
class CdfResult:
    dataset: str
    xs: list[float]
    fractions: list[float]


def fig10a(
    name: str, scale: Optional[float] = None, seed: int = 42
) -> CdfResult:
    """Cumulative distribution of core numbers (Fig. 10a)."""
    dataset = load_dataset(name, scale=scale, seed=seed)
    core = core_numbers(dataset.graph())
    xs, fractions = cumulative_distribution(core.values())
    return CdfResult(name, xs, fractions)


def fig10b(
    name: str,
    n_updates: int = DEFAULT_UPDATES,
    scale: Optional[float] = None,
    seed: int = 42,
) -> CdfResult:
    """Cumulative distribution of ``K = min(core(u), core(v))`` over the
    sampled update edges (Fig. 10b)."""
    dataset = load_dataset(name, scale=scale, seed=seed)
    workload = make_workload(dataset, n_updates, seed=seed)
    core = core_numbers(workload.full_graph())
    ks = [min(core[u], core[v]) for u, v in workload.update_edges]
    xs, fractions = cumulative_distribution(ks)
    return CdfResult(name, xs, fractions)


# ======================================================================
# Figs. 1 & 2 — insertion search-space comparison
# ======================================================================

@dataclass
class InsertionVisitResult:
    dataset: str
    labels: tuple[str, ...]
    traversal_proportions: list[float]
    order_proportions: list[float]
    traversal_ratio: float
    order_ratio: float
    traversal_log: UpdateLog = field(repr=False)
    order_log: UpdateLog = field(repr=False)


def insertion_visits(
    name: str,
    n_updates: int = DEFAULT_UPDATES,
    scale: Optional[float] = None,
    seed: int = 42,
) -> InsertionVisitResult:
    """Shared machinery for Figs. 1 and 2: insert the update stream with
    both engines, recording per-edge visited counts (|V'| vs |V+|) and
    core changes (|V*|)."""
    dataset = load_dataset(name, scale=scale, seed=seed)
    workload = make_workload(dataset, n_updates, seed=seed)
    trav = build_engine("trav-2", workload.base_graph(), seed=seed)
    trav_log = run_updates(trav, workload.update_edges, "insert")
    order = build_engine("order", workload.base_graph(), seed=seed)
    order_log = run_updates(order, workload.update_edges, "insert")
    return InsertionVisitResult(
        dataset=name,
        labels=FIG1_LABELS,
        traversal_proportions=trav_log.visited_proportions(),
        order_proportions=order_log.visited_proportions(),
        traversal_ratio=trav_log.visited_to_changed_ratio(),
        order_ratio=order_log.visited_to_changed_ratio(),
        traversal_log=trav_log,
        order_log=order_log,
    )


def fig1(name: str, **kwargs) -> InsertionVisitResult:
    """Fig. 1: bucketed distribution of vertices visited per insertion."""
    return insertion_visits(name, **kwargs)


def fig2(name: str, **kwargs) -> InsertionVisitResult:
    """Fig. 2: ratio of total visited to total updated vertices."""
    return insertion_visits(name, **kwargs)


# ======================================================================
# Fig. 5 — pc / sc / oc size distributions
# ======================================================================

@dataclass
class Fig5Result:
    dataset: str
    sc: CdfResult
    pc: CdfResult
    oc: CdfResult


def fig5(
    name: str,
    sample: int = 400,
    scale: Optional[float] = None,
    seed: int = 42,
) -> Fig5Result:
    """Fig. 5: cumulative size distributions of purecore, subcore and
    ordercore over a vertex sample."""
    import random as _random

    dataset = load_dataset(name, scale=scale, seed=seed)
    graph = dataset.graph()
    decomposition = korder_decomposition(graph, policy="small")
    core = decomposition.core
    korder = KOrder.from_decomposition(decomposition)
    mcd = compute_mcd(graph, core)
    rng = _random.Random(seed)
    vertices = sorted(graph.vertices())
    if len(vertices) > sample:
        vertices = rng.sample(vertices, sample)
    sc_sizes = [len(sub_core(graph, core, v)) for v in vertices]
    pc_sizes = [len(pure_core(graph, core, mcd, v)) for v in vertices]
    oc_sizes = [len(order_core(graph, korder, core, v)) for v in vertices]
    return Fig5Result(
        dataset=name,
        sc=CdfResult(name, *cumulative_distribution(sc_sizes)),
        pc=CdfResult(name, *cumulative_distribution(pc_sizes)),
        oc=CdfResult(name, *cumulative_distribution(oc_sizes)),
    )


# ======================================================================
# Fig. 9 — k-order generation heuristics
# ======================================================================

@dataclass
class Fig9Result:
    dataset: str
    ratios: dict[str, float]  # policy -> |V+| / |V*|


def fig9(
    name: str,
    n_updates: int = DEFAULT_UPDATES,
    scale: Optional[float] = None,
    seed: int = 42,
) -> Fig9Result:
    """Fig. 9: |V+|/|V*| for small / large / random deg+ first."""
    dataset = load_dataset(name, scale=scale, seed=seed)
    workload = make_workload(dataset, n_updates, seed=seed)
    ratios: dict[str, float] = {}
    for policy in ("small", "large", "random"):
        engine = OrderedCoreMaintainer(
            workload.base_graph(), policy=policy, seed=seed
        )
        log = run_updates(engine, workload.update_edges, "insert")
        ratios[policy] = log.visited_to_changed_ratio()
    return Fig9Result(dataset=name, ratios=ratios)


# ======================================================================
# Table II — accumulated update times
# ======================================================================

@dataclass
class Table2Row:
    dataset: str
    insert_seconds: dict[str, float]
    remove_seconds: dict[str, float]

    def insert_speedup(self, against: str = "trav-2") -> float:
        """Order-based insertion speedup over a traversal variant."""
        order = self.insert_seconds["order"]
        return self.insert_seconds[against] / order if order else float("inf")

    def remove_speedup(self, against: str = "trav-2") -> float:
        order = self.remove_seconds["order"]
        return self.remove_seconds[against] / order if order else float("inf")


def table2(
    name: str,
    n_updates: int = DEFAULT_UPDATES,
    hops: Sequence[int] = DEFAULT_HOPS,
    scale: Optional[float] = None,
    seed: int = 42,
    engines: Optional[Sequence[str]] = None,
) -> Table2Row:
    """Table II: accumulated insert / remove time per engine.

    Following the paper: insert the update edges one by one into the base
    graph, then remove those same edges from the resulting full graph.

    ``engines`` overrides the engine list (any registry names); the
    default replays the paper's lineup — ``order`` against ``trav-<h>``
    for every hop count.  The ablation benches pass e.g.
    ``["order", "order-simplified"]`` to race the two order-family
    engines on identical workloads.
    """
    dataset = load_dataset(name, scale=scale, seed=seed)
    workload = make_workload(dataset, n_updates, seed=seed)
    if engines is None:
        engines = ["order"] + [f"trav-{h}" for h in hops]
    insert_seconds: dict[str, float] = {}
    remove_seconds: dict[str, float] = {}
    for engine_name in engines:
        engine = build_engine(engine_name, workload.base_graph(), seed=seed)
        insert_log = run_updates(engine, workload.update_edges, "insert")
        insert_seconds[engine_name] = insert_log.total_seconds
        # Removal continues from the post-insertion state (the full graph),
        # removing the same edges in reverse arrival order.
        remove_log = run_updates(
            engine, list(reversed(workload.update_edges)), "remove"
        )
        remove_seconds[engine_name] = remove_log.total_seconds
    return Table2Row(name, insert_seconds, remove_seconds)


# ======================================================================
# Table III — index creation time
# ======================================================================

@dataclass
class Table3Row:
    dataset: str
    build_seconds: dict[str, float]


def table3(
    name: str,
    hops: Sequence[int] = DEFAULT_HOPS,
    scale: Optional[float] = None,
    seed: int = 42,
) -> Table3Row:
    """Table III: index creation time (includes core decomposition)."""
    dataset = load_dataset(name, scale=scale, seed=seed)
    graph_edges = dataset.edges
    build_seconds: dict[str, float] = {}
    for engine_name in ["order"] + [f"trav-{h}" for h in hops]:
        graph = DynamicGraph.from_edges(graph_edges)
        _, seconds = time_index_build(
            lambda g, _n=engine_name: build_engine(_n, g, seed=seed), graph
        )
        build_seconds[engine_name] = seconds
    return Table3Row(name, build_seconds)


# ======================================================================
# Fig. 11 — scalability
# ======================================================================

@dataclass
class ScalabilityPoint:
    fraction: float
    seconds: float
    edge_ratio: float
    vertex_ratio: float


@dataclass
class Fig11Result:
    dataset: str
    vary_vertices: list[ScalabilityPoint]
    vary_edges: list[ScalabilityPoint]


def fig11(
    name: str,
    fractions: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 1.0),
    n_updates: int = DEFAULT_UPDATES,
    scale: Optional[float] = None,
    seed: int = 42,
) -> Fig11Result:
    """Fig. 11: OrderInsert time on vertex- and edge-sampled subgraphs."""
    dataset = load_dataset(name, scale=scale, seed=seed)
    full_vertices = {u for u, _ in dataset.edges} | {v for _, v in dataset.edges}
    full_m = len(dataset.edges)

    def run_on(edges: list) -> float:
        sub = load_dataset(name, scale=scale, seed=seed)
        sub.edges = edges
        workload = make_workload(sub, n_updates, seed=seed)
        engine = build_engine("order", workload.base_graph(), seed=seed)
        log = run_updates(engine, workload.update_edges, "insert")
        return log.total_seconds

    vary_vertices = []
    for fraction in fractions:
        edges = sample_vertex_fraction(dataset, fraction, seed=seed)
        vertices = {u for u, _ in edges} | {v for _, v in edges}
        vary_vertices.append(
            ScalabilityPoint(
                fraction=fraction,
                seconds=run_on(edges),
                edge_ratio=len(edges) / full_m if full_m else 0.0,
                vertex_ratio=len(vertices) / len(full_vertices)
                if full_vertices
                else 0.0,
            )
        )
    vary_edges = []
    for fraction in fractions:
        edges = sample_edge_fraction(dataset, fraction, seed=seed)
        vertices = {u for u, _ in edges} | {v for _, v in edges}
        vary_edges.append(
            ScalabilityPoint(
                fraction=fraction,
                seconds=run_on(edges),
                edge_ratio=len(edges) / full_m if full_m else 0.0,
                vertex_ratio=len(vertices) / len(full_vertices)
                if full_vertices
                else 0.0,
            )
        )
    return Fig11Result(name, vary_vertices, vary_edges)


# ======================================================================
# Fig. 12 — stability
# ======================================================================

@dataclass
class Fig12Result:
    dataset: str
    p: float
    group_seconds: list[float]
    group_changed: list[int]


def fig12(
    name: str,
    n_groups: int = 10,
    group_size: int = 100,
    p: float = 0.0,
    scale: Optional[float] = None,
    seed: int = 42,
) -> Fig12Result:
    """Fig. 12: per-group accumulated OrderInsert time over many groups.

    With ``p > 0``, each insertion is followed with probability ``p`` by a
    random removal (Figs. 12c/12d), whose time counts toward the group.
    """
    dataset = load_dataset(name, scale=scale, seed=seed)
    workload, groups = grouped_stream(dataset, n_groups, group_size, seed=seed)
    engine = build_engine("order", workload.base_graph(), seed=seed)
    present = list(workload.base_edges)
    group_seconds: list[float] = []
    group_changed: list[int] = []
    for index, group in enumerate(groups):
        if p > 0.0:
            plan = interleave_removals(present, group, p, seed=seed + index)
            log = run_mixed(engine, plan)
            # Track the surviving edge pool for the next group.
            removed = {e for kind, e in plan if kind == "remove"}
            present = [e for e in present if e not in removed]
            present.extend(
                e for kind, e in plan if kind == "insert" and e not in removed
            )
        else:
            log = run_updates(engine, group, "insert")
            present.extend(group)
        group_seconds.append(log.total_seconds)
        group_changed.append(log.total_changed)
    return Fig12Result(name, p, group_seconds, group_changed)


# ======================================================================
# Batch pipeline — batched vs per-edge replay of a mixed stream
# ======================================================================

@dataclass
class BatchThroughputRow:
    """One engine's per-edge vs batched replay of the same mixed plan."""

    engine: str
    ops: int
    per_edge_seconds: float
    batched_seconds: float
    mcd_per_edge: Optional[int] = None  # order engine only
    mcd_batched: Optional[int] = None
    #: Sequence-backend stats of the batched replay (order engine only):
    #: order tests answered vs pointer hops spent ranking — the OM
    #: backend keeps ``rank_walk_steps`` at 0.
    order_queries: Optional[int] = None
    rank_walk_steps: Optional[int] = None
    relabels: Optional[int] = None

    @property
    def speedup(self) -> float:
        return (
            self.per_edge_seconds / self.batched_seconds
            if self.batched_seconds
            else float("inf")
        )


@dataclass
class BatchThroughputResult:
    dataset: str
    batch_size: int
    p: float
    rows: list[BatchThroughputRow]


def batch_throughput(
    name: str,
    n_updates: int = DEFAULT_UPDATES,
    batch_size: int = 100,
    p: float = 0.2,
    engines: Sequence[str] = ("order", "trav-2", "naive"),
    scale: Optional[float] = None,
    seed: int = 42,
) -> BatchThroughputResult:
    """Replay one mixed insert/remove stream per-edge and batched.

    Both replays start from a fresh base graph and must end with
    identical core numbers (asserted); for the order engine the row also
    reports the ``mcd`` recomputation counters, the work the batched
    path amortizes per run.
    """
    dataset = load_dataset(name, scale=scale, seed=seed)
    workload, plan, batches = mixed_batch_workload(
        dataset, n_updates, batch_size, p=p, seed=seed
    )
    rows = []
    for engine_name in engines:
        per_edge = build_engine(engine_name, workload.base_graph(), seed=seed)
        per_edge_log = run_mixed(per_edge, plan)
        # The batched replay goes through the service façade — the path
        # every production consumer takes (commits, receipts, events).
        batched = build_service(engine_name, workload.base_graph(), seed=seed)
        results = run_batches(batched, batches)
        assert per_edge.core_numbers() == batched.cores(), (
            f"{engine_name}: batched replay diverged from per-edge replay"
        )
        stats = getattr(batched.engine, "sequence_stats", None)
        rows.append(
            BatchThroughputRow(
                engine=engine_name,
                ops=len(plan),
                per_edge_seconds=per_edge_log.total_seconds,
                batched_seconds=sum(r.seconds for r in results),
                mcd_per_edge=getattr(per_edge, "mcd_recomputations", None),
                mcd_batched=getattr(
                    batched.engine, "mcd_recomputations", None
                ),
                order_queries=stats.order_queries if stats else None,
                rank_walk_steps=stats.rank_walk_steps if stats else None,
                relabels=stats.relabels if stats else None,
            )
        )
    return BatchThroughputResult(name, batch_size, p, rows)


# ======================================================================
# Ablation — the value of the jump heap B (Section VI, Algorithm 2 l.15)
# ======================================================================

@dataclass
class AblationJumpResult:
    dataset: str
    jump_seconds: float
    scan_seconds: float
    visited: int  # |V+| — identical for both variants by construction
    scanned: int  # sequential steps the scan variant had to take

    @property
    def steps_saved(self) -> int:
        """Case-2a steps the jump heap skipped outright."""
        return self.scanned - self.visited


def ablation_jump(
    name: str,
    n_updates: int = DEFAULT_UPDATES,
    scale: Optional[float] = None,
    seed: int = 42,
) -> AblationJumpResult:
    """Quantify the jump heap: OrderInsert vs an identical-semantics
    sequential scan of ``O_K`` (see :mod:`repro.core.ablation`)."""
    from repro.core.ablation import ScanningOrderedCoreMaintainer

    dataset = load_dataset(name, scale=scale, seed=seed)
    workload = make_workload(dataset, n_updates, seed=seed)

    jump_engine = build_engine("order", workload.base_graph(), seed=seed)
    jump_log = run_updates(jump_engine, workload.update_edges, "insert")

    scan_engine = ScanningOrderedCoreMaintainer(
        workload.base_graph(), seed=seed
    )
    scan_started = time.perf_counter()
    scan_visited = 0
    for edge in workload.update_edges:
        scan_visited += scan_engine.insert_edge(*edge).visited
    scan_seconds = time.perf_counter() - scan_started
    assert scan_visited == jump_log.total_visited, (
        "ablation variants must agree on |V+|"
    )
    return AblationJumpResult(
        dataset=name,
        jump_seconds=jump_log.total_seconds,
        scan_seconds=scan_seconds,
        visited=scan_visited,
        scanned=scan_engine.total_scanned,
    )


# ======================================================================
# Convenience: run everything
# ======================================================================

def run_all(
    names: Optional[Sequence[str]] = None,
    n_updates: int = DEFAULT_UPDATES,
    hops: Sequence[int] = (2, 3),
    scale: Optional[float] = None,
    seed: int = 42,
) -> dict:
    """Run every experiment on the given datasets; returns a result map.

    Used by ``repro all`` and the EXPERIMENTS.md regeneration; hop counts
    default to (2, 3) to bound runtime — pass all five for the full table.
    """
    names = list(names or dataset_names())
    started = time.perf_counter()
    results = {
        "table1": table1(names, scale=scale, seed=seed),
        "fig10a": [fig10a(n, scale=scale, seed=seed) for n in names],
        "fig10b": [
            fig10b(n, n_updates, scale=scale, seed=seed) for n in names
        ],
        "fig1_fig2": [
            insertion_visits(n, n_updates, scale=scale, seed=seed)
            for n in names
        ],
        "fig5": [
            fig5(n, scale=scale, seed=seed) for n in ("patents", "orkut")
        ],
        "fig9": [fig9(n, n_updates, scale=scale, seed=seed) for n in names],
        "table2": [
            table2(n, n_updates, hops, scale=scale, seed=seed) for n in names
        ],
        "table3": [table3(n, hops, scale=scale, seed=seed) for n in names],
        "fig11": [
            fig11(n, n_updates=n_updates, scale=scale, seed=seed)
            for n in ("patents", "orkut", "livejournal")
        ],
        "fig12": [
            fig12("patents", p=p, scale=scale, seed=seed)
            for p in (0.0, 0.1, 0.2)
        ],
    }
    results["elapsed_seconds"] = time.perf_counter() - started
    return results
