"""Shared interface for every core-maintenance engine.

Four engines implement it:

* :class:`repro.core.maintainer.OrderedCoreMaintainer` — the paper's
  order-based algorithm;
* :class:`repro.core.simplified.SimplifiedCoreMaintainer` — the
  Guo–Sekerinski simplification of it (the default engine);
* :class:`repro.traversal.maintainer.TraversalCoreMaintainer` — the
  state-of-the-art baseline (Sariyüce et al.), parameterized by hop count;
* :class:`repro.naive.maintainer.NaiveCoreMaintainer` — recompute from
  scratch (test oracle / lower bound).

All engines take ownership of the graph passed to them: updates must go
through the engine so its index stays consistent with the graph.

Besides the per-edge updates the paper describes, every engine accepts a
:class:`~repro.engine.batch.Batch` of mixed insertions/removals through
:meth:`CoreMaintainer.apply_batch`.  The base class provides a per-edge
fallback; engines override it with genuinely faster batched paths (the
order engine coalesces ``mcd`` repair per same-kind run — batch-native on
both the insertion and removal sides; the naive engine recomputes once
per batch).

Engines are created by name through the registry in
:mod:`repro.engine.registry` (:func:`~repro.engine.registry.make_engine`).
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, Optional

from repro.engine.batch import Batch, BatchResult, net_changes
from repro.graphs.undirected import DynamicGraph
from repro.testing.faults import inject

Vertex = Hashable
Edge = tuple[Vertex, Vertex]


@dataclass(frozen=True)
class UpdateResult:
    """Outcome of one edge update.

    Attributes
    ----------
    kind:
        ``"insert"`` or ``"remove"``.
    edge:
        The edge as passed by the caller (batch paths normalize it to
        the batch's canonical orientation).
    k:
        ``K = min(core(u), core(v))`` at update time — the block the update
        happened in (Fig. 10b plots the distribution of this value).
    changed:
        ``V*``: the vertices whose core number changed (by exactly 1, per
        Theorem 3.1).
    visited:
        Size of the search space: ``|V+|`` for the order-based engine,
        ``|V'|`` for the traversal engine (what Figs. 1-2 measure).
    evicted:
        Insertions only: number of vertices that became candidates but
        were later disproven (Algorithm 3's cascade for the order engine,
        eviction propagation for the traversal engine).
    """

    kind: str
    edge: Edge
    k: int
    changed: tuple = field(default=())
    visited: int = 0
    evicted: int = 0

    @property
    def delta(self) -> int:
        """Core-number delta applied to every vertex in ``changed``."""
        return 1 if self.kind == "insert" else -1


class CoreMaintainer(ABC):
    """Abstract core-maintenance engine."""

    #: Human-readable engine name, overridden by subclasses.
    name = "abstract"

    def __init__(self, graph: DynamicGraph) -> None:
        self._graph = graph

    # ------------------------------------------------------------------
    # Read-only accessors
    # ------------------------------------------------------------------

    @property
    def graph(self) -> DynamicGraph:
        """The underlying graph (mutate only through the engine)."""
        return self._graph

    @property
    @abstractmethod
    def core(self) -> Mapping[Vertex, int]:
        """Current core numbers; treat as read-only."""

    def core_of(self, vertex: Vertex) -> int:
        """Core number of one vertex."""
        return self.core[vertex]

    def core_numbers(self) -> dict[Vertex, int]:
        """A snapshot copy of all core numbers."""
        return dict(self.core)

    def k_core(self, k: int) -> set[Vertex]:
        """Vertex set of the ``k``-core (``core(v) >= k``)."""
        return {v for v, c in self.core.items() if c >= k}

    def k_shell(self, k: int) -> set[Vertex]:
        """Vertices with core number exactly ``k``."""
        return {v for v, c in self.core.items() if c == k}

    def degeneracy(self) -> int:
        """The largest ``k`` with a non-empty ``k``-core (max core number)."""
        return max(self.core.values(), default=0)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    @abstractmethod
    def insert_edge(self, u: Vertex, v: Vertex) -> UpdateResult:
        """Insert edge ``(u, v)`` and repair all core numbers."""

    @abstractmethod
    def remove_edge(self, u: Vertex, v: Vertex) -> UpdateResult:
        """Remove edge ``(u, v)`` and repair all core numbers."""

    @abstractmethod
    def add_vertex(self, vertex: Vertex) -> bool:
        """Register an isolated vertex; returns ``False`` if present."""

    def remove_vertex(self, vertex: Vertex) -> list[UpdateResult]:
        """Remove a vertex as a sequence of edge removals (Section I).

        The paper treats vertex updates as edge-update sequences; engines
        inherit that behaviour.  Returns one result per removed edge.
        """
        results = [
            self.remove_edge(vertex, w)
            for w in list(self._graph.adj[vertex])
        ]
        self._graph.remove_vertex(vertex)
        self._forget_vertex(vertex)
        return results

    def insert_edges(self, edges: Iterable[Edge]) -> list[UpdateResult]:
        """Insert several edges one by one."""
        return [self.insert_edge(u, v) for u, v in edges]

    def remove_edges(self, edges: Iterable[Edge]) -> list[UpdateResult]:
        """Remove several edges one by one."""
        return [self.remove_edge(u, v) for u, v in edges]

    # ------------------------------------------------------------------
    # Batch pipeline
    # ------------------------------------------------------------------

    def apply_batch(self, batch: Batch) -> BatchResult:
        """Apply a mixed :class:`~repro.engine.batch.Batch` of updates.

        The base implementation replays the batch one edge at a time in
        op order and aggregates the results; engines override it with
        faster schedules that leave the final graph and core numbers
        identical (per-op attribution may then follow the engine's
        schedule rather than the batch's op order).
        """
        started = time.perf_counter()
        baseline = self._batch_counters()
        results = []
        inserts = removes = 0
        for op in batch:
            inject("engine.mid_batch")
            if op.kind == "insert":
                results.append(self.insert_edge(*op.edge))
                inserts += 1
            else:
                results.append(self.remove_edge(*op.edge))
                removes += 1
        return self._finish_batch(
            results, inserts, removes, started, counter_baseline=baseline
        )

    def _batch_counters(self) -> dict[str, int]:
        """Cumulative instrumentation counters; engines override.

        The order engine reports its sequence-backend stats
        (``order_queries``, ``relabels``, ``rank_walk_steps``) plus
        ``mcd_recomputations``; the default is no counters.
        """
        return {}

    def _counter_deltas(self, baseline: Optional[dict]) -> dict:
        """Current :meth:`_batch_counters` as per-batch deltas.

        ``baseline`` is a counter snapshot taken when the batch started;
        engines whose schedules build :class:`BatchResult` directly (the
        order engine's run scheduler) share this arithmetic with
        :meth:`_finish_batch`.

        Counters the engine never touched are omitted, not zero-filled:
        :meth:`_batch_counters` values are cumulative and monotonic, so
        a cumulative 0 means the counter's machinery never ran at all
        (no ``relabels`` under the treap backend, no
        ``mcd_recomputations`` on an engine with no ``mcd`` concept) —
        reporting ``0`` would misread as "ran and did nothing".  A
        counter that has ever moved stays reported, even when this
        batch's delta is 0.
        """
        counters = self._batch_counters()
        if baseline:
            return {
                key: value - baseline.get(key, 0)
                for key, value in counters.items()
                if value
            }
        return {key: value for key, value in counters.items() if value}

    def _finish_batch(
        self,
        results: list,
        inserts: int,
        removes: int,
        started: float,
        counter_baseline: Optional[dict] = None,
    ) -> BatchResult:
        """Aggregate per-op results into a :class:`BatchResult`.

        Shared by every schedule that keeps per-op attribution, so the
        aggregate definitions (net changes, visited, timing) live in one
        place.  ``counter_baseline`` (a :meth:`_batch_counters` snapshot
        taken when the batch started) turns the cumulative counters into
        per-batch deltas.
        """
        counters = self._counter_deltas(counter_baseline)
        return BatchResult(
            engine=self.name,
            inserts=inserts,
            removes=removes,
            changed=net_changes(results),
            visited=sum(r.visited for r in results),
            seconds=time.perf_counter() - started,
            results=results,
            counters=counters,
        )

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------

    @abstractmethod
    def _forget_vertex(self, vertex: Vertex) -> None:
        """Drop per-vertex index state after the vertex left the graph."""
