"""The order-based core-maintenance engine (the paper's contribution).

:class:`OrderedCoreMaintainer` glues together:

* the static k-order decomposition (Section VI generation heuristics);
* :func:`repro.core.insertion.order_insert` (Algorithms 2-3);
* :func:`repro.core.removal.order_remove` (Algorithm 4) for per-edge
  removals and :func:`repro.core.removal.order_remove_run` for
  batch-native removal runs (one joint cascade per ``K``-level,
  incremental ``mcd``);
* ``mcd`` upkeep — the order-based algorithm still maintains max-core
  degrees because the removal cascade bounds ``cd`` with them (the paper's
  Algorithm 2 line 33 / Algorithm 4 line 15), but crucially it does *not*
  maintain ``pcd``, whose 2-hop upkeep dominates the traversal algorithm.

Example
-------
>>> from repro.graphs import DynamicGraph
>>> from repro.core import OrderedCoreMaintainer
>>> g = DynamicGraph([(0, 1), (1, 2), (2, 0)])
>>> m = OrderedCoreMaintainer(g)
>>> m.core_of(0)
2
>>> result = m.insert_edge(0, 3)
>>> m.core_of(3)
1
"""

from __future__ import annotations

import random
from typing import Hashable, Iterable, Mapping, Optional

from repro.core.decomposition import korder_decomposition
from repro.core.insertion import order_insert
from repro.core.korder import DEFAULT_SEQUENCE, KOrder
from repro.core.removal import RemovalRunResult, order_remove, order_remove_run
from repro.engine.base import CoreMaintainer, UpdateResult
from repro.engine.schedule import RunScheduledMaintainer
from repro.errors import InvariantViolationError
from repro.graphs.undirected import DynamicGraph

Vertex = Hashable


def compute_mcd(
    graph: DynamicGraph, core: Mapping[Vertex, int]
) -> dict[Vertex, int]:
    """Max-core degree of every vertex: neighbors with ``core >= core(v)``."""
    return {
        v: sum(1 for w in nbrs if core[w] >= core[v])
        for v, nbrs in graph.adj.items()
    }


class OrderedCoreMaintainer(RunScheduledMaintainer):
    """Dynamic core maintenance via an explicitly maintained k-order.

    Parameters
    ----------
    graph:
        The graph to index; the maintainer takes ownership (all further
        updates must go through :meth:`insert_edge` / :meth:`remove_edge`).
    policy:
        k-order generation heuristic (``"small"``, ``"large"``,
        ``"random"``; Section VI — ``"small"`` is the paper's choice).
    seed:
        Makes treap priorities and the random policy deterministic.
    audit:
        When true, the full index is audited after every update; meant for
        tests (it costs ``O(m log n)`` per update).
    sequence:
        Block backend of the k-order: ``"om"`` (default — tagged
        order-maintenance lists, O(1) order tests) or ``"treap"`` (the
        original order-statistic treaps, O(log n) rank walks).  Both
        yield identical orders and cores; only the query cost differs.
    """

    name = "order"

    #: Per-vertex ``mcd`` recomputations performed by repairs — the cost
    #: the batched path amortizes.  Class-level default so engines
    #: restored from snapshots (which bypass ``__init__``) start at 0 too.
    mcd_recomputations = 0

    def __init__(
        self,
        graph: DynamicGraph,
        policy: str = "small",
        seed: Optional[int] = 0,
        audit: bool = False,
        sequence: str = DEFAULT_SEQUENCE,
    ) -> None:
        super().__init__(graph)
        self._audit = audit
        self._rng = random.Random(seed)
        decomposition = korder_decomposition(graph, policy=policy, seed=seed)
        self._core: dict[Vertex, int] = decomposition.core
        self.korder = KOrder.from_decomposition(
            decomposition, self._rng, sequence=sequence
        )
        self._mcd = compute_mcd(graph, self._core)
        self.mcd_recomputations = 0

    @classmethod
    def from_index_state(
        cls,
        graph: DynamicGraph,
        order: Iterable[Vertex],
        core: dict[Vertex, int],
        deg_plus: Mapping[Vertex, int],
        mcd: dict[Vertex, int],
        *,
        sequence: str = DEFAULT_SEQUENCE,
        audit: bool = False,
        seed: Optional[int] = 0,
    ) -> "OrderedCoreMaintainer":
        """Rebuild a live maintainer from already-valid index state.

        ``order`` must be a valid k-order of ``graph`` with ``core`` /
        ``deg_plus`` / ``mcd`` consistent; no decomposition runs.  The
        ``core`` and ``mcd`` dicts are adopted, not copied.  This is the
        one bypass of ``__init__`` — shared by snapshot restore
        (:func:`repro.core.snapshot.from_snapshot`), so new maintainer
        state only ever needs to be wired here.  Raises ``ValueError``
        for an unknown backend.
        """
        maintainer = cls.__new__(cls)
        CoreMaintainer.__init__(maintainer, graph)
        maintainer._audit = audit
        maintainer._rng = random.Random(seed)
        maintainer._core = core
        korder = KOrder(maintainer._rng, sequence=sequence)
        for vertex in order:
            korder.append(core[vertex], vertex)
        korder.deg_plus.update(deg_plus)
        maintainer.korder = korder
        maintainer._mcd = mcd
        maintainer.mcd_recomputations = 0
        return maintainer

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def core(self) -> Mapping[Vertex, int]:
        return self._core

    @property
    def mcd(self) -> Mapping[Vertex, int]:
        """Maintained max-core degrees (read-only)."""
        return self._mcd

    @property
    def sequence(self) -> str:
        """The k-order's block backend (``"om"`` or ``"treap"``)."""
        return self.korder.sequence

    @property
    def sequence_stats(self):
        """Cumulative :class:`~repro.structures.sequence.SequenceStats`
        of the k-order's blocks (order queries, relabels, rank walks)."""
        return self.korder.stats

    def order(self) -> list[Vertex]:
        """The maintained k-order as a list."""
        return self.korder.order()

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def add_vertex(self, vertex: Vertex) -> bool:
        if not self._graph.add_vertex(vertex):
            return False
        self._register_vertex(vertex)
        return True

    def insert_edge(self, u: Vertex, v: Vertex) -> UpdateResult:
        """OrderInsert: insert ``(u, v)``, repair cores, k-order and mcd."""
        for endpoint in (u, v):
            if not self._graph.has_vertex(endpoint):
                self._graph.add_vertex(endpoint)
                self._register_vertex(endpoint)
        v_star, k, visited, evicted = order_insert(
            self._graph, self.korder, self._core, u, v
        )
        self._refresh_mcd(v_star, (u, v), k + 1)
        if self._audit:
            self.check()
        return UpdateResult(
            "insert", (u, v), k, tuple(v_star), visited, evicted
        )

    def remove_edge(self, u: Vertex, v: Vertex) -> UpdateResult:
        """OrderRemoval: remove ``(u, v)``, repair cores, k-order and mcd."""
        v_star, k, visited = order_remove(
            self._graph, self.korder, self._core, self._mcd, u, v
        )
        self._refresh_mcd(v_star, (u, v), k)
        if self._audit:
            self.check()
        return UpdateResult("remove", (u, v), k, tuple(v_star), visited)

    # The batch pipeline (``apply_batch`` / ``insert_edges_bulk`` and the
    # run scheduler) is inherited from
    # :class:`~repro.engine.schedule.RunScheduledMaintainer`; this class
    # contributes the ``mcd``-maintaining run commits below.

    def _batch_counters(self) -> dict[str, int]:
        """Cumulative instrumentation (sequence stats + ``mcd`` repairs)."""
        counters = self.korder.stats.as_dict()
        counters["mcd_recomputations"] = self.mcd_recomputations
        return counters

    def _insert_run(self, edges) -> list[UpdateResult]:
        """Insert a run of edges with one coalesced ``mcd`` repair.

        During the run only cores and the k-order are maintained;
        ``old_core`` records each changed vertex's core *before* its first
        promotion so the boundary repair can tell which neighbors' levels
        the vertex crossed over the whole run.
        """
        graph, core, mcd = self._graph, self._core, self._mcd
        endpoints: set[Vertex] = set()
        old_core: dict[Vertex, int] = {}
        results = []
        try:
            for u, v in edges:
                for endpoint in (u, v):
                    if not graph.has_vertex(endpoint):
                        graph.add_vertex(endpoint)
                        self._register_vertex(endpoint)
                v_star, k, visited, evicted = order_insert(
                    graph, self.korder, core, u, v
                )
                for w in v_star:
                    # order_insert already bumped core[w]; remember the value
                    # it had before its first promotion in this run.
                    old_core.setdefault(w, core[w] - 1)
                endpoints.update((u, v))
                results.append(
                    UpdateResult(
                        "insert", (u, v), k, tuple(v_star), visited, evicted
                    )
                )
        finally:
            # Boundary repair: endpoints and promoted vertices from scratch
            # (adjacency or core changed); any other neighbor z of a promoted
            # vertex gains +1 for each neighbor whose core crossed core(z).
            # Runs even when an op raises (e.g. EdgeExistsError) so the
            # edges that did land leave mcd consistent.
            recomputed = endpoints | old_core.keys()
            for w in recomputed:
                cw = core[w]
                mcd[w] = sum(1 for x in graph.adj[w] if core[x] >= cw)
            self.mcd_recomputations += len(recomputed)
            for w, before in old_core.items():
                after = core[w]
                for z in graph.adj[w]:
                    if z in recomputed:
                        continue
                    if before < core[z] <= after:
                        mcd[z] += 1
        if self._audit:
            self.check()
        return results

    def _remove_run(self, edges) -> RemovalRunResult:
        """Remove a run of edges through the batch-native joint cascade.

        ``mcd`` is maintained incrementally inside
        :func:`~repro.core.removal.order_remove_run`, so the run charges
        exactly one targeted recomputation per demotion (one pass over
        the run's disposed set) instead of the per-edge path's
        ``V* + endpoints`` refresh for every edge.
        """
        run = order_remove_run(
            self._graph, self.korder, self._core, self._mcd, edges
        )
        self.mcd_recomputations += run.recomputed
        if self._audit:
            self.check()
        return run

    def degeneracy_order(self) -> list[Vertex]:
        """The maintained k-order read as a degeneracy ordering.

        Reversed, it is a *degeneracy order*: every vertex has at most
        ``degeneracy`` neighbors earlier in it (its ``deg+`` neighbors),
        which is what greedy coloring and clique heuristics consume (see
        :func:`repro.applications.coloring.greedy_coloring`).
        """
        return self.korder.order()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _register_vertex(self, vertex: Vertex) -> None:
        self._core[vertex] = 0
        self.korder.append(0, vertex)
        self.korder.deg_plus[vertex] = 0
        self._mcd[vertex] = 0

    def _forget_vertex(self, vertex: Vertex) -> None:
        if self._core.pop(vertex, None) is None:
            return
        self.korder.forget(vertex)
        self._mcd.pop(vertex, None)

    def _refresh_mcd(
        self,
        changed: list[Vertex],
        endpoints: tuple[Vertex, Vertex],
        crossing_level: int,
    ) -> None:
        """Repair ``mcd`` after an update.

        ``V*`` members and the edge endpoints are recomputed from scratch
        (their own core or adjacency changed).  For any other neighbor
        ``z`` of a ``V*`` member, the member's core crossed ``core(z)``
        exactly when ``core(z) == crossing_level`` — ``K+1`` for inserts
        (the member rose from below ``z`` to its level), ``K`` for removals
        (the member fell from ``z``'s level to below it).
        """
        graph = self._graph
        core = self._core
        mcd = self._mcd
        recomputed = set(changed)
        recomputed.update(endpoints)
        for w in recomputed:
            cw = core[w]
            mcd[w] = sum(1 for x in graph.adj[w] if core[x] >= cw)
        self.mcd_recomputations += len(recomputed)
        if not changed:
            return
        delta = 1 if core[changed[0]] == crossing_level else -1
        for w in changed:
            for z in graph.adj[w]:
                if z in recomputed:
                    continue
                if core[z] == crossing_level:
                    mcd[z] += delta

    # ------------------------------------------------------------------
    # Audit
    # ------------------------------------------------------------------

    def check(self) -> None:
        """Audit the whole index; raises on violation (used in tests)."""
        self.korder.audit(self._graph, self._core)
        expected = compute_mcd(self._graph, self._core)
        if expected != self._mcd:
            bad = {
                v: (self._mcd.get(v), expected[v])
                for v in expected
                if self._mcd.get(v) != expected[v]
            }
            raise InvariantViolationError(f"mcd out of sync: {bad}")
