"""The simplified order-based engine (Guo & Sekerinski, arXiv 2201.07103).

*Simplified Algorithms for Order-Based Core Maintenance* reformulates
Zhang et al.'s order-based maintenance directly on the order-maintenance
(OM) list: instead of the maintained max-core degrees (``mcd``) that the
paper's ``OrderRemoval`` consumes — and the per-update repair passes the
:class:`~repro.core.maintainer.OrderedCoreMaintainer` charges as
``mcd_recomputations`` — every vertex carries just two *order-local*
counters:

``d_out(v)``
    Neighbors appearing **after** ``v`` in the global k-order.  This is
    exactly the paper's ``deg+`` (Definition 5.2), so the insertion scan
    is unchanged in shape; it is stored in ``korder.deg_plus`` so the
    k-order audit validates it for free.
``d_in(v)``
    Neighbors appearing **before** ``v`` in the global k-order *with the
    same core number* (i.e. earlier in ``v``'s own block).

The load-bearing identity: because the k-order is sorted by core number,
every successor of ``v`` has ``core >= core(v)`` and every same-block
predecessor has ``core == core(v)``, so

    ``d_in(v) + d_out(v) == mcd(v)``    (always)

The removal cascade can therefore bound ``cd`` with ``d_in + d_out``
directly and **no separate ``mcd`` structure exists**: both counters are
repaired by O(1) adjustments at the exact points where the k-order
changes, so the per-update "refresh the touched neighborhoods" pass of
the default engine — and with it the whole ``pcd``-flavoured bookkeeping
layer — disappears.  What remains chargeable is the candidate scan
itself, reported as the ``candidate_visits`` counter (the engine's
analogue of ``|V+|`` / ``|V'|``), which replaces ``mcd_recomputations``
in :class:`~repro.engine.batch.BatchResult` counters.

Correctness of the ``d_in`` upkeep piggybacks on the proven ``deg+``
maintenance: for every vertex that keeps its core number, ``mcd`` is
untouched by an update's promotions/demotions (the moving vertices stay
``>=`` its level), so mirroring every scan-time ``d_out`` adjustment
with the opposite ``d_in`` adjustment preserves the identity — and the
identity plus correct ``d_out`` *is* correct ``d_in``.  Only the
vertices whose core changes (and, on insertion, the old members of the
level above) need a targeted repair, folded into the adjacency pass the
ending phase already pays for.  See :meth:`SimplifiedCoreMaintainer.check`,
which audits both counters from scratch under ``audit=True``.

The engine runs on the same pluggable
:class:`~repro.structures.sequence.SequenceIndex` block backends as the
default engine (``sequence="om"`` tagged order list, ``"treap"`` as the
rank-walking oracle) and registers as ``make_engine("order-simplified")``
with the standard family aliases.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Hashable, Iterable, Mapping, Optional

from repro.core.decomposition import korder_decomposition
from repro.core.korder import DEFAULT_SEQUENCE, KOrder
from repro.core.removal import RemovalRunResult
from repro.engine.base import CoreMaintainer, UpdateResult
from repro.engine.schedule import RunScheduledMaintainer
from repro.errors import InvariantViolationError
from repro.graphs.undirected import DynamicGraph
from repro.structures.heaps import LazyMinHeap

Vertex = Hashable
Edge = tuple[Vertex, Vertex]

_VC = 1  # currently a candidate for V*
_SETTLED = 2  # definitively not in V*


def compute_d_in(
    graph: DynamicGraph, core: Mapping[Vertex, int], order: Iterable[Vertex]
) -> dict[Vertex, int]:
    """``d_in`` from scratch: same-core neighbors earlier in ``order``."""
    position = {v: i for i, v in enumerate(order)}
    return {
        v: sum(
            1
            for w in nbrs
            if core[w] == core[v] and position[w] < position[v]
        )
        for v, nbrs in graph.adj.items()
    }


def simplified_insert(
    graph: DynamicGraph,
    korder: KOrder,
    core: dict[Vertex, int],
    d_in: dict[Vertex, int],
    u: Vertex,
    v: Vertex,
) -> tuple[list[Vertex], int, int, int]:
    """Insert ``(u, v)`` and repair ``core``, the k-order, ``d_out``/``d_in``.

    Returns ``(v_star, K, visited, evicted)`` like
    :func:`repro.core.insertion.order_insert`; unlike it, the caller has
    nothing left to repair — both order-local degrees are exact on
    return.
    """
    graph.add_edge(u, v)

    # Preparing phase: orient the edge so that u ≼ v.  The new successor
    # raises d_out(u); it raises d_in(v) only when u sits in v's block.
    if core[u] > core[v] or (core[u] == core[v] and korder.precedes(v, u)):
        u, v = v, u
    K = core[u]
    d_out = korder.deg_plus
    d_out[u] += 1
    if core[v] == K:
        d_in[v] += 1
    if d_out[u] <= K:
        return [], K, 0, 0

    block = korder.block(K)

    heap = LazyMinHeap()
    heap.push(block.order_key(u), u)

    deg_star: dict[Vertex, int] = {}
    status: dict[Vertex, int] = {}
    visit_seq: dict[Vertex, int] = {}
    vc_order: list[Vertex] = []
    visited = 0

    # Core phase: identical jump scan to Algorithm 2, with every d_out
    # adjustment mirrored on d_in (d_in + d_out is invariant for any
    # vertex that stays at core K, because promotions never leave its
    # mcd).  Candidates' d_in is garbage during the scan and is rebuilt
    # in the ending phase.
    while True:
        item = heap.pop()
        if item is None:
            break
        key_v, vtx = item
        visited += 1
        if deg_star.get(vtx, 0) + d_out[vtx] > K:
            status[vtx] = _VC
            visit_seq[vtx] = visited
            vc_order.append(vtx)
            for w in graph.adj[vtx]:
                if w in block and w not in status:
                    key_w = block.order_key(w)
                    if key_w > key_v:
                        new_star = deg_star.get(w, 0) + 1
                        deg_star[w] = new_star
                        if new_star == 1:
                            heap.push(key_w, w)
        else:
            absorbed = deg_star.pop(vtx, 0)
            d_out[vtx] += absorbed
            d_in[vtx] -= absorbed
            status[vtx] = _SETTLED
            _settle_candidates(
                graph, block, d_out, d_in, deg_star, status, visit_seq,
                heap, vtx, key_v, K,
            )

    v_star = [w for w in vc_order if status[w] == _VC]
    evicted = len(vc_order) - len(v_star)
    if v_star:
        # Ending phase.  V* moves, order preserved, to the *front* of
        # O_{K+1}: a promoted vertex's only same-block predecessors are
        # earlier V* members, and each old O_{K+1} member gains every
        # promoted neighbor as a new same-core predecessor (its mcd grew
        # by exactly those neighbors).  d_out needs nothing — the scan
        # maintained it for the promoted position already (the paper's
        # Section V-B rationale).
        promoted = set(v_star)
        earlier: set[Vertex] = set()
        for w in v_star:
            d_in[w] = sum(1 for z in graph.adj[w] if z in earlier)
            earlier.add(w)
            core[w] = K + 1
            korder.remove(w)
        for w in v_star:
            for z in graph.adj[w]:
                if core[z] == K + 1 and z not in promoted:
                    d_in[z] += 1
        korder.prepend_chain(K + 1, v_star)
    return v_star, K, visited, evicted


def _settle_candidates(
    graph: DynamicGraph,
    block,
    d_out: dict[Vertex, int],
    d_in: dict[Vertex, int],
    deg_star: dict[Vertex, int],
    status: dict[Vertex, int],
    visit_seq: dict[Vertex, int],
    heap: LazyMinHeap,
    settled: Vertex,
    key_cursor,
    K: int,
) -> None:
    """Algorithm 3's eviction cascade with mirrored ``d_in`` upkeep.

    Same control flow as
    :func:`repro.core.insertion._remove_candidates`; each ``d_out``
    change on a vertex that may stay at core ``K`` carries the opposite
    ``d_in`` change, keeping ``d_in + d_out`` equal to its (unchanged)
    ``mcd``.  ``deg_star`` is scan-local bookkeeping and needs no
    mirror.
    """
    queue: deque[Vertex] = deque()
    queued: set[Vertex] = set()

    for w in graph.adj[settled]:
        if status.get(w) == _VC:
            d_out[w] -= 1
            d_in[w] += 1
            if deg_star.get(w, 0) + d_out[w] <= K and w not in queued:
                queue.append(w)
                queued.add(w)

    anchor = settled
    while queue:
        w1 = queue.popleft()
        absorbed = deg_star.pop(w1, 0)
        d_out[w1] += absorbed
        d_in[w1] -= absorbed
        status[w1] = _SETTLED
        block.move_after(anchor, w1)
        anchor = w1
        seq_w1 = visit_seq[w1]
        for w2 in graph.adj[w1]:
            if w2 not in block:
                continue
            st = status.get(w2)
            if st is None:
                if block.order_key(w2) > key_cursor:
                    new_star = deg_star[w2] - 1
                    deg_star[w2] = new_star
                    if new_star == 0:
                        heap.discard(w2)
            elif st == _VC:
                if seq_w1 < visit_seq[w2]:
                    deg_star[w2] -= 1
                else:
                    d_out[w2] -= 1
                    d_in[w2] += 1
                if (
                    deg_star.get(w2, 0) + d_out[w2] <= K
                    and w2 not in queued
                ):
                    queue.append(w2)
                    queued.add(w2)
            # settled neighbors need no adjustment (Observation 6.1:
            # the eviction lands after the cursor, preserving their
            # already-absorbed accounting).


def simplified_remove(
    graph: DynamicGraph,
    korder: KOrder,
    core: dict[Vertex, int],
    d_in: dict[Vertex, int],
    u: Vertex,
    v: Vertex,
) -> tuple[list[Vertex], int, int]:
    """Remove ``(u, v)`` and repair ``core``, the k-order, ``d_out``/``d_in``.

    The cascade is Algorithm 4's, except the ``cd`` bound materializes
    from ``d_in + d_out`` — the identity makes the maintained ``mcd``
    (and its early endpoint decrements *and* its final refresh pass)
    unnecessary.  Returns ``(v_star, K, visited)`` with ``v_star`` in
    disposal order.
    """
    graph.remove_edge(u, v)  # validates before any index mutation
    cu, cv = core[u], core[v]
    K = min(cu, cv)
    d_out = korder.deg_plus

    # The departing edge leaves exactly one counter per endpoint at the
    # update level: the earlier endpoint loses a successor, the later
    # one loses a same-block predecessor only when the blocks coincide.
    if cu < cv or (cu == cv and korder.precedes(u, v)):
        d_out[u] -= 1
        if cu == cv:
            d_in[v] -= 1
    else:
        d_out[v] -= 1
        if cu == cv:
            d_in[u] -= 1

    if cu < cv:
        roots = (u,)
    elif cv < cu:
        roots = (v,)
    else:
        roots = (u, v)
    cd: dict[Vertex, int] = {}
    queued: set[Vertex] = set()
    stack: list[Vertex] = []
    for root in roots:
        cd[root] = d_in[root] + d_out[root]
        if cd[root] < K:
            stack.append(root)
            queued.add(root)
    disposed: list[Vertex] = []
    while stack:
        w = stack.pop()
        disposed.append(w)
        core[w] = K - 1
        for z in graph.adj[w]:
            if core.get(z) != K:
                continue
            bound = cd.get(z)
            if bound is None:
                bound = d_in[z] + d_out[z]
            bound -= 1
            cd[z] = bound
            if bound < K and z not in queued:
                stack.append(z)
                queued.add(z)

    if disposed:
        _repair_level(graph, korder, core, d_in, K, disposed)
    return disposed, K, len(cd)


def _repair_level(
    graph: DynamicGraph,
    korder: KOrder,
    core: dict[Vertex, int],
    d_in: dict[Vertex, int],
    K: int,
    disposed: list[Vertex],
) -> None:
    """Move a level's ``V*`` to the tail of ``O_{K-1}`` in disposal order,
    repairing both order-local degrees in the same adjacency pass.

    A mover lands *before* every remaining core-``K`` vertex, so each
    such neighbor loses one unit — from ``d_out`` if it preceded the
    mover, from ``d_in`` otherwise (together these are the ``mcd``
    decrements the default engine pays a separate pass for).  The
    mover's own degrees are recomputed against its new tail position:
    stayers, higher cores and later movers follow it; old ``O_{K-1}``
    members and earlier movers precede it in its new block.
    """
    remaining = set(disposed)
    block = korder.block(K)
    d_out = korder.deg_plus
    for w in disposed:
        remaining.discard(w)
        key_w = block.order_key(w)
        new_out = 0
        new_in = 0
        for z in graph.adj[w]:
            cz = core[z]
            if cz == K:
                if block.order_key(z) < key_w:
                    d_out[z] -= 1
                else:
                    d_in[z] -= 1
            if cz >= K or z in remaining:
                new_out += 1
            elif cz == K - 1:
                new_in += 1
        d_out[w] = new_out
        d_in[w] = new_in
        korder.remove(w)
        korder.append(K - 1, w)


def simplified_remove_run(
    graph: DynamicGraph,
    korder: KOrder,
    core: dict[Vertex, int],
    d_in: dict[Vertex, int],
    edges: Iterable[Edge],
) -> RemovalRunResult:
    """Remove a whole run of ``edges`` and repair ``core``, ``korder``
    and both order-local degrees — the batch-native counterpart of
    :func:`simplified_remove`, mirroring
    :func:`repro.core.removal.order_remove_run` on the ``d_in``/``d_out``
    bookkeeping.

    All edges leave the graph up front: each departing edge costs the
    O(1) orientation-based decrements of the per-edge path (the earlier
    endpoint loses a successor; the later one loses a same-block
    predecessor when the blocks coincide), and any endpoint whose
    ``d_in + d_out`` bound — its ``mcd``, by the module invariant —
    fell below its core number seeds the joint cascade of its level.
    Then one joint ``V*`` cascade runs per affected ``K``-level, highest
    level first, with every sub-threshold root of the level queued at
    once, so overlapping neighborhoods are walked once per run instead
    of once per edge.

    Where :func:`~repro.core.removal.order_remove_run` must keep ``mcd``
    incrementally exact inside the cascade (decrement the stayers,
    recompute each mover), here that whole step collapses into state the
    engine already maintains: the cascade bounds candidates with a
    scan-local ``cd`` materialized from ``d_in + d_out``, and the
    level's single :func:`_repair_level` pass repairs both degrees for
    stayers and movers alike — after it, a mover's ``d_in + d_out`` *is*
    its ``mcd`` at ``K - 1``, which is exactly the bound the next-lower
    level's re-seed check needs (batches may sink a vertex through
    several levels).  ``recomputed`` therefore stays 0: the simplified
    run has no ``mcd`` passes to charge, only the candidate scan
    (``visited``).

    If an edge is invalid (absent from the graph), the run raises after
    first completing the cascades for the edges that did land, so the
    index stays fully consistent with the partially-updated graph.
    """
    d_out = korder.deg_plus
    # Endpoints whose bound dropped, keyed by their (stable until their
    # level is processed) core number: the joint-cascade seed sets.
    pending: dict[int, set[Vertex]] = {}
    result = RemovalRunResult()
    levels: list[int] = []
    try:
        for u, v in edges:
            graph.remove_edge(u, v)  # validates before any index mutation
            cu, cv = core[u], core[v]
            # No reorder happens during this phase, so all order tests
            # are against one stable k-order.
            if cu < cv or (cu == cv and korder.precedes(u, v)):
                d_out[u] -= 1
                if cu == cv:
                    d_in[v] -= 1
            else:
                d_out[v] -= 1
                if cu == cv:
                    d_in[u] -= 1
            # Seed any endpoint that fell below its level; d_in + d_out
            # plays the role of Algorithm 4's early mcd decrements.
            if cu <= cv and d_in[u] + d_out[u] < cu:
                pending.setdefault(cu, set()).add(u)
            if cv <= cu and d_in[v] + d_out[v] < cv:
                pending.setdefault(cv, set()).add(v)
            result.removed += 1
    finally:
        # Runs even when an edge op raises, so the removals that did land
        # leave core/korder/degrees consistent before the error
        # propagates.
        changed = result.changed
        while pending:
            K = max(pending)
            seeds = pending.pop(K)
            # One joint V* cascade for the whole level: every
            # sub-threshold root enters the queue at once.  cd is
            # scan-local — permanent degree repair is _repair_level's.
            cd: dict[Vertex, int] = {}
            queued: set[Vertex] = set()
            stack: list[Vertex] = []
            for w in seeds:
                if core[w] != K:  # re-seeded at a lower level meanwhile
                    continue
                cd[w] = d_in[w] + d_out[w]
                if cd[w] < K:
                    stack.append(w)
                    queued.add(w)
            disposed: list[Vertex] = []
            while stack:
                w = stack.pop()
                disposed.append(w)
                core[w] = K - 1
                changed[w] = changed.get(w, 0) - 1
                for z in graph.adj[w]:
                    if core.get(z) != K:
                        continue
                    bound = cd.get(z)
                    if bound is None:
                        bound = d_in[z] + d_out[z]
                    bound -= 1
                    cd[z] = bound
                    if bound < K and z not in queued:
                        stack.append(z)
                        queued.add(z)
            result.visited += len(cd)
            if not disposed:
                continue
            levels.append(K)
            # Repair the k-order — and both degrees — once for the level.
            _repair_level(graph, korder, core, d_in, K, disposed)
            # Demotions may leave vertices sub-threshold at K-1 too —
            # batches can sink a vertex through several levels.
            lower = {w for w in disposed if d_in[w] + d_out[w] < K - 1}
            if lower:
                pending.setdefault(K - 1, set()).update(lower)
        result.levels = tuple(levels)
    return result


class SimplifiedCoreMaintainer(RunScheduledMaintainer):
    """Guo–Sekerinski simplified order-based core maintenance.

    Drop-in alternative to
    :class:`~repro.core.maintainer.OrderedCoreMaintainer` with the same
    k-order index but no ``mcd``/``pcd`` bookkeeping: two order-local
    counters (``d_out`` — the paper's ``deg+`` — and ``d_in``) replace
    the maintained max-core degrees, so no repair pass runs after the
    cascades.  Created as ``make_engine("order-simplified")`` (aliases
    ``order-simplified-{small,large,random,om,treap}``).

    Parameters match the default order engine's: ``policy`` picks the
    Section VI generation heuristic, ``sequence`` the block backend,
    ``audit`` re-checks every invariant after each update (tests only).
    Batches commit run-natively (see
    :class:`~repro.engine.schedule.RunScheduledMaintainer`): removal
    runs go through :func:`simplified_remove_run` (one joint cascade per
    affected level), insertion runs through one coalesced loop with a
    single boundary audit — the simplified insert leaves nothing
    deferred, so the run is the per-edge scan minus per-edge overheads.
    """

    name = "order-simplified"

    #: Vertices examined by the insertion scan / removal cascade — the
    #: engine's cost driver, replacing ``mcd_recomputations`` in batch
    #: counters.  Class-level default so snapshot restores start at 0.
    candidate_visits = 0

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
        self._d_in = compute_d_in(graph, self._core, decomposition.order)
        self.candidate_visits = 0

    @classmethod
    def from_index_state(
        cls,
        graph: DynamicGraph,
        order: Iterable[Vertex],
        core: dict[Vertex, int],
        deg_plus: Mapping[Vertex, int],
        d_in: dict[Vertex, int],
        *,
        sequence: str = DEFAULT_SEQUENCE,
        audit: bool = False,
        seed: Optional[int] = 0,
    ) -> "SimplifiedCoreMaintainer":
        """Rebuild a live maintainer from already-valid index state.

        Mirrors
        :meth:`~repro.core.maintainer.OrderedCoreMaintainer.from_index_state`
        with ``d_in`` in place of ``mcd``; used by snapshot restore.
        The ``core`` and ``d_in`` dicts are adopted, not copied.
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
        maintainer._d_in = d_in
        maintainer.candidate_visits = 0
        return maintainer

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def core(self) -> Mapping[Vertex, int]:
        return self._core

    @property
    def d_in(self) -> Mapping[Vertex, int]:
        """Maintained same-block predecessor counts (read-only)."""
        return self._d_in

    @property
    def d_out(self) -> Mapping[Vertex, int]:
        """Maintained successor counts — the paper's ``deg+`` (read-only)."""
        return self.korder.deg_plus

    @property
    def mcd(self) -> dict[Vertex, int]:
        """Max-core degrees, *derived* on demand as ``d_in + d_out``.

        The engine never stores or repairs this mapping — the property
        exists so snapshots and analysis helpers written against the
        default engine keep working.
        """
        d_in, d_out = self._d_in, self.korder.deg_plus
        return {v: d_in[v] + d_out[v] for v in d_in}

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

    def degeneracy_order(self) -> list[Vertex]:
        """The maintained k-order read as a degeneracy ordering."""
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
        """Simplified ``OrderInsert``: cores, k-order and both degrees."""
        for endpoint in (u, v):
            if not self._graph.has_vertex(endpoint):
                self._graph.add_vertex(endpoint)
                self._register_vertex(endpoint)
        v_star, k, visited, evicted = simplified_insert(
            self._graph, self.korder, self._core, self._d_in, u, v
        )
        self.candidate_visits += visited
        if self._audit:
            self.check()
        return UpdateResult(
            "insert", (u, v), k, tuple(v_star), visited, evicted
        )

    def remove_edge(self, u: Vertex, v: Vertex) -> UpdateResult:
        """Simplified ``OrderRemoval``: cores, k-order and both degrees."""
        v_star, k, visited = simplified_remove(
            self._graph, self.korder, self._core, self._d_in, u, v
        )
        self.candidate_visits += visited
        if self._audit:
            self.check()
        return UpdateResult("remove", (u, v), k, tuple(v_star), visited)

    # ------------------------------------------------------------------
    # Run commits (the RunScheduledMaintainer hooks)
    # ------------------------------------------------------------------

    def _insert_run(self, edges) -> list[UpdateResult]:
        """Insert a run of edges with one boundary audit.

        The simplified insert repairs both order-local degrees inside
        its own scan — unlike the default engine there is no ``mcd``
        boundary repair to coalesce — so the run is a plain loop over
        :func:`simplified_insert`, paying per-edge dispatch and (under
        ``audit=True``) the full-index audit once per run instead of
        once per edge.
        """
        graph, core, d_in = self._graph, self._core, self._d_in
        results = []
        for u, v in edges:
            for endpoint in (u, v):
                if not graph.has_vertex(endpoint):
                    graph.add_vertex(endpoint)
                    self._register_vertex(endpoint)
            v_star, k, visited, evicted = simplified_insert(
                graph, self.korder, core, d_in, u, v
            )
            self.candidate_visits += visited
            results.append(
                UpdateResult(
                    "insert", (u, v), k, tuple(v_star), visited, evicted
                )
            )
        if self._audit:
            self.check()
        return results

    def _remove_run(self, edges) -> RemovalRunResult:
        """Remove a run of edges through the batch-native joint cascade.

        Both degrees are maintained inside
        :func:`simplified_remove_run`, so the run's chargeable work is
        the candidate scan alone (``visited``, folded into
        ``candidate_visits``); ``recomputed`` is structurally 0 — the
        simplified engine has no ``mcd`` passes to count.
        """
        run = simplified_remove_run(
            self._graph, self.korder, self._core, self._d_in, edges
        )
        self.candidate_visits += run.visited
        if self._audit:
            self.check()
        return run

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _register_vertex(self, vertex: Vertex) -> None:
        self._core[vertex] = 0
        self.korder.append(0, vertex)
        self.korder.deg_plus[vertex] = 0
        self._d_in[vertex] = 0

    def _forget_vertex(self, vertex: Vertex) -> None:
        if self._core.pop(vertex, None) is None:
            return
        self.korder.forget(vertex)
        self._d_in.pop(vertex, None)

    def _batch_counters(self) -> dict[str, int]:
        """Sequence stats plus the scan counter; no ``mcd`` concept here,
        so batch results carry ``candidate_visits`` in its place."""
        counters = self.korder.stats.as_dict()
        counters["candidate_visits"] = self.candidate_visits
        return counters

    # ------------------------------------------------------------------
    # Audit
    # ------------------------------------------------------------------

    def check(self) -> None:
        """Audit the whole index; raises on violation (used in tests).

        :meth:`KOrder.audit` already validates ``d_out`` (it *is*
        ``deg+``) and Lemma 5.1; on top of that, ``d_in`` is recomputed
        from the live order and compared.
        """
        self.korder.audit(self._graph, self._core)
        expected = compute_d_in(self._graph, self._core, self.order())
        if expected != self._d_in:
            bad = {
                v: (self._d_in.get(v), expected[v])
                for v in expected
                if self._d_in.get(v) != expected[v]
            }
            raise InvariantViolationError(f"d_in out of sync: {bad}")
