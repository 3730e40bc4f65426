"""The batch update pipeline: :class:`Batch` in, :class:`BatchResult` out.

The paper's algorithms process one edge at a time, but every realistic
deployment (sliding windows, grouped replays, bulk loads) produces
*batches* of mixed insertions and removals.  A :class:`Batch` is the
validated, normalized unit of work every engine accepts through
:meth:`repro.engine.base.CoreMaintainer.apply_batch`:

* edges are normalized to a stable canonical orientation (see
  :func:`normalize_edge` — identity never depends on ``repr`` formatting
  for comparable vertices);
* exact duplicate operations are dropped (re-inserting an edge whose
  pending operation is already an insert is a no-op, not an error);
* self loops and unknown kinds are rejected at construction time.

Engines are free to *reschedule* a batch as long as the final graph (and
therefore the final core numbers) is unchanged: when no edge appears with
both kinds, insertions commute with removals of other edges, so
:meth:`Batch.runs` can regroup the ops into one removal run followed by
one insertion run — the schedule that lets the order-based engine
coalesce its ``mcd`` repair per run instead of per edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Iterator, Optional, Sequence

from repro.errors import BatchError, SelfLoopError

Vertex = Hashable
Edge = tuple[Vertex, Vertex]

INSERT = "insert"
REMOVE = "remove"
_KINDS = (INSERT, REMOVE)


def vertex_sort_key(vertex: Vertex) -> tuple[str, str]:
    """A total-order key over arbitrary (possibly mixed-type) vertices.

    ``(type name, repr)`` — stable across runs and comparable between any
    two vertices, which raw vertex comparison is not.  Shared by edge
    normalization, deterministic event ordering
    (:mod:`repro.service.events`) and top-``n`` tie-breaking
    (:func:`repro.analysis.kcore_views.top_cores`).
    """
    return (type(vertex).__name__, repr(vertex))


def normalize_edge(u: Vertex, v: Vertex) -> Edge:
    """Canonical orientation of an undirected edge.

    Prefers the vertices' own ordering (``u < v``); for incomparable or
    mixed-type vertices it falls back to the stable
    :func:`vertex_sort_key`.  Equal endpoints (self loops) raise
    :class:`~repro.errors.SelfLoopError`.  Unlike ordering by bare
    ``repr``, equal vertices always normalize identically regardless of
    how their ``repr`` is formatted.
    """
    if u == v:
        raise SelfLoopError(u)
    try:
        if u < v:
            return (u, v)
        if v < u:
            return (v, u)
    except TypeError:
        pass
    return (u, v) if vertex_sort_key(u) <= vertex_sort_key(v) else (v, u)


@dataclass(frozen=True)
class BatchOp:
    """One operation of a batch: ``kind`` is ``"insert"`` or ``"remove"``."""

    kind: str
    edge: Edge


class Batch:
    """An ordered, validated, deduplicated collection of edge updates.

    Parameters
    ----------
    ops:
        Iterable of ``(kind, (u, v))`` pairs — or :class:`BatchOp`
        instances, so ``Batch(other.ops)`` round-trips — applied in
        order.

    Construction normalizes every edge and drops *exact duplicates*: an
    operation whose kind equals the pending (most recent) operation on the
    same edge.  Opposite-kind sequences (insert, then remove, then insert
    again …) are all kept — they are legitimate histories.

    >>> batch = Batch([("insert", (1, 2)), ("insert", (2, 1))])
    >>> len(batch)
    1
    >>> batch = Batch.inserts([(1, 2)]).remove(1, 2).insert(1, 2)
    >>> [op.kind for op in batch]
    ['insert', 'remove', 'insert']
    """

    __slots__ = ("_ops", "_last_kind", "_n_inserts")

    def __init__(self, ops: Iterable = ()) -> None:
        self._ops: list[BatchOp] = []
        self._last_kind: dict[Edge, str] = {}
        self._n_inserts = 0
        for op in ops:
            if isinstance(op, BatchOp):
                kind, (u, v) = op.kind, op.edge
            else:
                kind, (u, v) = op
            self._append(kind, u, v)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def inserts(cls, edges: Iterable[Edge]) -> "Batch":
        """A batch of insertions only (bulk-load shape)."""
        return cls((INSERT, e) for e in edges)

    @classmethod
    def removes(cls, edges: Iterable[Edge]) -> "Batch":
        """A batch of removals only (window-expiry shape)."""
        return cls((REMOVE, e) for e in edges)

    def insert(self, u: Vertex, v: Vertex) -> "Batch":
        """Append an insertion; returns ``self`` for chaining."""
        self._append(INSERT, u, v)
        return self

    def remove(self, u: Vertex, v: Vertex) -> "Batch":
        """Append a removal; returns ``self`` for chaining."""
        self._append(REMOVE, u, v)
        return self

    def _append(self, kind: str, u: Vertex, v: Vertex) -> None:
        if kind not in _KINDS:
            raise BatchError(
                f"batch op kind must be 'insert' or 'remove', got {kind!r}"
            )
        edge = normalize_edge(u, v)
        if self._last_kind.get(edge) == kind:
            return  # exact duplicate of the pending op on this edge
        self._last_kind[edge] = kind
        self._ops.append(BatchOp(kind, edge))
        if kind == INSERT:
            self._n_inserts += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def ops(self) -> tuple[BatchOp, ...]:
        return tuple(self._ops)

    def __len__(self) -> int:
        return len(self._ops)

    def __bool__(self) -> bool:
        return bool(self._ops)

    def __iter__(self) -> Iterator[BatchOp]:
        return iter(self._ops)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        i, r = self.counts()
        return f"Batch({i} inserts, {r} removes)"

    def counts(self) -> tuple[int, int]:
        """``(#inserts, #removes)`` of the batch.

        O(1): the counts are maintained by ``_append`` rather than
        re-scanned — ``__repr__`` and per-batch reporting call this on
        every batch, which used to cost a full pass over the ops.
        """
        return self._n_inserts, len(self._ops) - self._n_inserts

    def edges(self, kind: str) -> list[Edge]:
        """The edges of every op of ``kind``, in batch order."""
        return [op.edge for op in self._ops if op.kind == kind]

    def check_applicable(self, graph) -> None:
        """Raise :class:`~repro.errors.BatchError` unless every op is
        valid when the batch is replayed in op order against ``graph``.

        An insert must target an absent edge, a removal a present one —
        tracked through the batch's own earlier ops, so histories like
        remove-then-reinsert validate correctly.  O(len(batch)) adjacency
        lookups.  The service façade calls this before every commit so
        an invalid op aborts the whole batch instead of landing a prefix
        of it; raw ``engine.apply_batch`` callers who want the same
        atomicity call it themselves (engines keep their documented
        partial-failure semantics on mid-batch errors).
        """
        overlay: dict[Edge, bool] = {}
        for op in self._ops:
            edge = op.edge
            present = (
                overlay[edge] if edge in overlay else graph.has_edge(*edge)
            )
            if op.kind == INSERT:
                if present:
                    raise BatchError(
                        f"batch inserts edge {edge!r} which is already "
                        "in the graph"
                    )
            elif not present:
                raise BatchError(
                    f"batch removes edge {edge!r} which is not in the graph"
                )
            overlay[edge] = op.kind == INSERT

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def conflicting_edges(self) -> set[Edge]:
        """Edges that appear with *both* kinds (must keep relative order)."""
        seen: dict[Edge, str] = {}
        conflicts: set[Edge] = set()
        for op in self._ops:
            prior = seen.setdefault(op.edge, op.kind)
            if prior != op.kind:
                conflicts.add(op.edge)
        return conflicts

    def runs(self, reorder: bool = True) -> list[tuple[str, list[Edge]]]:
        """Maximal same-kind runs, the unit engines coalesce repair over.

        With ``reorder=True`` (the default) and no edge appearing with
        both kinds, the batch is rescheduled as one removal run followed
        by one insertion run: insertions and removals of *distinct* edges
        commute, so the final graph is identical and engines get the
        longest possible runs.  Removals go first because they are
        cheapest on the sparsest graph (before the batch's insertions
        land), and the insertion run's coalesced repair cost does not
        depend on its position.  Conflicting batches (some edge inserted
        *and* removed) keep their natural op order.

        >>> batch = Batch([("insert", (1, 2)), ("remove", (3, 4)),
        ...                ("insert", (5, 6))])
        >>> batch.runs()
        [('remove', [(3, 4)]), ('insert', [(1, 2), (5, 6)])]
        >>> batch.runs(reorder=False)
        [('insert', [(1, 2)]), ('remove', [(3, 4)]), ('insert', [(5, 6)])]
        """
        if not self._ops:
            return []
        if reorder and not self.conflicting_edges():
            runs = []
            inserts = self.edges(INSERT)
            removes = self.edges(REMOVE)
            if removes:
                runs.append((REMOVE, removes))
            if inserts:
                runs.append((INSERT, inserts))
            return runs
        runs = []
        current_kind = self._ops[0].kind
        current: list[Edge] = []
        for op in self._ops:
            if op.kind != current_kind:
                runs.append((current_kind, current))
                current_kind, current = op.kind, []
            current.append(op.edge)
        runs.append((current_kind, current))
        return runs


@dataclass
class BatchResult:
    """Aggregate outcome of applying one :class:`Batch`.

    Attributes
    ----------
    engine:
        Name of the engine that applied the batch.
    inserts / removes:
        Number of operations applied per kind.
    changed:
        Net core-number delta per vertex over the whole batch; vertices
        whose core ended where it started are omitted.
    visited:
        Total search-space size (sum of per-update ``|V+|`` / ``|V'|``,
        or one ``n`` per recomputation for the naive engine).
    seconds:
        Wall time spent inside ``apply_batch``.
    results:
        Per-operation :class:`~repro.engine.base.UpdateResult` detail when
        the engine's schedule can attribute changes to individual edges;
        ``None`` for fully coalesced paths (naive recompute, and any
        order-engine batch containing a removal run — removal runs share
        one joint cascade, so per-edge attribution no longer exists).
    counters:
        Per-batch instrumentation deltas reported by the engine — for the
        order engine: ``order_queries``, ``relabels``, ``rank_walk_steps``
        (the sequence-backend stats), ``mcd_recomputations``
        (``candidate_visits`` on the simplified engine, which has no
        ``mcd``); empty for engines without counters.  Counters the engine's
        machinery never touched are omitted, not zero-filled: a missing
        key means "this engine never ran that code", a ``0`` means "ran
        this batch and did nothing".
    """

    engine: str
    inserts: int
    removes: int
    changed: dict[Vertex, int] = field(default_factory=dict)
    visited: int = 0
    seconds: float = 0.0
    results: Optional[list] = None
    counters: dict = field(default_factory=dict)

    @property
    def ops(self) -> int:
        return self.inserts + self.removes

    @property
    def total_changed(self) -> int:
        """``|V*|`` of the batch: vertices with a net core change."""
        return len(self.changed)

    @property
    def vertex_changes(self) -> int:
        """Total per-operation core changes (promotions + demotions).

        Falls back to net deltas when per-operation detail is unavailable.
        """
        if self.results is not None:
            return sum(len(r.changed) for r in self.results)
        return sum(abs(d) for d in self.changed.values())


def merge_deltas(changed: dict, deltas: Iterable) -> dict:
    """Fold ``(vertex, delta)`` pairs into ``changed`` in place, dropping
    vertices whose net delta reaches zero.  Returns ``changed``.

    The one definition of the accumulate-and-drop-zeros rule shared by
    :func:`net_changes` and the engines' run aggregation.
    """
    for vertex, delta in deltas:
        total = changed.get(vertex, 0) + delta
        if total:
            changed[vertex] = total
        else:
            changed.pop(vertex, None)
    return changed


def net_changes(results: Sequence) -> dict[Vertex, int]:
    """Fold per-update results into net core deltas, dropping zeros."""
    changed: dict[Vertex, int] = {}
    for result in results:
        merge_deltas(
            changed, ((vertex, result.delta) for vertex in result.changed)
        )
    return changed
