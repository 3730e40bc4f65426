"""Views over a core decomposition: k-cores, shells, onion layers.

These are the read-side products that make core maintenance useful —
the paper's motivating applications (community search, visualization,
topology analysis) all consume them.

Served reads go through :class:`CoreLevels`, a level → vertex-set index
kept current from each commit's net core deltas — the paper's k-order
blocks ``O_k`` seen from the read side.  :class:`repro.service.CoreService`
and :class:`repro.service.replica.LogReplica` each keep one, so reads
never reach into maintainer internals.  The plain functions over a core
mapping (:func:`top_cores`, :func:`core_spectrum`, :func:`degeneracy`,
:func:`k_core_vertices`) answer the same questions by full scans; the
tests use them as oracles for the index.
"""

from __future__ import annotations

import heapq
from itertools import chain
from operator import itemgetter
from typing import Hashable, Iterable, Iterator, Mapping, Optional

from repro.engine.batch import vertex_sort_key
from repro.graphs.undirected import DynamicGraph

Vertex = Hashable


def k_core_vertices(core: Mapping[Vertex, int], k: int) -> set[Vertex]:
    """Vertices of the ``k``-core (``core(v) >= k``)."""
    return {v for v, c in core.items() if c >= k}


_MISSING = object()


class KCoreView:
    """A lazy, *live* membership view of one ``k``-core.

    Wraps a core-number mapping (a :class:`CoreLevels` index's own map,
    or any engine's read-only ``core`` accessor) without copying it: membership tests are O(1) lookups,
    iteration and ``len`` scan on demand, and the view always reflects
    the mapping's **current** state — commit an update and the same view
    answers for the new cores.  Call :meth:`vertices` to pin a frozen
    set, :meth:`sorted` for a deterministic list, or :meth:`subgraph`
    for the induced graph.

    A view built by :meth:`CoreLevels.kcore` iterates the index's level
    blocks instead of scanning every vertex, and :meth:`sorted` reuses
    the index's per-level sort cache.
    """

    __slots__ = ("_core", "_k", "_graph", "_levels")

    def __init__(
        self,
        core: Mapping[Vertex, int],
        k: int,
        graph: Optional[DynamicGraph] = None,
        *,
        levels: Optional["CoreLevels"] = None,
    ) -> None:
        self._core = core
        self._k = k
        self._graph = graph
        self._levels = levels

    @property
    def k(self) -> int:
        """The view's core level."""
        return self._k

    def __contains__(self, vertex: object) -> bool:
        c = self._core.get(vertex)
        return c is not None and c >= self._k

    def __iter__(self) -> Iterator[Vertex]:
        k = self._k
        if self._levels is not None:
            return chain.from_iterable(self._levels._blocks(k))
        return (v for v, c in self._core.items() if c >= k)

    def __len__(self) -> int:
        k = self._k
        if self._levels is not None:
            return sum(map(len, self._levels._blocks(k)))
        return sum(1 for c in self._core.values() if c >= k)

    def __bool__(self) -> bool:
        return any(True for _ in self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KCoreView(k={self._k}, size={len(self)})"

    def vertices(self) -> set[Vertex]:
        """Materialize the current membership as a frozen-in-time set."""
        return set(self)

    def sorted(self) -> list[Vertex]:
        """The current members as a list ordered by
        :func:`~repro.engine.batch.vertex_sort_key`."""
        if self._levels is not None:
            return self._levels.sorted_kcore(self._k)
        return sorted(self, key=vertex_sort_key)

    def subgraph(self) -> DynamicGraph:
        """The ``k``-core as an induced subgraph of the view's graph."""
        if self._graph is None:
            raise ValueError(
                "this KCoreView was built without a graph; "
                "use k_core_subgraph(graph, core, k) instead"
            )
        return self._graph.subgraph(self.vertices())


class CoreLevels:
    """Level → vertex-set index over a core map: the served read model.

    Vertices are grouped by core number the way the paper's k-order
    keeps its blocks ``O_k``, so :meth:`spectrum` is the block sizes,
    :meth:`degeneracy` the top non-empty level and :meth:`kcore` the
    union of the blocks at ``k`` and above.  Each level also caches its
    members sorted by :func:`~repro.engine.batch.vertex_sort_key`, built
    on first read and dropped when the level changes, so :meth:`top` and
    ``kcore(k).sorted()`` cost O(answer + levels) while the cache holds.

    The index owns its copy of the core map and changes only through
    :meth:`commit`, so it holds exactly the state of the last commit it
    was given, whatever happens to the engine it mirrors afterwards.

    >>> levels = CoreLevels({"a": 2, "b": 2, "c": 2, "d": 1})
    >>> levels.top(2), levels.spectrum(), levels.degeneracy()
    ([('a', 2), ('b', 2)], {1: 1, 2: 3}, 2)
    >>> levels.commit({"d": 1}, ["d", "e"])
    >>> levels.kcore(2).sorted(), levels.core("e")
    (['a', 'b', 'c', 'd'], 0)
    """

    __slots__ = ("_core", "_levels", "_sorted")

    def __init__(self, core: Mapping[Vertex, int] = ()) -> None:
        self._core: dict[Vertex, int] = dict(core)
        self._levels: dict[int, set[Vertex]] = {}
        #: level -> [(vertex_sort_key(v), v), ...] in key order.
        self._sorted: dict[int, list] = {}
        for v, c in self._core.items():
            members = self._levels.get(c)
            if members is None:
                self._levels[c] = members = set()
            members.add(v)

    def commit(
        self, deltas: Mapping[Vertex, int], vertices: Iterable[Vertex] = ()
    ) -> None:
        """Apply one commit: its net core ``deltas`` (a vertex not yet
        indexed starts from 0), then any of the ``vertices`` it names
        that is still not indexed joins level 0.

        O(len(deltas) + len(vertices)) plain set moves, inlined because
        this runs on every commit; no sort key is computed here.
        """
        core, levels, cached = self._core, self._levels, self._sorted
        for v, delta in deltas.items():
            old = core.get(v)
            if old is None:
                new = delta
            else:
                new = old + delta
                members = levels[old]
                members.discard(v)
                if not members:
                    del levels[old]
                if cached:
                    cached.pop(old, None)
            core[v] = new
            members = levels.get(new)
            if members is None:
                levels[new] = members = set()
            members.add(v)
            if cached:
                cached.pop(new, None)
        for v in vertices:
            if v not in core:
                core[v] = 0
                members = levels.get(0)
                if members is None:
                    levels[0] = members = set()
                members.add(v)
                cached.pop(0, None)

    def _blocks(self, k: int) -> list[set[Vertex]]:
        """The level sets at ``k`` and above."""
        return [members for c, members in self._levels.items() if c >= k]

    def _ranked(self, level: int) -> list:
        """Level ``level``'s ``(sort key, vertex)`` pairs in key order."""
        ranked = self._sorted.get(level)
        if ranked is None:
            ranked = sorted(
                ((vertex_sort_key(v), v) for v in self._levels[level]),
                key=itemgetter(0),
            )
            self._sorted[level] = ranked
        return ranked

    def __len__(self) -> int:
        return len(self._core)

    # -- the served reads ------------------------------------------------

    def core(self, vertex: Vertex, default=_MISSING) -> int:
        """Core number of one vertex (``KeyError`` unless ``default``)."""
        c = self._core.get(vertex, _MISSING)
        if c is _MISSING:
            if default is _MISSING:
                raise KeyError(vertex)
            return default
        return c

    def cores(self) -> dict[Vertex, int]:
        """A snapshot copy of every vertex's core number."""
        return dict(self._core)

    def kcore(
        self, k: int, graph: Optional[DynamicGraph] = None
    ) -> KCoreView:
        """A live :class:`KCoreView` of the ``k``-core backed by this
        index."""
        return KCoreView(self._core, k, graph, levels=self)

    def sorted_kcore(self, k: int) -> list[Vertex]:
        """The ``k``-core ordered by
        :func:`~repro.engine.batch.vertex_sort_key`."""
        ranked = [self._ranked(c) for c in self._levels if c >= k]
        if len(ranked) != 1:
            ranked = [sorted(chain.from_iterable(ranked), key=itemgetter(0))]
        return [v for _, v in ranked[0]]

    def degeneracy(self) -> int:
        """The top non-empty level (0 for an empty index)."""
        return max(self._levels, default=0)

    def top(self, n: int) -> list[tuple[Vertex, int]]:
        """The ``n`` highest-core vertices, as :func:`top_cores` orders
        them: walks levels downward and stops once ``n`` are taken."""
        out: list[tuple[Vertex, int]] = []
        for level in sorted(self._levels, reverse=True):
            if len(out) >= n:
                break
            out.extend(
                (v, level) for _, v in self._ranked(level)[: n - len(out)]
            )
        return out

    def spectrum(self) -> dict[int, int]:
        """Map ``k -> |k-shell|`` for every non-empty shell, ascending."""
        levels = self._levels
        return {c: len(levels[c]) for c in sorted(levels)}


def top_cores(
    core: Mapping[Vertex, int], n: int
) -> list[tuple[Vertex, int]]:
    """The ``n`` vertices with the highest core numbers.

    Returns ``(vertex, core)`` pairs in descending core order; ties are
    broken by the stable :func:`~repro.engine.batch.vertex_sort_key`, so
    the answer is deterministic for any vertex types.  A full scan with a
    heap selection (``O(N log n)``): the served path answers from
    :meth:`CoreLevels.top` instead, and the tests keep this as its
    oracle.
    """
    if n <= 0:
        return []
    return heapq.nsmallest(
        n, core.items(), key=lambda item: (-item[1], vertex_sort_key(item[0]))
    )


def k_core_subgraph(
    graph: DynamicGraph, core: Mapping[Vertex, int], k: int
) -> DynamicGraph:
    """The ``k``-core as an induced subgraph."""
    return graph.subgraph(k_core_vertices(core, k))


def k_shell_vertices(core: Mapping[Vertex, int], k: int) -> set[Vertex]:
    """Vertices with core number exactly ``k`` (the ``k``-shell)."""
    return {v for v, c in core.items() if c == k}


def degeneracy(core: Mapping[Vertex, int]) -> int:
    """Maximum core number (0 for an empty graph)."""
    return max(core.values(), default=0)


def core_spectrum(core: Mapping[Vertex, int]) -> dict[int, int]:
    """Map ``k -> |k-shell|`` for every non-empty shell."""
    spectrum: dict[int, int] = {}
    for c in core.values():
        spectrum[c] = spectrum.get(c, 0) + 1
    return spectrum


def onion_layers(graph: DynamicGraph) -> dict[Vertex, int]:
    """Onion decomposition: the peeling round in which each vertex leaves.

    Refines the k-shell view used by the paper's visualization citations:
    within a shell, layers order vertices from the periphery inward.
    Round ``r`` removes every vertex whose remaining degree is below the
    current core level ``k`` simultaneously.
    """
    degrees = {v: graph.degree(v) for v in graph.vertices()}
    remaining = set(degrees)
    layer: dict[Vertex, int] = {}
    round_no = 0
    k = 1
    while remaining:
        peel = [v for v in remaining if degrees[v] < k]
        if not peel:
            k += 1
            continue
        round_no += 1
        for v in peel:
            layer[v] = round_no
            remaining.discard(v)
        for v in peel:
            for w in graph.adj[v]:
                if w in remaining:
                    degrees[w] -= 1
    return layer


def densest_core(
    graph: DynamicGraph, core: Mapping[Vertex, int]
) -> tuple[set[Vertex], float]:
    """The max-core vertex set and its edge density (``m' / n'``).

    The max-core is a classical 2-approximation seed for the densest
    subgraph; :mod:`repro.applications.densest` refines it.
    """
    top = degeneracy(core)
    vertices = k_core_vertices(core, top)
    if not vertices:
        return set(), 0.0
    inner_edges = 0
    for v in vertices:
        for w in graph.adj[v]:
            if w in vertices:
                inner_edges += 1
    inner_edges //= 2
    return vertices, inner_edges / len(vertices)
