"""Lazy-deletion min-heap: the jump structure ``B`` of ``OrderInsert``.

``B`` holds ``(key, vertex)`` pairs for the vertices of ``O_K`` that are
still worth visiting (``deg*(v) > 0`` or ``deg+(v) > K``), keyed by the
block's integer ``order_key`` (an OM label or a treap rank), so entries
compare in C.  The scan of ``OrderInsert`` repeatedly asks for the
*earliest* such vertex and jumps straight to it, skipping everything in
between (the paper's Case-2a ranges).  Within one keying, no two
vertices of the scan's heap share a key, so ``heapq`` never falls
through to comparing the vertices themselves (which may be of mixed,
mutually unorderable types).  When the keys go stale wholesale — an OM
relabeling — :meth:`LazyMinHeap.rekey` rebuilds the heap from the live
items under fresh keys.

Entries are discarded lazily: :meth:`discard` only drops the item from the
live map, and stale heap entries are skipped during :meth:`peek`/:meth:`pop`.
Re-inserting a previously discarded item is allowed (``deg*`` can drop to 0
and later become positive again); a duplicate physical entry is pushed but
validity is always judged against the live map, so correctness is unaffected.

Amortized cost: each physical entry is pushed and popped at most once, so a
sequence of ``p`` pushes costs ``O(p log p)`` overall regardless of how many
discards interleave.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Hashable, Optional


class LazyMinHeap:
    """Min-heap over ``(key, item)`` pairs with O(1)-ish lazy discards."""

    def __init__(self) -> None:
        self._heap: list[tuple[Any, Any]] = []
        self._live: dict[Hashable, Any] = {}

    def __len__(self) -> int:
        """Number of *live* items (stale heap entries are not counted)."""
        return len(self._live)

    def __bool__(self) -> bool:
        return bool(self._live)

    def __contains__(self, item: Hashable) -> bool:
        return item in self._live

    def key_of(self, item: Hashable) -> Any:
        """Current key of a live item.  Raises :class:`KeyError` if absent."""
        return self._live[item]

    def push(self, key: Any, item: Hashable) -> None:
        """Insert ``item`` with priority ``key``.

        If the item is already live with the same key this is a no-op; if it
        is live with a different key the entry is re-keyed (old physical
        entry becomes stale).
        """
        current = self._live.get(item)
        if current is not None and current == key:
            return
        self._live[item] = key
        heapq.heappush(self._heap, (key, item))

    def discard(self, item: Hashable) -> bool:
        """Logically remove ``item``.  Returns ``True`` if it was live."""
        return self._live.pop(item, None) is not None

    def peek(self) -> Optional[tuple[Any, Any]]:
        """The live ``(key, item)`` with the smallest key, or ``None``.

        Physically pops stale entries encountered on the way.
        """
        heap = self._heap
        while heap:
            key, item = heap[0]
            if self._live.get(item) == key:
                return key, item
            heapq.heappop(heap)
        return None

    def pop(self) -> Optional[tuple[Any, Any]]:
        """Remove and return the smallest live ``(key, item)``, or ``None``."""
        top = self.peek()
        if top is None:
            return None
        heapq.heappop(self._heap)
        del self._live[top[1]]
        return top

    def rekey(self, key_of: Callable[[Hashable], Any]) -> None:
        """Re-key every live item with ``key_of(item)`` and rebuild the
        heap from the live items alone, dropping every stale entry."""
        live = self._live
        for item in live:
            live[item] = key_of(item)
        self._heap = [(key, item) for item, key in live.items()]
        heapq.heapify(self._heap)

    def clear(self) -> None:
        """Drop all entries, live and stale."""
        self._heap.clear()
        self._live.clear()
