"""Order-statistic treap: the ``A_k`` structure of the paper (Section VI).

The treap stores a *sequence* of distinct hashable items (no search keys —
positions are defined purely by where items are inserted).  It supports:

* ``rank(item)`` — 0-based position, in ``O(log n)``;
* ``precedes(a, b)`` — order test, two rank queries;
* positional insertion (front, back, before/after an anchor item) and
  removal, in ``O(log n)``;
* ``select(i)`` — the item at position ``i``;
* in-order iteration.

The paper notes that a plain order-statistic tree cannot *locate* the node
holding a given vertex (you would need the rank to walk down from the root,
but the rank is what you are trying to compute).  The fix, which we adopt, is
a direct ``item -> node`` hash map; ``rank`` then walks *up* from the node to
the root, accumulating left-subtree sizes, so no top-down search is ever
needed.

Balancing uses treap rotations driven by random priorities (min-heap on
priority).  Priorities come from a caller-supplied :class:`random.Random`
so that a maintainer can be made fully deterministic with a seed.

All operations are iterative — no recursion — so very long orders (the
paper's ``O_1`` has two thousand vertices in the running example alone) do
not hit the interpreter recursion limit.
"""

from __future__ import annotations

import random
from typing import Any, Hashable, Iterable, Iterator, Optional

from repro.structures.sequence import SequenceStats


class _Node:
    """A treap node; one per stored item."""

    __slots__ = ("item", "prio", "left", "right", "parent", "size")

    def __init__(self, item: Hashable, prio: float) -> None:
        self.item = item
        self.prio = prio
        self.left: Optional[_Node] = None
        self.right: Optional[_Node] = None
        self.parent: Optional[_Node] = None
        self.size = 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_Node({self.item!r}, size={self.size})"


def _size(node: Optional[_Node]) -> int:
    return node.size if node is not None else 0


class OrderStatisticTreap:
    """A randomized balanced sequence with ``O(log n)`` rank queries.

    Parameters
    ----------
    items:
        Optional iterable appended in order (equivalent to repeated
        :meth:`insert_back`).
    rng:
        Source of node priorities.  Supplying a seeded ``random.Random``
        makes the structure (and everything built on it) deterministic.
    stats:
        Shared :class:`~repro.structures.sequence.SequenceStats` counters
        (``order_queries``, ``rank_walk_steps``); a private instance is
        created when omitted.
    """

    def __init__(
        self,
        items: Iterable[Hashable] = (),
        rng: Optional[random.Random] = None,
        stats: Optional[SequenceStats] = None,
    ) -> None:
        self._rng = rng if rng is not None else random.Random()
        self.stats = stats if stats is not None else SequenceStats()
        self._root: Optional[_Node] = None
        self._nodes: dict[Hashable, _Node] = {}
        for item in items:
            self.insert_back(item)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return _size(self._root)

    def __bool__(self) -> bool:
        return self._root is not None

    def __contains__(self, item: Hashable) -> bool:
        return item in self._nodes

    def __iter__(self) -> Iterator[Hashable]:
        """In-order (left-to-right) iteration over stored items."""
        stack: list[_Node] = []
        node = self._root
        while stack or node is not None:
            while node is not None:
                stack.append(node)
                node = node.left
            node = stack.pop()
            yield node.item
            node = node.right

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OrderStatisticTreap({list(self)!r})"

    def to_list(self) -> list[Any]:
        """The stored sequence as a plain list (left to right)."""
        return list(self)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def rank(self, item: Hashable) -> int:
        """0-based position of ``item``; ``O(log n)`` by walking to the root.

        Raises :class:`KeyError` if the item is not stored.  Walk length
        is charged to ``stats.rank_walk_steps`` — the per-query cost the
        OM backend replaces with a label comparison.
        """
        node = self._nodes[item]
        r = _size(node.left)
        steps = 0
        while node.parent is not None:
            parent = node.parent
            if parent.right is node:
                r += _size(parent.left) + 1
            node = parent
            steps += 1
        self.stats.rank_walk_steps += steps
        return r

    def precedes(self, a: Hashable, b: Hashable) -> bool:
        """``True`` iff ``a`` appears strictly before ``b`` in the sequence."""
        self.stats.order_queries += 1
        return self.rank(a) < self.rank(b)

    def order_key(self, item: Hashable) -> int:
        """The item's current rank as a frozen comparable token.

        Treap order keys are plain ranks: cheap to compare but O(log n)
        to produce, and they go stale if items *before* ``item`` are
        inserted or removed.  ``OrderInsert`` only ever compares tokens
        across the scan cursor, where relative positions are stable, so
        frozen ranks are safe there (see ``repro.core.insertion``).  The
        treap never relabels, so its keys never need the re-keying the
        OM backend's labels get after a relabeling.
        """
        self.stats.order_queries += 1
        return self.rank(item)

    def select(self, index: int) -> Any:
        """The item at 0-based position ``index``.

        Raises :class:`IndexError` when out of range.
        """
        if index < 0 or index >= len(self):
            raise IndexError(f"position {index} out of range for size {len(self)}")
        node = self._root
        while True:
            assert node is not None
            left = _size(node.left)
            if index < left:
                node = node.left
            elif index == left:
                return node.item
            else:
                index -= left + 1
                node = node.right

    def first(self) -> Any:
        """Leftmost item.  Raises :class:`IndexError` on an empty treap."""
        if self._root is None:
            raise IndexError("first() on empty treap")
        node = self._root
        while node.left is not None:
            node = node.left
        return node.item

    def last(self) -> Any:
        """Rightmost item.  Raises :class:`IndexError` on an empty treap."""
        if self._root is None:
            raise IndexError("last() on empty treap")
        node = self._root
        while node.right is not None:
            node = node.right
        return node.item

    def successor(self, item: Hashable) -> Optional[Any]:
        """Item immediately after ``item``, or ``None`` if it is the last."""
        node = self._nodes[item]
        if node.right is not None:
            node = node.right
            while node.left is not None:
                node = node.left
            return node.item
        while node.parent is not None and node.parent.right is node:
            node = node.parent
        return node.parent.item if node.parent is not None else None

    def predecessor(self, item: Hashable) -> Optional[Any]:
        """Item immediately before ``item``, or ``None`` if it is the first."""
        node = self._nodes[item]
        if node.left is not None:
            node = node.left
            while node.right is not None:
                node = node.right
            return node.item
        while node.parent is not None and node.parent.left is node:
            node = node.parent
        return node.parent.item if node.parent is not None else None

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def insert_front(self, item: Hashable) -> None:
        """Insert ``item`` as the new first element."""
        node = self._new_node(item)
        if self._root is None:
            self._root = node
            return
        anchor = self._root
        while anchor.left is not None:
            anchor = anchor.left
        anchor.left = node
        node.parent = anchor
        self._fix_after_attach(node)

    def insert_back(self, item: Hashable) -> None:
        """Insert ``item`` as the new last element."""
        node = self._new_node(item)
        if self._root is None:
            self._root = node
            return
        anchor = self._root
        while anchor.right is not None:
            anchor = anchor.right
        anchor.right = node
        node.parent = anchor
        self._fix_after_attach(node)

    def insert_after(self, anchor_item: Hashable, item: Hashable) -> None:
        """Insert ``item`` immediately after ``anchor_item``.

        Raises :class:`KeyError` if the anchor is absent.
        """
        anchor = self._nodes[anchor_item]
        node = self._new_node(item)
        if anchor.right is None:
            anchor.right = node
            node.parent = anchor
        else:
            succ = anchor.right
            while succ.left is not None:
                succ = succ.left
            succ.left = node
            node.parent = succ
        self._fix_after_attach(node)

    def insert_before(self, anchor_item: Hashable, item: Hashable) -> None:
        """Insert ``item`` immediately before ``anchor_item``."""
        anchor = self._nodes[anchor_item]
        node = self._new_node(item)
        if anchor.left is None:
            anchor.left = node
            node.parent = anchor
        else:
            pred = anchor.left
            while pred.right is not None:
                pred = pred.right
            pred.right = node
            node.parent = pred
        self._fix_after_attach(node)

    def extend_back(self, items: Iterable[Hashable]) -> None:
        """Append several items, preserving their given order."""
        for item in items:
            self.insert_back(item)

    def extend_front(self, items: Iterable[Hashable]) -> None:
        """Prepend several items so they appear in their given order.

        ``extend_front([a, b, c])`` on sequence ``[x]`` yields
        ``[a, b, c, x]`` — exactly the "insert ``V*`` at the beginning of
        ``O_{K+1}`` preserving relative order" step of ``OrderInsert``.
        """
        previous: Optional[Hashable] = None
        for item in items:
            if previous is None:
                self.insert_front(item)
            else:
                self.insert_after(previous, item)
            previous = item

    def move_after(self, anchor_item: Hashable, item: Hashable) -> None:
        """Relocate ``item`` to immediately after ``anchor_item``.

        Remove-then-reinsert: treap order keys are frozen rank values,
        and the scan's cross-cursor comparisons stay valid because a
        backward move never changes the rank of any vertex after the
        cursor.
        """
        if anchor_item == item:
            raise ValueError(f"cannot move {item!r} after itself")
        self.remove(item)
        self.insert_after(anchor_item, item)

    def move_chain_after(
        self, anchor_item: Hashable, items: Iterable[Hashable]
    ) -> None:
        """Relocate ``items``, in their given order, to immediately after
        ``anchor_item`` — a loop of :meth:`move_after`, each item landing
        after the previous one.

        Raises :class:`KeyError` on a missing item and
        :class:`ValueError` when the anchor is in the chain or an item
        repeats, before moving anything.
        """
        chain = list(items)
        for item in (anchor_item, *chain):
            if item not in self._nodes:
                raise KeyError(item)
        if len(set(chain)) != len(chain):
            raise ValueError("an item repeats in the moved chain")
        if anchor_item in chain:
            raise ValueError(f"cannot move {anchor_item!r} after itself")
        for item in chain:
            self.move_after(anchor_item, item)
            anchor_item = item

    def remove(self, item: Hashable) -> None:
        """Remove ``item`` from the sequence.

        Raises :class:`KeyError` if absent.
        """
        node = self._nodes.pop(item)
        # Rotate the node down until it is a leaf, then detach it.
        while node.left is not None or node.right is not None:
            if node.left is None:
                self._rotate_left(node)
            elif node.right is None:
                self._rotate_right(node)
            elif node.left.prio <= node.right.prio:
                self._rotate_right(node)
            else:
                self._rotate_left(node)
        parent = node.parent
        if parent is None:
            self._root = None
        else:
            if parent.left is node:
                parent.left = None
            else:
                parent.right = None
            node.parent = None
            walker: Optional[_Node] = parent
            while walker is not None:
                walker.size -= 1
                walker = walker.parent

    def clear(self) -> None:
        """Remove every item."""
        self._root = None
        self._nodes.clear()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _new_node(self, item: Hashable) -> _Node:
        if item in self._nodes:
            raise ValueError(f"item {item!r} already stored in treap")
        node = _Node(item, self._rng.random())
        self._nodes[item] = node
        return node

    def _fix_after_attach(self, node: _Node) -> None:
        """After attaching a leaf: bump ancestor sizes, restore heap order."""
        walker = node.parent
        while walker is not None:
            walker.size += 1
            walker = walker.parent
        parent = node.parent
        while parent is not None and node.prio < parent.prio:
            if parent.left is node:
                self._rotate_right(parent)
            else:
                self._rotate_left(parent)
            parent = node.parent

    def _rotate_right(self, node: _Node) -> None:
        """Rotate ``node``'s left child up over ``node``."""
        pivot = node.left
        assert pivot is not None
        self._replace_in_parent(node, pivot)
        node.left = pivot.right
        if pivot.right is not None:
            pivot.right.parent = node
        pivot.right = node
        node.parent = pivot
        node.size = _size(node.left) + _size(node.right) + 1
        pivot.size = _size(pivot.left) + node.size + 1

    def _rotate_left(self, node: _Node) -> None:
        """Rotate ``node``'s right child up over ``node``."""
        pivot = node.right
        assert pivot is not None
        self._replace_in_parent(node, pivot)
        node.right = pivot.left
        if pivot.left is not None:
            pivot.left.parent = node
        pivot.left = node
        node.parent = pivot
        node.size = _size(node.left) + _size(node.right) + 1
        pivot.size = node.size + _size(pivot.right) + 1

    def _replace_in_parent(self, node: _Node, replacement: _Node) -> None:
        parent = node.parent
        replacement.parent = parent
        if parent is None:
            self._root = replacement
        elif parent.left is node:
            parent.left = replacement
        else:
            parent.right = replacement

    def check_invariants(self) -> None:
        """Audit structural invariants (sizes, parents, heap order).

        Used by the test-suite; raises :class:`AssertionError` on violation.
        """
        count = 0
        stack: list[_Node] = []
        node = self._root
        if node is not None and node.parent is not None:
            raise AssertionError("root has a parent")
        while stack or node is not None:
            while node is not None:
                stack.append(node)
                node = node.left
            node = stack.pop()
            count += 1
            expected = _size(node.left) + _size(node.right) + 1
            if node.size != expected:
                raise AssertionError(f"size mismatch at {node.item!r}")
            for child in (node.left, node.right):
                if child is not None:
                    if child.parent is not node:
                        raise AssertionError(f"parent mismatch at {child.item!r}")
                    if child.prio < node.prio:
                        raise AssertionError(f"heap violation at {child.item!r}")
            node = node.right
        if count != len(self._nodes):
            raise AssertionError("node map out of sync with tree")
