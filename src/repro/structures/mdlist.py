"""Multi-dimensional linked-list priority queue after Zhang & Dechev (TPDS'15).

HCL's ``HCL::priority_queue`` uses "a lock-free implementation based on a
multi-dimensional linked list [33] ... a background purge methodology to
clean up logically invalidated nodes" (Section III-D3).

The MDList maps each priority to a **D-dimensional coordinate vector** (a
base-:math:`N` decomposition of the key), arranging nodes into an ordered
D-dimensional grid: a node's children array has one slot per dimension, and
coordinate order equals priority order.  Operations:

* ``push`` — compute the coordinate, descend dimension-by-dimension to the
  predecessor, splice the new node in (one CAS at the attach point).  Cost
  is O(D + N^(1/D)) hops — logarithmic-ish, matching Table I's
  ``L·log(N) + W`` for push.
* ``pop_min`` — the minimum is the leftmost path; nodes are *logically*
  deleted (marked) and a **purge pass** physically unlinks batches of
  marked nodes when their count passes a threshold, exactly the paper's
  background-purge behaviour.  Stats expose hops and purged counts.

Duplicate priorities are allowed (each node carries a FIFO list of values,
resolving "conflicts based on arrival time and priority").
"""

from __future__ import annotations

import threading
from typing import Any, Iterator, List, Optional, Tuple

from repro.structures.stats import OpStats

__all__ = ["MDListPriorityQueue", "PriorityQueueEmpty"]


class PriorityQueueEmpty(Exception):
    """pop on an empty priority queue."""


class _MNode:
    __slots__ = ("key", "coord", "values", "children", "marked", "pending")

    def __init__(self, key: int, coord: Tuple[int, ...], dims: int):
        self.key = key
        self.coord = coord
        self.values: List[Any] = []  # FIFO among equal priorities
        self.children: List[Optional[_MNode]] = [None] * dims
        self.marked = False
        self.pending = False  # listed in the queue's _pending purge list


class MDListPriorityQueue:
    """Min-priority queue over integer priorities (lower pops first).

    ``dims`` and ``base`` set the coordinate space: priorities must fit in
    ``base ** dims``.  The default (8 dims, base 16) covers 32-bit
    priorities with at most ``8 + 16`` hops per operation.
    """

    PURGE_THRESHOLD = 64

    def __init__(self, dims: int = 8, base: int = 16):
        if dims < 1 or base < 2:
            raise ValueError("dims must be >= 1 and base >= 2")
        self.dims = dims
        self.base = base
        self.key_limit = base ** dims
        head_coord = tuple([-1] * dims)  # strictly below every real coordinate
        self._head = _MNode(-1, head_coord, dims)  # sentinel below all keys
        self._head.marked = True
        self._count = 0
        self._marked_count = 0
        self._pending: List[_MNode] = []  # marked since the last purge
        self._stamp = 0
        self._lock = threading.Lock()
        self.purges_total = 0

    def __len__(self) -> int:
        return self._count

    @classmethod
    def for_key_space(cls, max_key: int, base: int = 16) -> "MDListPriorityQueue":
        """Build a queue whose coordinate space covers ``[0, max_key]``."""
        if max_key < 0:
            raise ValueError("max_key must be non-negative")
        dims = 1
        while base ** dims <= max_key:
            dims += 1
        return cls(dims=dims, base=base)

    @property
    def empty(self) -> bool:
        return self._count == 0

    # -- coordinates ------------------------------------------------------------
    def coordinate(self, key: int) -> Tuple[int, ...]:
        """Base-N decomposition, most-significant dimension first."""
        if not 0 <= key < self.key_limit:
            raise ValueError(
                f"priority {key} outside [0, {self.key_limit}) for "
                f"dims={self.dims}, base={self.base}"
            )
        coord = []
        for d in range(self.dims - 1, -1, -1):
            coord.append((key // (self.base ** d)) % self.base)
        return tuple(coord)

    # -- push -----------------------------------------------------------------------
    def push(self, key: int, value: Any) -> OpStats:
        stats = OpStats()
        coord = self.coordinate(key)
        with self._lock:
            node, parent, dim, adopt_dim, hops = self._locate(coord)
            stats.local_ops += hops
            if node is not None:
                # Same priority: append in arrival order.
                node.values.append(value)
                if node.marked:
                    node.marked = False
                    self._marked_count -= 1
                stats.writes += 1
                stats.cas_ops += 1
            else:
                fresh = _MNode(key, coord, self.dims)
                fresh.values.append(value)
                self._splice(fresh, parent, dim, adopt_dim)
                stats.writes += 1
                stats.cas_ops += 1  # the attach-point CAS
            self._count += 1
        return stats

    def _splice(self, fresh: _MNode, pred: _MNode, pred_dim: int,
                adopt_dim: int) -> None:
        """Install ``fresh`` at ``pred.children[pred_dim]``.

        The displaced occupant (if any) is pushed down to
        ``fresh.children[adopt_dim]``, and — the *child adoption* step of
        the Zhang-Dechev algorithm — its children in dimensions
        ``[pred_dim, adopt_dim)`` are transferred to ``fresh``, because a
        node attached at dimension ``adopt_dim`` may only keep children in
        dimensions >= ``adopt_dim``.
        """
        curr = pred.children[pred_dim]
        if curr is not None:
            for j in range(pred_dim, adopt_dim):
                fresh.children[j] = curr.children[j]
                curr.children[j] = None
            fresh.children[adopt_dim] = curr
        pred.children[pred_dim] = fresh

    def _locate(self, coord: Tuple[int, ...]):
        """The Zhang-Dechev predecessor search.

        Returns ``(exact_node_or_None, pred, pred_dim, adopt_dim, hops)``:
        a new node for ``coord`` belongs in ``pred.children[pred_dim]``
        (the slot ``curr`` currently occupies), adopting the displaced
        ``curr`` at dimension ``adopt_dim``.

        The walk advances one dimension at a time: while the key exceeds
        the current node in dimension ``d``, follow ``children[d]``; on a
        tie, *stay on the node* and move to dimension ``d+1`` (the node's
        higher-dimension children cover keys sharing its coordinate
        prefix); when the key is smaller, the insertion point is found.
        """
        pred = self._head
        pred_dim = 0
        curr: Optional[_MNode] = self._head
        d = 0
        hops = 0
        while d < self.dims:
            while curr is not None and coord[d] > curr.coord[d]:
                pred, pred_dim = curr, d
                curr = curr.children[d]
                hops += 1
            if curr is None or coord[d] < curr.coord[d]:
                return None, pred, pred_dim, d, hops
            d += 1  # equal in dimension d: descend a dimension in place
        return curr, pred, pred_dim, self.dims - 1, hops

    # -- pop ---------------------------------------------------------------------------
    def pop_min(self) -> Tuple[int, Any, OpStats]:
        """Remove and return ``(priority, value)`` of the minimum."""
        stats = OpStats()
        with self._lock:
            if self._count == 0:
                raise PriorityQueueEmpty()
            node, hops = self._find_min()
            stats.local_ops += hops
            if node is None:  # pragma: no cover - count said otherwise
                raise PriorityQueueEmpty()
            stats.reads += 1
            stats.cas_ops += 1  # the deletion mark
            value = node.values.pop(0)
            self._count -= 1
            if not node.values:
                node.marked = True
                self._marked_count += 1
                if not node.pending:  # a revived node is already listed
                    node.pending = True
                    self._pending.append(node)
                if self._marked_count >= self.PURGE_THRESHOLD:
                    stats.relocations += self._purge()
            return node.key, value, stats

    def peek_min(self) -> Tuple[int, Any]:
        with self._lock:
            if self._count == 0:
                raise PriorityQueueEmpty()
            node, _hops = self._find_min()
            return node.key, node.values[0]

    def _preorder(self) -> Iterator[_MNode]:
        """Nodes in *sorted key order*.

        Pre-order with children visited from the highest dimension down
        enumerates coordinates lexicographically: a node precedes all its
        children, the dimension-``d`` child subtree precedes the
        dimension-``d-1`` one.
        """
        stack = [self._head]
        while stack:
            node = stack.pop()
            if node is not self._head:
                yield node
            # Push dim 0 first so the highest dimension pops (visits) first.
            for child in node.children:
                if child is not None:
                    stack.append(child)

    def _find_min(self) -> Tuple[Optional[_MNode], int]:
        """First unmarked node in sorted order — skips logically-deleted
        nodes, whose accumulation the purge pass bounds."""
        hops = 0
        for node in self._preorder():
            hops += 1
            if not node.marked:
                return node, hops
        return None, hops

    def _purge(self) -> int:
        """Physically unlink the marked nodes (the background purge pass).

        Only the nodes ``pop_min`` marked since the last purge are visited;
        those a push has revived are skipped.  ``_locate`` finds each
        still-marked node's exact parent slot, and ``_unlink`` replaces it
        there by its heir.  The MDList's shape is a function of the key set
        it holds, so the result is the shape a rebuild from the live nodes
        would give, at O(marked * (dims + base)) instead of O(N).  Returns
        the number of nodes removed.
        """
        removed = 0
        for node in self._pending:
            node.pending = False
            if not node.marked:
                continue
            _node, pred, pred_dim, _adopt, _hops = self._locate(node.coord)
            self._unlink(node, pred, pred_dim)
            removed += 1
        self._pending = []
        self._marked_count = 0
        self.purges_total += 1
        return removed

    def _unlink(self, node: _MNode, pred: _MNode, pred_dim: int) -> None:
        """Remove ``node`` from ``pred.children[pred_dim]``.

        The reverse of ``_splice``'s child adoption: the *heir*, ``node``'s
        highest-dimension child, holds the smallest key of ``node``'s
        subtree and takes its slot.  Every other child at dimension ``j``
        in ``[pred_dim, heir_dim)`` first differs from the heir at ``j``
        too, so the heir inherits it there; the heir itself has no children
        below ``heir_dim``, the dimension it was attached at.
        """
        children = node.children
        heir_dim = self.dims - 1
        while heir_dim >= pred_dim and children[heir_dim] is None:
            heir_dim -= 1
        if heir_dim < pred_dim:
            pred.children[pred_dim] = None
            return
        heir = children[heir_dim]
        heir.children[pred_dim:heir_dim] = children[pred_dim:heir_dim]
        pred.children[pred_dim] = heir

    # -- introspection ----------------------------------------------------------------
    def items(self) -> Iterator[Tuple[int, Any]]:
        """All live (priority, value) pairs, in priority order."""
        for node in self._preorder():
            if not node.marked:
                for v in node.values:
                    yield node.key, v

    def check_invariants(self) -> None:
        seen = 0
        marked = 0
        last_key = -1
        for node in self._preorder():
            assert self.coordinate(node.key) == node.coord, "coord mismatch"
            assert node.key > last_key, (
                f"preorder not sorted: {node.key} after {last_key}"
            )
            last_key = node.key
            if node.marked:
                marked += 1
                assert node.pending, f"marked node {node.key} not pending"
            else:
                seen += len(node.values)
        assert seen == self._count, f"live values {seen} != count {self._count}"
        assert marked == self._marked_count, (
            f"marked nodes {marked} != marked count {self._marked_count}"
        )

        # Structural: every child is adopted at its first-diff dimension,
        # and no node has a child below the dimension it is attached at
        # (the head counts as attached at dimension 0).
        stack = [(self._head, 0)]
        while stack:
            node, attached = stack.pop()
            for d, child in enumerate(node.children):
                if child is None:
                    continue
                assert d >= attached, (
                    f"node {node.key} attached at {attached} has a child "
                    f"at dimension {d}"
                )
                stack.append((child, d))
                if node is self._head:
                    continue
                assert child.coord[:d] == node.coord[:d], "prefix broken"
                assert child.coord[d] > node.coord[d], "order broken"
