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
* ``pop_min`` — the minimum is the first unmarked node in pre-order
  (which is sorted-key order); nodes are *logically* deleted (marked) and
  a **purge pass** physically unlinks the marked nodes when their count
  passes a threshold, exactly the paper's background-purge behaviour.
  Stats expose hops and purged counts.

The walk from the head to the first unmarked node is charged but not
performed: every node ahead of it is marked, so its hop count is one plus
the number of marked keys below the live minimum.  An exact index kept
under the lock — ``_nodes`` (key to node), ``_live`` (a heap of the
unmarked keys, no stale entries) and ``_marked_keys`` (the marked keys,
sorted) — finds the node and that count in O(log n), and gives the purge
its nodes in ascending order.

Duplicate priorities are allowed (each node carries a FIFO of values,
resolving "conflicts based on arrival time and priority"); popping a run
of equal priorities costs O(1) per value.
"""

from __future__ import annotations

import heapq
import threading
from bisect import bisect_left, insort
from collections import deque
from typing import Any, Deque, Dict, Iterator, List, Optional, Tuple, Union

from repro.structures.stats import OpStats

__all__ = ["MDListPriorityQueue", "PriorityQueueEmpty"]


class PriorityQueueEmpty(Exception):
    """pop on an empty priority queue."""


class _MNode:
    __slots__ = ("key", "coord", "values", "children", "marked")

    def __init__(self, key: int, coord: Tuple[int, ...], dims: int):
        self.key = key
        self.coord = coord
        # FIFO among equal priorities.  A node holding two or more values
        # holds a deque (O(1) pops from the front); a one-slot list costs
        # 64 bytes against a deque's 760, and most nodes hold one value.
        self.values: Union[List[Any], Deque[Any]] = []
        self.children: List[Optional[_MNode]] = [None] * dims
        self.marked = False


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
        self._divisors = tuple(base ** d for d in range(dims - 1, -1, -1))
        head_coord = tuple([-1] * dims)  # strictly below every real coordinate
        self._head = _MNode(-1, head_coord, dims)  # sentinel below all keys
        self._head.marked = True
        self._count = 0
        self._nodes: Dict[int, _MNode] = {}  # every node in the list
        self._live: List[int] = []  # heap of the unmarked nodes' keys
        self._marked_keys: List[int] = []  # sorted keys of the marked nodes
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
        base = self.base
        return tuple([(key // div) % base for div in self._divisors])

    # -- push -----------------------------------------------------------------------
    def push(self, key: int, value: Any) -> OpStats:
        stats = OpStats()
        coord = self.coordinate(key)
        with self._lock:
            node, parent, dim, adopt_dim, hops = self._locate(coord)
            stats.local_ops += hops
            if node is not None:
                # Same priority: append in arrival order.
                values = node.values
                if len(values) == 1:
                    node.values = values = deque(values)
                values.append(value)
                if node.marked:
                    node.marked = False
                    marked_keys = self._marked_keys
                    del marked_keys[bisect_left(marked_keys, key)]
                    heapq.heappush(self._live, key)
                stats.writes += 1
                stats.cas_ops += 1
            else:
                fresh = _MNode(key, coord, self.dims)
                fresh.values.append(value)
                self._splice(fresh, parent, dim, adopt_dim)
                self._nodes[key] = fresh
                heapq.heappush(self._live, key)
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
        hops = 0
        # A tie in dimension d stays on the node and goes on to d + 1.
        for d, c in enumerate(coord):
            while curr is not None and c > curr.coord[d]:
                pred, pred_dim = curr, d
                curr = curr.children[d]
                hops += 1
            if curr is None or c < curr.coord[d]:
                return None, pred, pred_dim, d, hops
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
            stats.reads += 1
            stats.cas_ops += 1  # the deletion mark
            values = node.values
            # Two or more values are held in a deque; see ``_MNode``.
            value = values.popleft() if len(values) > 1 else values.pop()
            self._count -= 1
            if not values:
                node.marked = True
                heapq.heappop(self._live)  # ``node`` is the live minimum
                insort(self._marked_keys, node.key)
                if len(self._marked_keys) >= self.PURGE_THRESHOLD:
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

    def _find_min(self) -> Tuple[_MNode, int]:
        """First unmarked node in sorted order, and the hops of the walk
        to it from the head.

        Pre-order is sorted-key order and every node ahead of the first
        unmarked one is marked, so the walk visits exactly the marked
        nodes below the live minimum, then the minimum itself.  The
        caller guarantees a live node exists.
        """
        node = self._nodes[self._live[0]]
        return node, bisect_left(self._marked_keys, node.key) + 1

    def _purge(self) -> int:
        """Physically unlink the marked nodes (the background purge pass).

        The marked nodes are visited in ascending key order.  A marked
        prefix node is the list's first node by the time its turn comes,
        so it sits at ``head.children[0]``; any other marked node's parent
        slot is found by ``_locate``.  ``_unlink`` replaces each node there
        by its heir.  The MDList's shape is a function of the key set it
        holds, so the result is the shape a rebuild from the live nodes
        would give, at O(marked * (dims + base)) instead of O(N).  Returns
        the number of nodes removed.
        """
        head = self._head
        nodes = self._nodes
        for key in self._marked_keys:
            node = nodes.pop(key)
            if head.children[0] is node:
                self._unlink(node, head, 0)
            else:
                _node, pred, pred_dim, _adopt, _hops = self._locate(node.coord)
                self._unlink(node, pred, pred_dim)
        removed = len(self._marked_keys)
        self._marked_keys = []
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
        reachable = {}
        live = []
        marked = []
        last_key = -1
        for node in self._preorder():
            assert self.coordinate(node.key) == node.coord, "coord mismatch"
            assert node.key > last_key, (
                f"preorder not sorted: {node.key} after {last_key}"
            )
            last_key = node.key
            reachable[node.key] = node
            assert node.marked == (not node.values), (
                f"node {node.key} marked={node.marked} with "
                f"{len(node.values)} values"
            )
            assert len(node.values) < 2 or isinstance(node.values, deque), (
                f"node {node.key} holds {len(node.values)} values in a list"
            )
            if node.marked:
                marked.append(node.key)
            else:
                live.append(node.key)
                seen += len(node.values)
        assert seen == self._count, f"live values {seen} != count {self._count}"

        # The index: exact, no stale entries.
        assert self._nodes == reachable, "node index != reachable nodes"
        assert sorted(self._live) == live, "live heap != unmarked keys"
        assert self._marked_keys == marked, "marked keys != marked nodes"

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
