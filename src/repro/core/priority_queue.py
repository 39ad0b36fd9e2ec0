"""HCL::priority_queue — single-partition MDList queue (Section III-D3-B).

Push places a node in the multi-dimensional list (O(log N)-class cost, the
source of the 30% gap to the FIFO queue in Fig 6c); pop takes the minimum
and relies on the background purge to compact logically-deleted nodes.

Priorities are non-negative integers (they must fit the MDList coordinate
space); values are arbitrary.  ``push(rank, priority, value)`` /
``pop(rank) -> ((priority, value), ok)``.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

from repro.core.container import DistributedContainer, Partition
from repro.rpc.future import RPCFuture
from repro.structures.mdlist import MDListPriorityQueue, PriorityQueueEmpty
from repro.structures.stats import OpStats

__all__ = ["HCLPriorityQueue"]


class HCLPriorityQueue(DistributedContainer):
    """Distributed min-priority queue."""

    OPERATIONS = ("push", "pop", "push_many", "pop_many", "peek", "size",
                  "batch")

    #: push values ride along the priority and are never interpreted
    #: server-side (ordering uses the priority alone).
    SIM_ONLY_VALUE_ARGS = {"push": 1}

    def __init__(self, runtime, name, partitions, **kwargs):
        super().__init__(runtime, name, partitions, **kwargs)
        if len(self.partitions) != 1:
            raise ValueError("HCL::priority_queue is single-partitioned")

    @property
    def home(self) -> Partition:
        return self.partitions[0]

    # -- server-side ops --------------------------------------------------------
    def _maybe_grow(self, part: Partition, entry_bytes: int) -> Optional[OpStats]:
        pq: MDListPriorityQueue = part.structure
        need = 2 * len(pq) * max(64, entry_bytes)
        if need > part.segment.size:
            part.segment.grow(max(need, 2 * part.segment.size))
            return OpStats(resized=True, resize_entries=len(pq))
        return None

    def _do_push(self, part: Partition, priority, value):
        entry_bytes = self._entry_bytes(priority, value)
        stats = part.structure.push(priority, value)
        grow = self._maybe_grow(part, entry_bytes)
        if grow is not None:
            stats = stats.merge(grow)
        return True, stats, entry_bytes

    def _do_pop(self, part: Partition):
        try:
            priority, value, stats = part.structure.pop_min()
        except PriorityQueueEmpty:
            return (None, False), OpStats(local_ops=1), 16
        return ((priority, value), True), stats, self._entry_bytes(priority, value)

    def _do_push_many(self, part: Partition, entries):
        stats = OpStats()
        total_bytes = 16
        for priority, value in entries:
            stats.absorb(part.structure.push(priority, value))
            total_bytes += self._entry_bytes(priority, value)
        grow = self._maybe_grow(part, total_bytes // max(1, len(entries)))
        if grow is not None:
            stats.absorb(grow)
        return True, stats, max(64, total_bytes // max(1, len(entries)))

    def _do_pop_many(self, part: Partition, count):
        stats = OpStats()
        out = []
        for _ in range(count):
            try:
                priority, value, s = part.structure.pop_min()
            except PriorityQueueEmpty:
                break
            out.append((priority, value))
            stats.absorb(s)
        return out, stats, 64

    def _do_peek(self, part: Partition):
        try:
            priority, value = part.structure.peek_min()
        except PriorityQueueEmpty:
            return (None, False), OpStats(local_ops=1), 16
        return ((priority, value), True), OpStats(local_ops=1, reads=1), 64

    def _do_size(self, part: Partition):
        return len(part.structure), OpStats(local_ops=1), 8

    # -- client API -----------------------------------------------------------------
    def push(self, rank: int, priority: int, value: Any = None):
        """Table I: F + L·log(N) + W."""
        result = yield from self._execute(
            rank, self.home, "push", (priority, value),
            payload_bytes=self._entry_bytes(priority, value),
        )
        return result

    def push_async(self, rank: int, priority: int, value: Any = None) -> RPCFuture:
        return self._execute_async(
            rank, self.home, "push", (priority, value),
            self._entry_bytes(priority, value),
        )

    def push_buffered(self, rank: int, priority: int, value: Any = None):
        """Generator: push through the aggregation buffer.

        With ``aggregation=0`` this is exactly :meth:`push`; otherwise
        remote pushes write-combine into one ``batch`` invocation per
        flush (the ISx key-scatter hot path).
        """
        result = yield from self._buffer_op(
            rank, self.home, "push", (priority, value),
            payload_bytes=self._entry_bytes(priority, value),
        )
        return result

    def pop(self, rank: int):
        """Table I: F + L + R.  Returns ``((priority, value), ok)``."""
        result = yield from self._execute(
            rank, self.home, "pop", (), payload_bytes=16
        )
        entry, ok = result
        return (tuple(entry) if ok else None), ok

    def pop_async(self, rank: int) -> RPCFuture:
        return self._execute_async(rank, self.home, "pop", (), 16)

    def push_many(self, rank: int, entries: Sequence[Tuple[int, Any]]):
        """Vector push — Table I: F + L·log(N) + E·W."""
        entries = [tuple(e) for e in entries]
        payload = sum(self._entry_bytes(p, v) for p, v in entries) or 16
        result = yield from self._execute(
            rank, self.home, "push_many", (entries,), payload_bytes=payload
        )
        return result

    def pop_many(self, rank: int, count: int):
        """Vector pop — Table I: F + L + E·R."""
        result = yield from self._execute(
            rank, self.home, "pop_many", (count,), payload_bytes=16
        )
        return [tuple(e) for e in result]

    def peek(self, rank: int):
        result = yield from self._execute(
            rank, self.home, "peek", (), payload_bytes=16
        )
        entry, ok = result
        return (tuple(entry) if ok else None), ok

    def size(self, rank: int):
        result = yield from self._execute(
            rank, self.home, "size", (), payload_bytes=8
        )
        return result
