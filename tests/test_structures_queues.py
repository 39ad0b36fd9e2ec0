"""Tests for the optimistic FIFO queue and the MDList priority queue."""

import heapq
import random
import threading

import pytest

from repro.structures import MDListPriorityQueue, OptimisticQueue
from repro.structures.lfqueue import QueueEmpty
from repro.structures.mdlist import PriorityQueueEmpty, _MNode


class TestOptimisticQueue:
    def test_fifo_order(self):
        q = OptimisticQueue()
        for i in range(50):
            q.push(i)
        assert [q.pop()[0] for _ in range(50)] == list(range(50))

    def test_empty_pop_raises(self):
        q = OptimisticQueue()
        with pytest.raises(QueueEmpty):
            q.pop()
        assert q.empty

    def test_interleaved_push_pop(self):
        q = OptimisticQueue()
        q.push("a")
        q.push("b")
        assert q.pop()[0] == "a"
        q.push("c")
        assert q.pop()[0] == "b"
        assert q.pop()[0] == "c"
        assert len(q) == 0

    def test_push_stats(self):
        q = OptimisticQueue()
        stats = q.push(1)
        assert stats.cas_ops == 1  # the tail CAS
        assert stats.writes == 1

    def test_fix_list_repairs_deferred_prev(self):
        """The Ladan-Mozes/Shavit repair pass (Section III-D3-A)."""
        q = OptimisticQueue()
        q.push(1, defer_prev=True)
        q.push(2, defer_prev=True)
        q.push(3, defer_prev=True)
        value, stats = q.pop()
        assert value == 1
        assert q.fixups_total == 1
        assert stats.relocations > 0  # fix-list pointer repairs
        assert q.pop()[0] == 2 and q.pop()[0] == 3

    def test_vector_ops(self):
        q = OptimisticQueue()
        stats = q.push_many([1, 2, 3, 4])
        assert stats.writes == 4
        values, _ = q.pop_many(3)
        assert values == [1, 2, 3]
        values, _ = q.pop_many(10)  # short pop
        assert values == [4]

    def test_snapshot_preserves_order(self):
        q = OptimisticQueue()
        for i in range(5):
            q.push(i)
        q.pop()
        assert list(q.snapshot()) == [1, 2, 3, 4]
        q.check_invariants()

    def test_drain_and_reuse(self):
        q = OptimisticQueue()
        for round_ in range(3):
            for i in range(10):
                q.push((round_, i))
            out = [q.pop()[0] for _ in range(10)]
            assert out == [(round_, i) for i in range(10)]
            assert q.empty

    def test_threaded_producers(self):
        q = OptimisticQueue()

        def producer(base):
            for i in range(100):
                q.push(base + i)

        threads = [threading.Thread(target=producer, args=(t * 1000,))
                   for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(q) == 400
        seen = set()
        while not q.empty:
            seen.add(q.pop()[0])
        assert len(seen) == 400


class TestMDList:
    def test_min_order(self):
        pq = MDListPriorityQueue(dims=4, base=8)
        for k in (100, 5, 50, 1, 99):
            pq.push(k, str(k))
        out = [pq.pop_min()[0] for _ in range(5)]
        assert out == [1, 5, 50, 99, 100]

    def test_empty_raises(self):
        pq = MDListPriorityQueue()
        with pytest.raises(PriorityQueueEmpty):
            pq.pop_min()
        with pytest.raises(PriorityQueueEmpty):
            pq.peek_min()

    def test_duplicates_fifo_within_priority(self):
        """Arrival-time conflict resolution (Section III-D3-B)."""
        pq = MDListPriorityQueue(dims=4, base=8)
        pq.push(7, "first")
        pq.push(7, "second")
        pq.push(7, "third")
        assert pq.pop_min() [:2] == (7, "first")
        assert pq.pop_min()[:2] == (7, "second")
        assert pq.pop_min()[:2] == (7, "third")

    def test_duplicates_fifo_through_interleaved_revives(self):
        """Values of one priority move from a list to a deque as they pile
        up; arrival order must hold across that switch and revives."""
        pq = MDListPriorityQueue(dims=2, base=4)
        ref = {3: [], 9: []}
        rng = random.Random(11)
        for i in range(2000):
            if len(pq) and rng.random() < 0.5:
                key = min(k for k, vs in ref.items() if vs)
                assert pq.pop_min()[:2] == (key, ref[key].pop(0))
            else:
                key = rng.choice((3, 9))
                pq.push(key, i)
                ref[key].append(i)
            if i % 100 == 0:
                pq.check_invariants()
        pq.check_invariants()

    def test_key_bounds_checked(self):
        pq = MDListPriorityQueue(dims=2, base=4)  # keys < 16
        pq.push(15, None)
        with pytest.raises(ValueError):
            pq.push(16, None)
        with pytest.raises(ValueError):
            pq.push(-1, None)

    def test_coordinate_mapping(self):
        pq = MDListPriorityQueue(dims=3, base=4)
        assert pq.coordinate(0) == (0, 0, 0)
        assert pq.coordinate(63) == (3, 3, 3)
        assert pq.coordinate(17) == (1, 0, 1)

    def test_key_zero_distinct_from_sentinel(self):
        pq = MDListPriorityQueue(dims=2, base=4)
        pq.push(0, "zero")
        assert pq.pop_min()[:2] == (0, "zero")
        assert pq.empty

    def test_purge_compacts_marked_nodes(self):
        pq = MDListPriorityQueue(dims=4, base=8)
        n = pq.PURGE_THRESHOLD * 2
        for k in range(n):
            pq.push(k, k)
        for _ in range(n):
            pq.pop_min()
        assert pq.purges_total >= 1
        assert pq.empty
        pq.check_invariants()

    def test_peek_does_not_remove(self):
        pq = MDListPriorityQueue(dims=4, base=8)
        pq.push(3, "x")
        assert pq.peek_min() == (3, "x")
        assert len(pq) == 1

    def test_items_sorted(self):
        pq = MDListPriorityQueue(dims=4, base=8)
        keys = random.Random(3).sample(range(4096), 200)
        for k in keys:
            pq.push(k, None)
        assert [k for k, _v in pq.items()] == sorted(keys)

    def test_reinsert_after_mark_revives_node(self):
        pq = MDListPriorityQueue(dims=2, base=8)
        pq.push(5, "a")
        pq.pop_min()
        pq.push(5, "b")
        assert pq.pop_min()[:2] == (5, "b")

    @pytest.mark.parametrize("dims,base", [(1, 64), (2, 8), (6, 4), (8, 16)])
    def test_config_sweep_against_heap(self, dims, base):
        limit = base ** dims
        pq = MDListPriorityQueue(dims=dims, base=base)
        ref = []
        rng = random.Random(dims * 100 + base)
        for i in range(600):
            if ref and rng.random() < 0.4:
                assert pq.pop_min()[:2] == heapq.heappop(ref)
            else:
                k = rng.randrange(min(limit, 1 << 16))
                heapq.heappush(ref, (k, i))
                pq.push(k, i)
        while ref:
            assert pq.pop_min()[:2] == heapq.heappop(ref)
        pq.check_invariants()

    def test_push_stats_bounded_by_structure(self):
        """Insert cost is O(D + base) hops, not O(N) — the log-like bound."""
        pq = MDListPriorityQueue(dims=8, base=16)
        rng = random.Random(5)
        worst = 0
        for _ in range(2000):
            stats = pq.push(rng.randrange(1 << 32), None)  # key_limit is 16^8
            worst = max(worst, stats.local_ops)
        assert worst <= 8 * 16 + 8


def _walk_min(pq):
    """The Zhang-Dechev walk: the first unmarked node in pre-order and the
    hops from the head to it."""
    hops = 0
    for node in pq._preorder():
        hops += 1
        if not node.marked:
            return node, hops
    raise AssertionError("walked past the last node")


class _RebuildPurgePQ(MDListPriorityQueue):
    """Reference queue: walks to the minimum, and purges by rebuilding the
    whole structure from its live nodes."""

    _find_min = _walk_min

    def _purge(self) -> int:
        live = []
        removed = 0
        for node in self._preorder():
            if node.marked:
                removed += 1
            else:
                live.append((node.key, node.values))
        self._head.children = [None] * self.dims
        self._nodes = {}
        self._live = [key for key, _values in live]  # sorted: a valid heap
        self._marked_keys = []
        self.purges_total += 1
        for key, values in live:
            coord = self.coordinate(key)
            _node, pred, pred_dim, adopt_dim, _h = self._locate(coord)
            fresh = _MNode(key, coord, self.dims)
            fresh.values = values
            self._splice(fresh, pred, pred_dim, adopt_dim)
            self._nodes[key] = fresh
        return removed


def _shape(pq):
    """Every node as (parent key, dimension, key, marked, values)."""
    out = []
    stack = [pq._head]
    while stack:
        node = stack.pop()
        for d, child in enumerate(node.children):
            if child is not None:
                out.append((node.key, d, child.key, child.marked,
                            tuple(child.values)))
                stack.append(child)
    return out


def _stats_fields(stats):
    return (stats.local_ops, stats.reads, stats.writes, stats.cas_ops,
            stats.relocations)


def _live_nodes(pq):
    return sum(1 for node in pq._preorder() if not node.marked)


class TestMDListInPlacePurge:
    """The in-place purge must leave exactly the rebuild's structure, and
    the indexed minimum must charge exactly the walk's hops."""

    @staticmethod
    def _step_both(pq, ref, op, *args):
        out = getattr(pq, op)(*args)
        want = getattr(ref, op)(*args)
        if op == "push":
            assert _stats_fields(out) == _stats_fields(want)
        elif op == "peek_min":
            assert out == want
        else:
            assert out[:2] == want[:2]
            assert _stats_fields(out[2]) == _stats_fields(want[2])
        assert pq.purges_total == ref.purges_total
        if len(pq):
            node, hops = pq._find_min()
            walked, walked_hops = _walk_min(pq)
            assert (node, hops) == (walked, walked_hops)
        return out

    @pytest.mark.parametrize(
        "dims,base", [(1, 64), (9, 8), (3, 3), (2, 16), (8, 16), (5, 2)])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_mix_matches_rebuild(self, dims, base, seed):
        limit = base ** dims
        pq = MDListPriorityQueue(dims=dims, base=base)
        ref = _RebuildPurgePQ(dims=dims, base=base)
        # Small key spaces never hold 64 marked nodes: purge sooner there.
        pq.PURGE_THRESHOLD = ref.PURGE_THRESHOLD = min(
            MDListPriorityQueue.PURGE_THRESHOLD, limit // 3)
        rng = random.Random(seed * 1000 + dims * 100 + base)
        popped = []
        for i in range(1500):
            r = rng.random()
            if len(pq) and r < 0.45:
                key = self._step_both(pq, ref, "pop_min")[0]
                popped.append(key)
            elif popped and r < 0.6:
                # Revive a node that may still be marked.
                self._step_both(pq, ref, "push", rng.choice(popped[-8:]), i)
            else:
                span = limit if rng.random() < 0.3 else min(limit, 400)
                self._step_both(pq, ref, "push", rng.randrange(span), i)
            assert _shape(pq) == _shape(ref)
            if i % 50 == 0:
                pq.check_invariants()
        while len(pq):
            self._step_both(pq, ref, "pop_min")
        assert _shape(pq) == _shape(ref)
        assert pq.purges_total >= 1
        pq.check_invariants()
        ref.check_invariants()

    def test_revived_node_survives_purge(self):
        pq = MDListPriorityQueue(dims=4, base=8)
        ref = _RebuildPurgePQ(dims=4, base=8)
        for k in range(0, 400, 2):
            self._step_both(pq, ref, "push", k, k)
        for _ in range(pq.PURGE_THRESHOLD - 1):  # marks 0, 2, ..., 124
            self._step_both(pq, ref, "pop_min")
        self._step_both(pq, ref, "push", 124, "revived")
        relocations = 0
        for k in (1, 3):  # new nodes below the revived one
            self._step_both(pq, ref, "push", k, k)
            relocations += self._step_both(pq, ref, "pop_min")[2].relocations
        assert pq.purges_total == 1
        assert relocations == pq.PURGE_THRESHOLD
        assert _shape(pq) == _shape(ref)
        assert pq._marked_keys == []
        assert len(pq._live) == _live_nodes(pq)
        pq.check_invariants()
        assert self._step_both(pq, ref, "pop_min")[:2] == (124, "revived")

    def test_push_pop_cycles_keep_pending_bounded(self):
        pq = MDListPriorityQueue(dims=4, base=8)
        for i in range(10_000):
            pq.push(7, i)
            assert pq.pop_min()[:2] == (7, i)
        assert len(pq._marked_keys) <= 1
        assert len(pq._live) == _live_nodes(pq) == 0
        assert len(pq._nodes) <= 1
        assert pq.purges_total == 0
        pq.check_invariants()

    def test_push_below_marked_prefix(self):
        pq = MDListPriorityQueue(dims=4, base=8)
        ref = _RebuildPurgePQ(dims=4, base=8)
        for k in range(10, 20):
            self._step_both(pq, ref, "push", k, k)
        for _ in range(5):  # marks 10..14
            self._step_both(pq, ref, "pop_min")
        self._step_both(pq, ref, "push", 3, "low")
        low = self._step_both(pq, ref, "pop_min")
        assert low[:2] == (3, "low")
        assert low[2].local_ops == 1  # the new node is the first one
        nxt = self._step_both(pq, ref, "pop_min")
        assert nxt[:2] == (15, 15)
        assert nxt[2].local_ops == 1 + 6  # over 3 and 10..14
        assert pq.purges_total == 0
        pq.check_invariants()

    def test_revive_in_middle_of_marked_prefix(self):
        pq = MDListPriorityQueue(dims=4, base=8)
        ref = _RebuildPurgePQ(dims=4, base=8)
        for k in range(10):
            self._step_both(pq, ref, "push", k, k)
        for _ in range(6):  # marks 0..5
            self._step_both(pq, ref, "pop_min")
        self._step_both(pq, ref, "push", 3, "again")
        assert pq._marked_keys == [0, 1, 2, 4, 5]
        revived = self._step_both(pq, ref, "pop_min")
        assert revived[:2] == (3, "again")
        assert revived[2].local_ops == 1 + 3  # over 0, 1, 2
        nxt = self._step_both(pq, ref, "pop_min")
        assert nxt[:2] == (6, 6)
        assert nxt[2].local_ops == 1 + 6  # over 0..5
        pq.check_invariants()

    def test_peek_on_marked_prefix(self):
        pq = MDListPriorityQueue(dims=4, base=8)
        ref = _RebuildPurgePQ(dims=4, base=8)
        for k in range(10):
            self._step_both(pq, ref, "push", k, f"v{k}")
        self._step_both(pq, ref, "push", 4, "w4")
        for _ in range(4):  # marks 0..3
            self._step_both(pq, ref, "pop_min")
        for _ in range(2):
            assert self._step_both(pq, ref, "peek_min") == (4, "v4")
        assert len(pq) == 7
        assert pq._find_min()[1] == 1 + 4
        assert self._step_both(pq, ref, "pop_min")[:2] == (4, "v4")
        assert self._step_both(pq, ref, "peek_min") == (4, "w4")
        pq.check_invariants()
