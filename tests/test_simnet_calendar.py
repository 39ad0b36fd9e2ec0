"""Calendar-queue far lane: edge cases and the heap-order contract.

The simulator's far lane is a :class:`_CalendarQueue`.  Its one contract:
retire entries in exactly the order a binary heap would — same
timestamps, same priority handling, same FIFO tiebreak on the creation
sequence.  ``TestCalendarQueueAgainstHeap`` checks that directly against a
``heapq`` reference on seeded push/peek/pop interleavings; the other tests
pin, through the simulator, the edges where a bucketed structure could
drift from a heap: same-timestamp bursts, tombstoned (interrupted) entries
inside buckets, AnyOf/AllOf settle order, bucket-width resizes under skewed
spacing, and seeded full traces whose digests were recorded while a heap
far lane still ran beside the calendar and agreed with it.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random

import pytest

from repro.simnet.core import _T_CAP, Interrupt, Simulator, _CalendarQueue


def _far(sim, delay, value=None):
    """Schedule a timeout that lands in the FAR lane (not the near deque).

    The near lane only takes monotone appends; scheduling a later anchor
    first forces the earlier timeout into the far structure under test.
    """
    anchor = sim.timeout(delay + 1000.0)
    to = sim.timeout(delay, value=value)
    assert anchor is not to
    return to


class TestSameTimestampStability:
    def test_equal_far_timestamps_fire_in_creation_order(self):
        sim = Simulator()
        fired = []

        def waiter(i, to):
            yield to
            fired.append(i)

        # A far anchor first, then 50 identical-time timeouts that all
        # land in one calendar bucket.
        sim.timeout(2000.0)
        for i in range(50):
            sim.process(waiter(i, sim.timeout(7.25)))
        sim.run(until=100.0)
        assert fired == list(range(50))

    def test_interleaved_times_fire_in_time_then_seq(self):
        sim = Simulator()
        trace = []

        def waiter(i, to):
            got = yield to
            trace.append((sim.now, i, got))

        sim.timeout(5000.0)
        for i in range(30):
            # Three distinct times, ten waiters each, interleaved.
            sim.process(waiter(i, sim.timeout(1.0 + (i % 3), value=i)))
        sim.run(until=100.0)
        assert trace == [(1.0 + k, i, i)
                         for k in range(3) for i in range(k, 30, 3)]


class TestTombstonedEntries:
    def test_interrupt_tombstones_far_lane_entry(self):
        sim = Simulator()
        log = []

        def proc():
            try:
                yield _far(sim, 50.0, value="late")
                log.append("value")
            except Interrupt as intr:
                log.append(("intr", intr.cause))
                yield sim.timeout(0.5)
                log.append(("after", sim.now))

        p = sim.process(proc())

        def interrupter():
            yield sim.timeout(1.0)
            p.interrupt("go")

        sim.process(interrupter())
        sim.run(until=2000.0)
        # The tombstoned t=50 wakeup inside the far structure must be
        # skipped silently when its bucket drains.
        assert log == [("intr", "go"), ("after", 1.5)]
        assert p.done

    def test_bucket_of_tombstones_drains_cleanly(self):
        sim = Simulator()
        survivors = []

        def waiter(i, to):
            try:
                yield to
                survivors.append((sim.now, i))
            except Interrupt:
                pass

        sim.timeout(5000.0)
        procs = [sim.process(waiter(i, sim.timeout(10.0)))
                 for i in range(20)]

        def killer():
            yield sim.timeout(1.0)
            for i in range(0, 20, 2):
                procs[i].interrupt()

        sim.process(killer())
        sim.run(until=100.0)
        assert survivors == [(10.0, i) for i in range(1, 20, 2)]


class TestCombinatorSettleOrder:
    def test_any_of_far_children_settle_identically(self):
        sim = Simulator()
        got = []

        def proc():
            fast = _far(sim, 3.0, value="fast")
            slow = _far(sim, 30.0, value="slow")
            got.append((yield sim.any_of([fast, slow])))
            got.append(sim.now)

        sim.run_process(proc())
        assert got == [(0, "fast"), 3.0]

    def test_all_of_collects_in_listed_order_across_buckets(self):
        sim = Simulator()
        got = []

        def proc():
            # Reverse-chronological listing, spread far apart so the
            # children occupy different calendar buckets.
            late = _far(sim, 40.0, value="late")
            mid = _far(sim, 2.0, value="mid")
            early = _far(sim, 0.5, value="early")
            got.append((yield sim.all_of([late, mid, early])))
            got.append(sim.now)

        sim.run_process(proc())
        # AllOf value order follows the listed order, not firing order.
        assert got == [["late", "mid", "early"], 40.0]


class TestAdaptiveWidth:
    def test_skewed_spacing_forces_resizes_and_stays_ordered(self):
        sim = Simulator()
        fired = []

        def waiter(i, to):
            yield to
            fired.append((sim.now, i))

        # Anchor far out so everything below routes through the calendar.
        # Then both skew extremes: a sub-bucket-width clump of 600 events
        # (refill sees > _REFILL_HI -> width halves) and a sparse tail of
        # one event per bucket across 16 buckets (refills see <= _REFILL_LO
        # with many buckets pending -> width doubles).
        sim.timeout(1e6)
        delays = [1000.0 + j * 1e-7 for j in range(600)]
        delays.extend(2000.0 + k * 10.0 for k in range(16))
        for i, d in enumerate(delays):
            sim.process(waiter(i, sim.timeout(d)))
        sim.run(until=1e5)
        assert [i for _t, i in fired] == sorted(
            range(len(delays)), key=lambda i: (delays[i], i)
        )
        cal = sim.kernel_stats()["calendar"]
        assert cal["resizes"] >= 1, "adaptive width never engaged"
        assert cal["refills"] >= 1


class TestCalendarQueueAgainstHeap:
    """``_CalendarQueue`` against a ``heapq`` reference, op by op.

    Each seed runs phases of pushes, peeks and pops: a push-only clump far
    narrower than a bucket (its refill exceeds ``_REFILL_HI`` and halves
    the width), a push-only sparse run one entry per bucket (refills at or
    below ``_REFILL_LO`` double it), then random phases that also mix in
    a small pool of repeated delays (equal timestamps), nonzero
    priorities, ``inf`` and times at or past ``_T_CAP``.
    """

    _REPEATED = (0.0, 1e-6, 2.5e-5, 64e-6, 1e-3)

    def _entry_time(self, rng, kind, now, base):
        if kind == "dense":
            return base + rng.randrange(50) * 1e-10
        if kind == "sparse":
            return base + rng.randrange(1, 40) * 64e-6 * 3
        r = rng.random()
        if r < 0.05:
            return math.inf
        if r < 0.10:
            return _T_CAP * rng.choice((1.0, 1.5, 4.0))
        if r < 0.45:
            return now + rng.choice(self._REPEATED)
        return now + rng.uniform(0.0, 1e-2) * 10 ** rng.randint(-3, 1)

    def _run(self, seed):
        rng = random.Random(seed)
        cal = _CalendarQueue()
        ref: list[tuple] = []
        seq = 0
        now = 0.0  # latest popped time below _T_CAP
        popped = 0
        resized = set()  # directions the bucket width moved in

        def pop():
            nonlocal now, popped
            width = cal.width
            assert cal.peek() == ref[0]
            got = cal.pop()
            assert got == heapq.heappop(ref)
            popped += 1
            if got[0] < _T_CAP:
                now = max(now, got[0])
            if cal.width != width:
                resized.add("halve" if cal.width < width else "double")

        phases = ["dense", "sparse"]
        phases += [rng.choice(("dense", "sparse", "mixed", "mixed"))
                   for _ in range(10)]
        for kind in phases:
            base = now + rng.uniform(1e-3, 1e-2)
            if kind == "dense":
                n_ops, push_p = 600, 1.0
            elif kind == "sparse":
                n_ops, push_p = 20, 1.0
            else:
                n_ops, push_p = 400, rng.uniform(0.3, 0.7)
            for _ in range(n_ops):
                op = rng.random()
                if op < push_p or not ref:
                    seq += 1
                    t = self._entry_time(rng, kind, now, base)
                    prio = rng.choice((0, 0, 0, -1, 1, 2))
                    entry = (t, prio, seq, f"e{seq}")
                    cal.push(entry)
                    heapq.heappush(ref, entry)
                elif op < push_p + (1.0 - push_p) / 4:
                    assert cal.peek() == ref[0]
                else:
                    pop()
                assert len(cal) == len(ref)
        while ref:
            pop()
        assert cal.peek() is None and len(cal) == 0
        return popped, resized

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_pops_match_heapq_reference(self, seed):
        popped, resized = self._run(seed)
        assert popped > 2000
        assert resized == {"halve", "double"}

    def test_entries_past_cap_keep_heap_order_after_top_refill(self):
        # Once the top bucket (every time >= _T_CAP) becomes the epoch,
        # ``current`` can hold ``inf`` while ``horizon`` sits just past
        # _T_CAP; a later finite push past _T_CAP must still pop first.
        cal = _CalendarQueue()
        for entry in [(math.inf, 0, 1, "a"), (1.5 * _T_CAP, 0, 2, "b")]:
            cal.push(entry)
        assert cal.pop()[3] == "b"
        cal.push((1.6 * _T_CAP, 0, 3, "c"))
        cal.push((math.inf, 0, 4, "d"))
        assert [cal.pop()[3] for _ in range(3)] == ["c", "a", "d"]


class TestRandomizedEquivalence:
    """Seeded random workloads reproduce their recorded full traces.

    The pinned sha256 digest of ``repr(trace)``, event count and final
    clock of each seed were recorded while the simulator still carried a
    binary-heap far lane, on which the same traces came out identical.
    Everything observable is keyed on deterministic ints/floats and list
    order — no set/dict iteration — so the digests hold under any
    ``PYTHONHASHSEED``.
    """

    PINNED = {
        1: ("503e7fd4e30aed00febb03840dbca329c98b736e04d17555b7bc85a83be8281d",
            336, 36773.52278985556),
        7: ("787fba1660f381541ffdf830aa8db95317eacacf031cb95d388807f960f57296",
            340, 47586.66688502711),
        1234: ("96ce2ca80de12a9de3eeab236e83fcb28fa9986aee8b07127ad103293bfd86e4",
               323, 31503.08135283724),
    }

    @staticmethod
    def _run_workload(seed: int):
        rng = random.Random(seed)
        sim = Simulator()
        trace = []

        nprocs = 20
        plans = [
            [
                (rng.choice(("short", "far", "cb", "at")),
                 rng.uniform(1e-7, 1.0) * 10 ** rng.randint(0, 4))
                for _ in range(rng.randint(5, 25))
            ]
            for _ in range(nprocs)
        ]

        def body(pid, plan):
            for step, (kind, delay) in enumerate(plan):
                if kind == "cb":
                    sim.schedule_callback(
                        lambda pid=pid, step=step:
                            trace.append((sim.now, "cb", pid, step)),
                        delay,
                    )
                elif kind == "at":
                    yield sim.timeout_at(sim.now + delay)
                    trace.append((sim.now, "at", pid, step))
                else:
                    yield sim.timeout(delay)
                    trace.append((sim.now, kind, pid, step))
            trace.append((sim.now, "done", pid, -1))

        for pid, plan in enumerate(plans):
            sim.process(body(pid, plan))
        sim.run()
        stats = sim.kernel_stats()
        return trace, stats["events_processed"], sim.now

    @pytest.mark.parametrize("seed", [1, 7, 1234])
    def test_full_trace_identical_heap_vs_calendar(self, seed):
        trace, events, now = self._run_workload(seed)
        assert len(trace) > 100  # the workload actually ran
        digest = hashlib.sha256(repr(trace).encode()).hexdigest()
        assert (digest, events, now) == self.PINNED[seed]
