"""Tests for the discrete-event kernel: events, timeouts, processes."""

import pytest

from repro.simnet import Interrupt, Process, SimulationError


class TestEvent:
    def test_pending_value_raises(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_succeed_carries_value(self, sim):
        ev = sim.event()
        ev.succeed(42)
        sim.run()
        assert ev.processed and ev.ok and ev.value == 42

    def test_double_trigger_rejected(self, sim):
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)
        with pytest.raises(SimulationError):
            ev.fail(ValueError("x"))

    def test_fail_requires_exception(self, sim):
        ev = sim.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_callback_after_processed_runs_immediately(self, sim):
        ev = sim.event()
        ev.succeed("v")
        sim.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        assert seen == ["v"]

    def test_delayed_succeed(self, sim):
        ev = sim.event()
        ev.succeed("late", delay=5.0)
        sim.run()
        assert sim.now == 5.0

    def test_negative_delay_rejected(self, sim):
        # A negative delay would schedule the event before ``now`` and
        # move the clock backwards when it fires.
        seen = []

        def proc():
            yield sim.timeout(5)
            ev = sim.event()
            with pytest.raises(ValueError):
                ev.succeed("x", delay=-3)
            with pytest.raises(ValueError):
                ev.fail(RuntimeError("y"), delay=-2)
            assert not ev.triggered
            seen.append((yield ev.succeed("x", delay=1)))
            seen.append(sim.now)

        sim.process(proc())
        sim.run()
        assert seen == ["x", 6.0]


class TestTimeout:
    def test_timeout_advances_clock(self, sim):
        sim.timeout(2.5)
        sim.run()
        assert sim.now == 2.5

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1.0)

    def test_timeouts_fire_in_order(self, sim):
        order = []
        for d in (3.0, 1.0, 2.0):
            sim.timeout(d).add_callback(lambda e, d=d: order.append(d))
        sim.run()
        assert order == [1.0, 2.0, 3.0]

    def test_equal_time_fifo(self, sim):
        order = []
        for i in range(5):
            sim.timeout(1.0).add_callback(lambda e, i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]


class TestProcess:
    def test_return_value(self, sim):
        def body():
            yield sim.timeout(1.0)
            return "done"

        assert sim.run_process(body()) == "done"
        assert sim.now == 1.0

    def test_requires_generator(self, sim):
        with pytest.raises(SimulationError):
            Process(sim, lambda: None)

    def test_yield_from_composition(self, sim):
        def inner():
            yield sim.timeout(1.0)
            return 10

        def outer():
            a = yield from inner()
            b = yield from inner()
            return a + b

        assert sim.run_process(outer()) == 20
        assert sim.now == 2.0

    def test_exception_propagates(self, sim):
        def body():
            yield sim.timeout(0.5)
            raise ValueError("boom")

        proc = sim.process(body())
        sim.run()
        assert proc.done and not proc.ok
        with pytest.raises(ValueError, match="boom"):
            _ = proc.result

    def test_result_before_done_raises(self, sim):
        def body():
            yield sim.timeout(1.0)

        proc = sim.process(body())
        with pytest.raises(SimulationError):
            _ = proc.result

    def test_failed_event_throws_into_process(self, sim):
        ev = sim.event()

        def body():
            try:
                yield ev
            except RuntimeError as err:
                return f"caught {err}"

        proc = sim.process(body())
        ev.fail(RuntimeError("remote"))
        sim.run()
        assert proc.result == "caught remote"

    def test_yield_non_event_raises(self, sim):
        def body():
            yield 42

        proc = sim.process(body())
        sim.run()
        assert not proc.ok
        with pytest.raises(SimulationError):
            _ = proc.result

    def test_wait_on_other_process(self, sim):
        def worker():
            yield sim.timeout(3.0)
            return "worker-result"

        def boss():
            w = sim.process(worker())
            value = yield w
            return value

        assert sim.run_process(boss()) == "worker-result"

    def test_interrupt(self, sim):
        def sleeper():
            try:
                yield sim.timeout(100.0)
                return "slept"
            except Interrupt as intr:
                return f"interrupted:{intr.cause}"

        def interrupter(target):
            yield sim.timeout(1.0)
            target.interrupt("wakeup")

        target = sim.process(sleeper())
        sim.process(interrupter(target))
        sim.run(until=2.0)  # the abandoned timeout stays scheduled (no
        # cancellation in this kernel), so bound the drain instead
        assert target.done
        assert target.result == "interrupted:wakeup"

    def test_interrupt_finished_process_rejected(self, sim):
        def body():
            yield sim.timeout(0.1)

        proc = sim.process(body())
        sim.run()
        with pytest.raises(SimulationError):
            proc.interrupt()

    def test_run_process_detects_deadlock(self, sim):
        ev = sim.event()  # never triggered

        def body():
            yield ev

        with pytest.raises(SimulationError, match="did not finish"):
            sim.run_process(body())

    def test_yield_already_fired_event(self, sim):
        ev = sim.event()
        ev.succeed(99)
        sim.run()

        def body():
            value = yield ev
            return value

        assert sim.run_process(body()) == 99

    def test_hot_loop_does_not_recurse(self, sim):
        """10k immediate resumptions must not blow the stack."""

        def body():
            ev = sim.event()
            ev.succeed(None)
            sim.run(until=sim.now)
            for _ in range(10_000):
                yield sim.timeout(0.0)
            return True

        assert sim.run_process(body()) is True


class TestCombinators:
    def test_all_of_collects_values(self, sim):
        events = [sim.timeout(d, value=d) for d in (1.0, 3.0, 2.0)]
        combined = sim.all_of(events)
        sim.run()
        assert combined.value == [1.0, 3.0, 2.0]
        assert sim.now == 3.0

    def test_all_of_empty(self, sim):
        combined = sim.all_of([])
        sim.run()
        assert combined.value == []

    def test_all_of_fails_fast(self, sim):
        good = sim.timeout(5.0)
        bad = sim.event()
        combined = sim.all_of([good, bad])
        bad.fail(ValueError("x"), delay=1.0)
        sim.run()
        assert not combined.ok

    def test_any_of_first_wins(self, sim):
        events = [sim.timeout(3.0, "slow"), sim.timeout(1.0, "fast")]
        combined = sim.any_of(events)

        def body():
            result = yield combined
            return result

        assert sim.run_process(body()) == (1, "fast")

    def test_any_of_requires_events(self, sim):
        with pytest.raises(ValueError):
            sim.any_of([])


class TestSimulator:
    def test_peek(self, sim):
        assert sim.peek() == float("inf")
        sim.timeout(4.0)
        assert sim.peek() == 4.0

    def test_run_until(self, sim):
        hits = []
        for d in (1.0, 2.0, 3.0):
            sim.timeout(d).add_callback(lambda e, d=d: hits.append(d))
        sim.run(until=2.0)
        assert hits == [1.0, 2.0]
        assert sim.now == 2.0
        sim.run()
        assert hits == [1.0, 2.0, 3.0]

    def test_events_processed_counter(self, sim):
        for _ in range(7):
            sim.timeout(1.0)
        sim.run()
        assert sim.events_processed == 7
