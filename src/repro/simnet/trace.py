"""Tracing and time-series sampling.

Figure 4 of the paper plots NIC-core utilization, memory utilization and
packet rate *over time* (Intel PAT on the real cluster).  Here a
:class:`Sampler` process wakes at a fixed interval and records probe values
into :class:`TimeSeries`; :class:`EventLog` records discrete events with
timestamps for post-hoc analysis and debugging.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.simnet.core import Simulator

__all__ = ["TimeSeries", "Sampler", "EventLog", "pump_step"]


def pump_step(sim: Simulator, nxt: float, until: Optional[float]) -> bool:
    """Advance ``sim`` one zero-perturbation step toward sample time ``nxt``.

    The shared step of the sampling pumps: process the next real event if
    it is due at or before ``nxt``; otherwise jump the clock to ``nxt``
    across an idle gap the unsampled run crosses anyway (a later real
    event exists, or ``run(until=...)`` pads past it).  Returns False,
    leaving the clock alone, in drain mode with nothing pending — a
    pump then stops, and its pending sample waits for a later ``pump``
    call or lapses.
    """
    p = sim.peek()
    if p <= nxt:
        sim.step()
    elif p != float("inf") or until is not None:
        sim.run(until=nxt)
    else:
        return False
    return True


class TimeSeries:
    """Append-only ``(time, value)`` series with simple reductions.

    With ``maxlen`` set the series becomes a ring buffer: only the most
    recent ``maxlen`` samples are retained (older points fall off the
    front, counted in ``dropped``), so a long-running sampler holds
    bounded memory no matter how many ticks it takes.
    """

    def __init__(self, name: str = "", maxlen: Optional[int] = None):
        if maxlen is not None and maxlen <= 0:
            raise ValueError("maxlen must be positive")
        self.name = name
        self.maxlen = maxlen
        self.dropped = 0
        if maxlen is None:
            self.times: List[float] = []
            self.values: List[float] = []
        else:
            self.times = deque(maxlen=maxlen)  # type: ignore[assignment]
            self.values = deque(maxlen=maxlen)  # type: ignore[assignment]

    def record(self, t: float, v: float) -> None:
        if self.maxlen is not None and len(self.times) == self.maxlen:
            self.dropped += 1
        self.times.append(t)
        self.values.append(v)

    def __len__(self) -> int:
        return len(self.values)

    def mean(self) -> float:
        return sum(self.values) / len(self.values) if self.values else 0.0

    def max(self) -> float:
        return max(self.values) if self.values else 0.0

    def last(self) -> float:
        return self.values[-1] if self.values else 0.0

    def rate_series(self) -> "TimeSeries":
        """Derivative series: per-second deltas of a cumulative counter.

        The derived series carries a proper name even when chained or when
        the parent is anonymous (``"nic"`` -> ``"nic/rate"`` ->
        ``"nic/rate/rate"``; ``""`` -> ``"rate"``, never a bare
        ``"/rate"``) and inherits the parent's ``maxlen`` bound.
        """
        name = f"{self.name}/rate" if self.name else "rate"
        out = TimeSeries(name, maxlen=self.maxlen)
        times = list(self.times)
        values = list(self.values)
        for i in range(1, len(times)):
            dt = times[i] - times[i - 1]
            if dt > 0:
                out.record(times[i], (values[i] - values[i - 1]) / dt)
        return out

    def rows(self) -> List[Tuple[float, float]]:
        return list(zip(self.times, self.values))


class Sampler:
    """Periodic probe runner.

    ``probes`` maps series name -> zero-arg callable returning a float.  The
    sampler spawns a simulated process that samples every ``interval``
    sim-seconds until stopped or the sim drains.
    """

    def __init__(self, sim: Simulator, interval: float = 1.0):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.interval = interval
        self.probes: Dict[str, Callable[[], float]] = {}
        self.series: Dict[str, TimeSeries] = {}
        self.probe_errors = 0
        self._running = False
        self._stopped = False
        self._armed: "deque[float]" = deque()

    def add_probe(self, name: str, fn: Callable[[], float]) -> TimeSeries:
        self.probes[name] = fn
        ts = TimeSeries(name)
        self.series[name] = ts
        return ts

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.sim.process(self._run(), name="sampler")

    def schedule_at(self, times) -> None:
        """Arm one-shot samples at absolute sim times (no re-arming process).

        Unlike :meth:`start`, this never keeps the simulation alive: each
        sample is a pre-scheduled callback, so the sim still drains when
        the workload finishes.  The telemetry harness uses this to take a
        fixed number of Fig-4 samples across a run of known duration.
        """
        now = self.sim.now
        for t in times:
            self.sim.schedule_callback(self.sample_once,
                                       delay=max(0.0, t - now))

    def arm(self, times) -> None:
        """Arm one-shot samples at absolute sim times for :meth:`pump`.

        Unlike :meth:`schedule_at`, armed samples are *not* simulator
        events: they fire only while :meth:`pump` drives the simulation,
        so they cannot advance the clock past the workload's natural end
        or stretch a phase whose events drain before the sample times.
        """
        self._armed = deque(sorted(float(t) for t in times))

    def pump(self, until: Optional[float] = None) -> float:
        """Run the simulation, taking armed samples at exact times.

        Drop-in replacement for ``Cluster.run`` / ``Simulator.run`` that
        interleaves armed sample points with real event processing while
        guaranteeing **zero perturbation**: the clock only advances by
        processing real events, or by jumping across an idle gap the
        untraced run would cross anyway (a later real event exists, or
        ``until`` pads the clock past it).  In drain mode an armed sample
        with no real event pending simply waits for a later ``pump`` call
        (multi-phase workloads) or lapses when the workload ends — it
        never keeps the simulation alive.
        """
        sim = self.sim
        armed = self._armed
        while armed:
            nxt = armed[0]
            if until is not None and nxt > until:
                break
            if sim.now >= nxt:
                armed.popleft()
                self.sample_once()
                continue
            if not pump_step(sim, nxt, until):
                break
        sim.run(until=until)
        return sim.now

    def stop(self) -> None:
        self._stopped = True

    def sample_once(self) -> None:
        """Record every probe at the current sim time.

        A probe that raises is skipped for this sample (counted in
        ``probe_errors``) rather than killing the sampler process — one
        faulty probe must not silence the others for the rest of the run.
        """
        t = self.sim.now
        for name, fn in self.probes.items():
            try:
                value = float(fn())
            except Exception:
                self.probe_errors += 1
                continue
            self.series[name].record(t, value)

    def _run(self):
        while not self._stopped:
            self.sample_once()
            yield self.sim.timeout(self.interval)


class EventLog:
    """A bounded structured log of simulation events."""

    def __init__(self, sim: Simulator, limit: Optional[int] = None):
        self.sim = sim
        self.limit = limit
        self.entries: List[Tuple[float, str, Any]] = []
        self.dropped = 0

    def log(self, kind: str, payload: Any = None) -> None:
        if self.limit is not None and len(self.entries) >= self.limit:
            self.dropped += 1
            return
        self.entries.append((self.sim.now, kind, payload))

    def of_kind(self, kind: str) -> List[Tuple[float, Any]]:
        return [(t, p) for (t, k, p) in self.entries if k == kind]

    def count(self, kind: str) -> int:
        return sum(1 for (_t, k, _p) in self.entries if k == kind)

    def __len__(self) -> int:
        return len(self.entries)
