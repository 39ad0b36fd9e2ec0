"""Flight recorder: continuous zero-perturbation registry sampling.

The Fig-4 telemetry harness samples a handful of hand-picked probes at
pre-armed times, which requires a dry run to learn the workload duration.
The :class:`FlightRecorder` generalizes that into a black-box recorder:
it snapshots *selected registry metrics* — counter/gauge values and
histogram quantiles — into sim-time-indexed :class:`TimeSeries` ring
buffers at a fixed cadence, with no dry run and no knowledge of when the
workload ends.

It reuses the :meth:`~repro.simnet.trace.Sampler.pump` driving discipline
(PR 5) for the same **zero-perturbation** guarantee: the clock only
advances by processing real events, or by jumping across an idle gap the
unrecorded run would cross anyway.  ``recorder.pump`` is a drop-in
replacement for ``Cluster.run`` — harnesses install it with
``cluster.run = recorder.pump`` exactly like the telemetry sampler — so
a recorded run retires the identical event sequence (identical simulated
results) as an unrecorded one; only the sampled series differ from
nothing at all.

Per-tick listeners (the skew detector and SLO monitor) hang off
:meth:`add_listener` and share the recorder's :class:`EventLog`, so one
pump drives the whole monitoring stack.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.obs.registry import MetricsRegistry, registry_of
from repro.simnet.stats import Counter, Gauge, Histogram
from repro.simnet.trace import EventLog, TimeSeries, pump_step

__all__ = ["FlightRecorder", "select_matches"]


def select_matches(name: str, selectors: Optional[Sequence[str]]) -> bool:
    """True when a metric name matches any selector (or there are none).

    Selector shapes, mirroring the registry's naming scheme:

    * trailing ``/`` or ``.`` — prefix match (``"serving/"``,
      ``"serving-map."``);
    * trailing ``*`` — raw prefix match for instance-numbered families
      (``"rpcc*"`` catches ``rpcc0/...``, ``rpcc1/...``);
    * leading ``/`` — component-anchored suffix match (``"/ops"``);
    * otherwise — exact name.
    """
    if not selectors:
        return True
    for sel in selectors:
        if not sel:
            continue
        if sel[-1] in "/.":
            if name.startswith(sel):
                return True
        elif sel[-1] == "*":
            if name.startswith(sel[:-1]):
                return True
        elif sel[0] == "/":
            if name.endswith(sel):
                return True
        elif name == sel:
            return True
    return False


class FlightRecorder:
    """Whole-registry sampler with bounded ring-buffer series.

    Parameters
    ----------
    sim:
        The simulation to record (its lazily-attached registry is read).
    interval:
        Sampling cadence in sim-seconds.
    maxlen:
        Ring-buffer bound per series — only the most recent ``maxlen``
        samples are retained (``TimeSeries.dropped`` counts evictions).
    select:
        Metric-name selectors (see :func:`select_matches`); ``None``
        records the entire registry.
    quantiles:
        The quantile series recorded per histogram (``{name}/p99`` etc.),
        alongside the sample-count series ``{name}/n``.
    event_limit:
        Bound on the shared :class:`EventLog` (alerts, skew events).
    """

    def __init__(self, sim, interval: float, maxlen: int = 512,
                 select: Optional[Sequence[str]] = None,
                 quantiles: Sequence[float] = (0.5, 0.99),
                 event_limit: int = 4096):
        if interval <= 0:
            raise ValueError("interval must be positive")
        if maxlen <= 0:
            raise ValueError("maxlen must be positive")
        self.sim = sim
        self.registry: MetricsRegistry = registry_of(sim)
        self.interval = interval
        self.maxlen = maxlen
        self.select = list(select) if select is not None else None
        self.quantiles = tuple(quantiles)
        self.series: Dict[str, TimeSeries] = {}
        self.events = EventLog(sim, limit=event_limit)
        self.samples = 0
        self._listeners: List[Callable[[float], None]] = []
        self._next: Optional[float] = None

    # -- wiring ---------------------------------------------------------------
    def add_listener(self, fn: Callable[[float], None]) -> None:
        """Register a per-tick hook ``fn(now)`` (skew/SLO monitors)."""
        self._listeners.append(fn)

    def install(self, cluster) -> "FlightRecorder":
        """Route ``cluster.run`` through :meth:`pump` (instance attr)."""
        cluster.run = self.pump
        return self

    # -- sampling -------------------------------------------------------------
    def _series(self, name: str) -> TimeSeries:
        ts = self.series.get(name)
        if ts is None:
            ts = TimeSeries(name, maxlen=self.maxlen)
            self.series[name] = ts
        return ts

    def tick(self) -> None:
        """Record one sample of every selected metric at the current time.

        Metrics are visited in sorted-name order and series are created
        lazily, so metrics registered mid-run simply start recording at
        their first post-registration tick — deterministically.
        """
        now = self.sim.now
        self.samples += 1
        registry = self.registry
        for name in registry.names():
            if not select_matches(name, self.select):
                continue
            metric = registry.get(name)
            if isinstance(metric, (Counter, Gauge)):
                self._series(name).record(now, metric.value)
            elif isinstance(metric, Histogram):
                self._series(f"{name}/n").record(now, float(metric.n))
                for q in self.quantiles:
                    self._series(f"{name}/p{100 * q:g}").record(
                        now, metric.quantile(q))
        for fn in self._listeners:
            fn(now)

    def pump(self, until: Optional[float] = None) -> float:
        """Run the simulation, sampling every ``interval`` sim-seconds.

        Same zero-perturbation contract as
        :meth:`~repro.simnet.trace.Sampler.pump`, with a continuous
        cadence instead of a pre-armed sample list: the clock advances
        only through real events or idle-gap jumps the unrecorded run
        would cross anyway, and in drain mode a pending sample with no
        real event left simply lapses (or waits for a later ``pump``
        call in multi-phase workloads).  After a long inter-phase gap the
        cadence re-anchors at the current time rather than replaying
        every missed nominal tick.
        """
        sim = self.sim
        if self._next is None:
            self._next = sim.now + self.interval
        while True:
            nxt = self._next
            if until is not None and nxt > until:
                break
            if sim.now >= nxt:
                self.tick()
                nxt += self.interval
                if nxt <= sim.now:  # re-anchor after an inter-phase gap
                    nxt = sim.now + self.interval
                self._next = nxt
                continue
            if not pump_step(sim, nxt, until):
                break
        sim.run(until=until)
        return sim.now

    # -- views & export -------------------------------------------------------
    def rate(self, name: str) -> TimeSeries:
        """Per-second derivative view of one recorded series."""
        ts = self.series.get(name)
        if ts is None:
            return TimeSeries(f"{name}/rate" if name else "rate",
                              maxlen=self.maxlen)
        return ts.rate_series()

    def payload(self) -> Dict:
        """JSON-ready artifact: sorted series + the shared event log.

        Everything is simulated state, so same-seed reruns produce
        byte-identical payloads (the CI flight-recorder leg diffs them).
        """
        return {
            "kind": "flight_recorder",
            "interval": self.interval,
            "maxlen": self.maxlen,
            "quantiles": list(self.quantiles),
            "samples": self.samples,
            "series": {
                name: {
                    "times": list(ts.times),
                    "values": list(ts.values),
                    "dropped": ts.dropped,
                }
                for name, ts in sorted(self.series.items())
            },
            "events": [[t, kind, payload]
                       for (t, kind, payload) in self.events.entries],
            "events_dropped": self.events.dropped,
        }
