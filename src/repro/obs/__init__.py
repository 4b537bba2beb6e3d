"""Observability: structured events, rollup metrics, span profiling.

The package is the simulator's measurement plane.  One
:class:`Observability` handle bundles the three independent facilities
and is threaded through :class:`~repro.sim.simulator.Simulator` and
:class:`~repro.serve.ServeSession` into the driver and engine:

* an :class:`~repro.obs.bus.EventBus` of typed per-decision events
  (:mod:`repro.obs.events`) fanned out to pluggable sinks
  (:mod:`repro.obs.sinks`);
* a :class:`~repro.obs.metrics.MetricsRegistry` of counters, gauges,
  histograms and time series;
* a :class:`~repro.obs.profiling.SpanRecorder` charging host
  wall-clock self time to the layer entry points (the ``run`` or
  ``serve.session`` root, ``uvm.batch`` dispatches, ``uvm.driver``
  waves, ``migrate_drain``, ``uvm.eviction``), whose shares add up to
  the root's time; with a :class:`~repro.obs.timeline.TimelineRecorder`
  attached it writes the same spans to a Chrome trace.

Everything is off by default: a run constructed without a handle pays
nothing (event sites guard on a single attribute check, and spans are
installed on an object only when it is built with a profiler), and a
run with only a :class:`~repro.obs.sinks.NullSink` attached is
bit-identical to an uninstrumented one.  See ``docs/observability.md``
for the schema and CLI workflow (``--events``, ``--metrics``,
``--profile``, ``--timeline``, ``repro inspect``).

>>> from repro.obs import Observability, RingBufferSink
>>> obs = Observability()
>>> ring = RingBufferSink(capacity=64)
>>> obs.bus.attach(ring)
>>> obs.bus.enabled
True
"""

from __future__ import annotations

from .bus import EventBus
from .events import (
    EVENT_TYPES,
    AlertFired,
    CounterHalving,
    Event,
    Eviction,
    FaultRetry,
    MigrationDecision,
    PrefetchExpand,
    RunMeta,
    SloAttainment,
    SloViolation,
    TelemetryWindow,
    TenantAdmitted,
    TenantArrival,
    TenantComplete,
    TenantSched,
    TenantShed,
    TenantThrottled,
    from_dict,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, Series
from .profiling import SpanRecorder
from .sinks import (
    JsonlSink,
    MetricsSink,
    NullSink,
    RingBufferSink,
    Sink,
    open_text,
)
from .timeline import TimelineRecorder, TimelineSink, validate_trace


class Observability:
    """Bundle of the event bus, metrics registry, and profiler.

    All three parts are optional-by-construction: the bus always
    exists (attach sinks to activate it); ``metrics`` and ``profiler``
    are created on demand by the factory arguments or assigned
    directly.  Pass a handle to ``Simulator.run(..., obs=...)``.
    """

    def __init__(self, metrics: MetricsRegistry | None = None,
                 profiler: SpanRecorder | None = None) -> None:
        self.bus = EventBus()
        self.metrics = metrics
        self.profiler = profiler
        #: Optional :class:`~repro.obs.timeline.TimelineRecorder` (the
        #: ``--timeline`` Chrome-trace export); assigned by ``create``.
        self.timeline = None

    @classmethod
    def create(cls, events_path=None, metrics: bool = False,
               profile: bool = False,
               ring_capacity: int | None = None,
               timeline: bool = False,
               events_flush: int | None = None) -> "Observability":
        """Assemble a handle from the CLI-style knobs.

        ``events_path`` attaches a :class:`JsonlSink`; ``metrics``
        creates a registry and routes events into it through a
        :class:`MetricsSink`; ``profile`` attaches a
        :class:`SpanRecorder`; ``ring_capacity`` attaches an in-memory
        ring buffer; ``timeline`` attaches a :class:`TimelineRecorder`
        (Chrome-trace export) fed by both the recorder's spans and a
        bus sink, and implies a profiler; ``events_flush`` makes the
        event log tailable by flushing it every N events
        (``--flush-events``; rejected for ``.gz`` logs).
        """
        obs = cls()
        if metrics:
            obs.metrics = MetricsRegistry()
            obs.bus.attach(MetricsSink(obs.metrics))
        if events_path is not None:
            obs.bus.attach(JsonlSink(events_path,
                                     flush_every=events_flush))
        if ring_capacity is not None:
            obs.bus.attach(RingBufferSink(ring_capacity))
        if timeline:
            obs.timeline = TimelineRecorder()
            obs.bus.attach(TimelineSink(obs.timeline))
        if profile or timeline:
            obs.profiler = SpanRecorder(obs.timeline)
        return obs

    def close(self) -> None:
        """Flush and close every sink (safe to call more than once)."""
        self.bus.close()


__all__ = [
    "AlertFired",
    "Counter",
    "CounterHalving",
    "EVENT_TYPES",
    "Event",
    "EventBus",
    "Eviction",
    "FaultRetry",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MetricsRegistry",
    "MetricsSink",
    "MigrationDecision",
    "NullSink",
    "Observability",
    "PrefetchExpand",
    "RingBufferSink",
    "RunMeta",
    "Series",
    "Sink",
    "SloAttainment",
    "SloViolation",
    "SpanRecorder",
    "TelemetryWindow",
    "TenantAdmitted",
    "TenantArrival",
    "TenantComplete",
    "TenantSched",
    "TenantShed",
    "TenantThrottled",
    "TimelineRecorder",
    "TimelineSink",
    "from_dict",
    "open_text",
    "validate_trace",
]
