"""Streaming telemetry: windows, SLOs, alerts, and live exporters.

This package is the *live* half of the observability layer.  Where
:mod:`repro.obs.metrics` aggregates a whole run and :mod:`repro.obs.inspect`
analyses it afterwards, ``repro.obs.live`` evaluates signals while a
serve run is still in flight:

* :mod:`~repro.obs.live.windows` -- tumbling-window and EWMA
  aggregators over the simulated clock (mergeable, deterministic);
* :mod:`~repro.obs.live.slo` -- declarative per-tenant SLOs with
  multi-window burn-rate evaluation;
* :mod:`~repro.obs.live.alerts` -- ordered threshold rules with
  hysteresis;
* :mod:`~repro.obs.live.telemetry` -- the hub every
  :class:`~repro.serve.session.ServeSession` feeds, whose EWMA thrash
  rates ``--live-admission`` reads;
* :mod:`~repro.obs.live.export` -- OpenMetrics text exposition;
* :mod:`~repro.obs.live.top` -- the ``repro top`` terminal dashboard.

The hub runs in every serve session and only reads values the
simulator already computed.  Event sinks, the metrics registry and the
other exporters read the hub in turn, so attaching them never changes
a serve result; only ``--live-admission`` lets the schedule read its
live signals.
"""

from .alerts import AlertEngine, AlertRule
from .export import to_openmetrics, write_openmetrics
from .slo import SloConfig, SloEngine, burn_rate
from .telemetry import LiveTelemetry, default_rules
from .top import render_top, run_top
from .windows import Ewma, TumblingWindow, WindowAggregate

__all__ = [
    "AlertEngine",
    "AlertRule",
    "Ewma",
    "LiveTelemetry",
    "SloConfig",
    "SloEngine",
    "TumblingWindow",
    "WindowAggregate",
    "burn_rate",
    "default_rules",
    "render_top",
    "run_top",
    "to_openmetrics",
    "write_openmetrics",
]
