"""Timeline export: Chrome Trace Event Format for Perfetto.

``repro run --timeline out.trace.json`` exports the run's temporal
structure as a standard trace loadable in https://ui.perfetto.dev or
``chrome://tracing``:

* **spans** -- the :class:`~repro.obs.profiling.SpanRecorder` spans
  (the ``run`` or ``serve.session`` root, serve dispatches, driver
  waves, migrate drains, evictions) as nested ``B``/``E`` duration
  events on one track;
* **driver events** -- migrations, evictions, fault retries, prefetch
  expansions, counter halvings as instant events on a second track;
* **wave boundaries** -- a process-scoped instant marker at the end of
  every driver wave span, so Perfetto shows the run's wave cadence as
  frames;
* **serve** -- a serve run's tenant lifecycle instants (arrival, admit,
  shed, throttle, complete, SLO violations, alerts).

Timestamps are host wall-clock microseconds relative to recorder
creation (``perf_counter``-based and clamped monotonic), because the
export answers "where does the *simulator* spend its time" -- simulated
GPU cycles stay in the timing model.  Recording is strictly read-only
over simulation state: the identity suite pins that a run with a
timeline attached is bit-identical to one without.

:func:`validate_trace` checks the structural contract (monotonic
timestamps, matched ``B``/``E`` nesting) and backs the property tests.
"""

from __future__ import annotations

import json
import time

from .events import (
    AlertFired,
    CounterHalving,
    Event,
    Eviction,
    FaultRetry,
    MigrationDecision,
    PrefetchExpand,
    RunMeta,
    SloViolation,
    TenantAdmitted,
    TenantArrival,
    TenantComplete,
    TenantShed,
    TenantThrottled,
)

#: Track (thread) ids inside the single trace process.
TID_SPANS = 1
TID_DRIVER = 2
TID_WAVES = 3
TID_SERVE = 4

_TRACK_NAMES = {
    TID_SPANS: "spans (host wall clock)",
    TID_DRIVER: "driver events",
    TID_WAVES: "waves",
    TID_SERVE: "serve (tenants, SLOs, alerts)",
}


class TimelineRecorder:
    """Accumulates Chrome trace events; ``write()`` emits the JSON file.

    ``time_fn`` is injectable for tests; timestamps are clamped
    non-decreasing so a platform clock hiccup can never produce an
    unloadable trace.
    """

    def __init__(self, time_fn=time.perf_counter) -> None:
        self._time = time_fn
        self._t0 = time_fn()
        self._last_ts = 0.0
        self.events: list[dict] = []
        self.meta: dict = {}
        self._wave = 0
        for tid, name in _TRACK_NAMES.items():
            self.events.append({
                "ph": "M", "pid": 1, "tid": tid, "name": "thread_name",
                "args": {"name": name}})

    def _ts(self) -> float:
        """Microseconds since recorder creation, clamped monotonic."""
        ts = (self._time() - self._t0) * 1e6
        if ts < self._last_ts:
            ts = self._last_ts
        self._last_ts = ts
        return ts

    def set_run_meta(self, meta: dict) -> None:
        """Label the trace process with the run's identity."""
        self.meta = dict(meta)
        name = f"{meta.get('workload', '?')} / {meta.get('policy', '?')}"
        self.events.append({
            "ph": "M", "pid": 1, "tid": TID_SPANS, "name": "process_name",
            "args": {"name": f"repro {name}"}})

    def begin(self, name: str, args: dict | None = None) -> None:
        """Open a span on the span track."""
        ev = {"ph": "B", "pid": 1, "tid": TID_SPANS,
              "cat": "span", "name": name, "ts": self._ts()}
        if args:
            ev["args"] = args
        self.events.append(ev)

    def end(self, name: str) -> None:
        """Close the span track's innermost span, ``name``."""
        self.events.append({"ph": "E", "pid": 1, "tid": TID_SPANS,
                            "cat": "span", "name": name, "ts": self._ts()})

    def instant(self, name: str, args: dict | None = None,
                tid: int = TID_DRIVER, scope: str = "t") -> None:
        ev = {"ph": "i", "pid": 1, "tid": tid, "cat": "driver",
              "name": name, "ts": self._ts(), "s": scope}
        if args:
            ev["args"] = args
        self.events.append(ev)

    def frame(self) -> None:
        """Mark a wave boundary (process-scoped instant: a frame line)."""
        self._wave += 1
        self.instant(f"wave {self._wave}", tid=TID_WAVES, scope="p")

    @property
    def waves(self) -> int:
        """Wave boundaries marked so far."""
        return self._wave

    def trace(self) -> dict:
        """The complete trace object (Chrome Trace Event Format)."""
        return {
            "traceEvents": list(self.events),
            "displayTimeUnit": "ms",
            "otherData": dict(self.meta),
        }

    def write(self, path) -> None:
        """Dump the trace to ``path`` (open it in Perfetto)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.trace(), fh, separators=(",", ":"))
            fh.write("\n")


class TimelineSink:
    """Event-bus sink mapping driver events onto the trace's tracks.

    Migration decisions are recorded only when they migrated (remote
    verdicts dominate event counts and carry no temporal structure);
    evictions, fault retries, prefetch expansions, and counter halvings
    are always recorded.
    """

    def __init__(self, recorder: TimelineRecorder) -> None:
        self.recorder = recorder

    def write(self, event: Event) -> None:
        rec = self.recorder
        t = type(event)
        if t is MigrationDecision:
            if event.migrated:
                rec.instant("migrate", {"block": event.block,
                                        "td": event.threshold,
                                        "wave": event.wave})
        elif t is Eviction:
            rec.instant("eviction", {"chunk": event.chunk,
                                     "blocks": event.blocks,
                                     "dirty": event.dirty_blocks,
                                     "wave": event.wave})
        elif t is FaultRetry:
            rec.instant("fault_retry", {"block": event.block,
                                        "failures": event.failures,
                                        "degraded": event.degraded,
                                        "wave": event.wave})
        elif t is PrefetchExpand:
            rec.instant("prefetch", {"chunk": event.chunk,
                                     "blocks": event.blocks,
                                     "wave": event.wave})
        elif t is CounterHalving:
            rec.instant("counter_halving", {"field": event.field,
                                            "halvings": event.halvings,
                                            "wave": event.wave})
        elif t is TenantArrival:
            rec.instant("arrival", {"span": f"t{event.tenant}",
                                    "tenant": event.tenant,
                                    "workload": event.workload},
                        tid=TID_SERVE)
        elif t is TenantAdmitted:
            rec.instant("admit", {"span": f"t{event.tenant}",
                                  "tenant": event.tenant,
                                  "queued_us": event.queued_us},
                        tid=TID_SERVE)
        elif t is TenantShed:
            rec.instant("shed", {"span": f"t{event.tenant}",
                                 "tenant": event.tenant,
                                 "reason": event.reason}, tid=TID_SERVE)
        elif t is TenantThrottled:
            rec.instant("throttle", {"span": f"t{event.tenant}",
                                     "tenant": event.tenant,
                                     "rounds": event.rounds},
                        tid=TID_SERVE)
        elif t is TenantComplete:
            rec.instant("complete", {"span": f"t{event.tenant}",
                                     "tenant": event.tenant,
                                     "waves": event.waves}, tid=TID_SERVE)
        elif t is SloViolation:
            rec.instant("slo_violation",
                        {"span": f"t{event.tenant}",
                         "tenant": event.tenant,
                         "objective": event.objective}, tid=TID_SERVE)
        elif t is AlertFired:
            rec.instant(f"alert:{event.name}",
                        {"span": f"t{event.tenant}",
                         "tenant": event.tenant,
                         "state": event.state}, tid=TID_SERVE)
        elif t is RunMeta:
            rec.set_run_meta(event.as_dict())

    def close(self) -> None:
        """Nothing to flush: the CLI writes the recorder explicitly."""


def validate_trace(trace) -> list[str]:
    """Structural problems of a trace object (empty list = valid).

    Checks the contract Perfetto/chrome://tracing rely on: the envelope
    shape, JSON-serializability, non-negative timestamps appended in
    non-decreasing order per track, and matched LIFO ``B``/``E`` pairs.
    """
    problems: list[str] = []
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        return ["trace must be a dict with a 'traceEvents' list"]
    events = trace["traceEvents"]
    if not isinstance(events, list):
        return ["'traceEvents' must be a list"]
    try:
        json.dumps(trace)
    except (TypeError, ValueError) as exc:
        problems.append(f"trace is not JSON-serializable: {exc}")
    last_ts: dict[tuple, float] = {}
    stacks: dict[tuple, list[str]] = {}
    for n, ev in enumerate(events):
        if not isinstance(ev, dict) or "ph" not in ev:
            problems.append(f"event {n}: not a dict with 'ph'")
            continue
        ph = ev["ph"]
        track = (ev.get("pid"), ev.get("tid"))
        if ph == "M":
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"event {n}: bad ts {ts!r}")
            continue
        if ts < last_ts.get(track, 0.0):
            problems.append(f"event {n}: ts {ts} decreases on "
                            f"track {track}")
        last_ts[track] = ts
        if ph == "B":
            stacks.setdefault(track, []).append(ev.get("name"))
        elif ph == "E":
            stack = stacks.setdefault(track, [])
            if not stack:
                problems.append(f"event {n}: E {ev.get('name')!r} "
                                f"without matching B")
            elif stack[-1] != ev.get("name"):
                problems.append(f"event {n}: E {ev.get('name')!r} "
                                f"closes B {stack[-1]!r}")
            else:
                stack.pop()
        elif ph not in ("i", "I", "X", "C"):
            problems.append(f"event {n}: unsupported phase {ph!r}")
    for track, stack in stacks.items():
        if stack:
            problems.append(f"track {track}: unclosed B events {stack}")
    return problems
