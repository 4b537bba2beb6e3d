"""One span recorder: host wall-clock self time per layer.

A span is one call into a layer entry point (a driver wave, the
migration drain, eviction under pressure, a serve dispatch).
:class:`SpanRecorder` keeps a stack of the open spans, so each span is
charged its *self* time: its duration minus the time of the spans
nested in it.  The self times of all spans add up to the wall time of
the root spans (``run``, ``serve.session``), and ``--profile`` prints
each span's share of that total.  It measures *host* seconds of the
Python simulator, not simulated GPU cycles -- the timing model owns
those.

Spans are installed once, when an object is built with a profiler:
:meth:`SpanRecorder.install` replaces bound methods of that one
instance with timed wrappers.  Code built without a profiler never
checks for one, and spans never touch simulation state, so a profiled
run is bit-identical to a bare one.

With a :class:`~repro.obs.timeline.TimelineRecorder` attached, every
span is also a ``B``/``E`` pair in the trace, and the end of each
per-wave driver span (:data:`WAVE_SPAN`) marks a wave frame.
"""

from __future__ import annotations

import time

#: The per-wave driver span; on a timeline its end marks a wave frame.
WAVE_SPAN = "uvm.driver"


class SpanRecorder:
    """Self seconds and call counts per span name.

    ``timeline`` optionally receives every span as a ``B``/``E`` pair;
    ``clock`` is injectable for tests.
    """

    def __init__(self, timeline=None, clock=time.perf_counter) -> None:
        self.timeline = timeline
        self.clock = clock
        #: span name -> [self seconds, completed calls]
        self.spans: dict[str, list] = {}
        #: Summed duration of the spans opened with no parent.
        self.root_s = 0.0
        # Open spans: [name, start time, time covered by child spans].
        self._stack: list[list] = []

    def enter(self, name: str, args: dict | None = None) -> None:
        """Open a span; ``args`` label its timeline ``B`` event."""
        if self.timeline is not None:
            self.timeline.begin(name, args=args)
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        """Close the innermost open span and charge its self time."""
        t = self.clock()
        name, t0, child = self._stack.pop()
        dur = t - t0
        entry = self.spans.setdefault(name, [0.0, 0])
        entry[0] += dur - child
        entry[1] += 1
        if self._stack:
            self._stack[-1][2] += dur
        else:
            self.root_s += dur
        if self.timeline is not None:
            self.timeline.end(name)
            if name == WAVE_SPAN:
                self.timeline.frame()

    def wrap(self, name: str, fn, args=None):
        """``fn`` with every call timed as one ``name`` span.

        ``args`` optionally maps the call's arguments to the span's
        timeline args; it is only called when a timeline is attached.
        The span is listed by :meth:`render` from now on, called or not.
        """
        self.spans.setdefault(name, [0.0, 0])
        enter, leave = self.enter, self.exit
        if self.timeline is None:
            args = None

        def timed(*a, **kw):
            enter(name, None if args is None else args(*a, **kw))
            try:
                return fn(*a, **kw)
            finally:
                leave()

        return timed

    def steps(self, name: str, iterable):
        """Iterate ``iterable`` with every step timed as one ``name`` span.

        A step is one ``next()``: the work of producing the item, not
        the caller's work with it between steps.
        """
        self.spans.setdefault(name, [0.0, 0])
        enter, leave = self.enter, self.exit
        it = iter(iterable)
        while True:
            enter(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                leave()
            yield item

    def install(self, obj, spans: dict[str, str]) -> None:
        """Time bound methods of ``obj``: ``spans`` maps each attribute
        to its span name.  Only ``obj`` itself is patched, not its
        class."""
        for attr, name in spans.items():
            setattr(obj, attr, self.wrap(name, getattr(obj, attr)))

    def render(self) -> str:
        """ASCII self-time table, heaviest first (the ``--profile`` output)."""
        if not self.spans:
            return "(no profiled spans)"
        total = self.root_s or 1.0
        lines = [f"-- profile: host self time per span (shares of the "
                 f"{self.root_s:.4f} s in root spans)",
                 f"{'span':<16} {'self s':>10} {'calls':>10} "
                 f"{'mean us':>10} {'share':>7}"]
        for name, (sec, calls) in sorted(self.spans.items(),
                                         key=lambda kv: -kv[1][0]):
            mean_us = sec / calls * 1e6 if calls else 0.0
            lines.append(f"{name:<16} {sec:>10.4f} {calls:>10} "
                         f"{mean_us:>10.1f} {100 * sec / total:>6.2f}%")
        return "\n".join(lines)
