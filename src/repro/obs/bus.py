"""The structured event bus: fan-out of simulator events to sinks.

Design goals, in priority order:

1. **Zero overhead when disabled.**  A simulator built without an
   :class:`~repro.obs.Observability` handle never constructs an event
   object; instrumented call sites guard on a plain attribute check.
   With a bus attached but no sinks, :attr:`EventBus.enabled` is False
   and the guards still skip event construction.
2. **No feedback into the simulation.**  Emission never touches driver
   state or any RNG stream, so a run with sinks attached is
   bit-identical to one without (pinned by
   ``tests/property/test_obs_identity.py``).
3. **Pluggable sinks.**  Ring buffer for tests/interactive inspection,
   JSONL for durable logs, metrics rollup for aggregates -- any object
   with ``write(event)`` works (see :mod:`repro.obs.sinks`).
"""

from __future__ import annotations

from .events import Event


class EventBus:
    """Fans emitted events out to every attached sink.

    The bus also carries the *wave context*: the driver sets
    :attr:`wave` at the start of every wave so deeper layers (counter
    file, eviction path) can stamp their events without threading a
    wave index through every call.
    """

    __slots__ = ("sinks", "enabled", "wave")

    def __init__(self) -> None:
        self.sinks: list = []
        #: True as soon as any sink is attached; instrumented hot paths
        #: check this single attribute before building an event.
        self.enabled = False
        #: Index of the wave currently being processed (0-based).
        self.wave = 0

    def attach(self, sink) -> None:
        """Attach ``sink`` (any object with ``write(event)``)."""
        self.sinks.append(sink)
        self.enabled = True

    def emit(self, event: Event) -> None:
        """Deliver ``event`` to every sink, in attachment order."""
        for sink in self.sinks:
            sink.write(event)

    def close(self) -> None:
        """Close every sink that supports it (JSONL files flush here)."""
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()
