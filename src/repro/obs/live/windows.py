"""Windowed streaming aggregators for the live telemetry plane.

The serving layer needs *recent* signals -- latency over the last few
milliseconds, thrash per wave right now -- where the end-of-run
:class:`~repro.obs.metrics.MetricsRegistry` only offers whole-run
aggregates.  This module provides the three primitives the live plane
is built from:

* :class:`WindowAggregate` -- a mergeable summary of one window
  (count/total/min/max plus a ``bad`` counter for SLO bookkeeping).
  ``merge`` is associative and commutative, which is what lets
  multi-window burn-rate evaluation reuse the same closed windows at
  different horizons; the property suite pins this.
* :class:`TumblingWindow` -- fixed-width, non-overlapping windows over
  the *simulated* serving clock.  Window boundaries depend only on
  observation timestamps, never on host time, so closed-window
  sequences are bit-identical across replays and backends.
* :class:`Ewma` -- a deterministic exponentially-weighted moving
  average (plain float recurrence, no host state).

Everything here is pure bookkeeping over values the caller already
computed: nothing reads driver state, touches RNG streams, or consults
wall clocks, preserving the observability layer's bit-identical-on
guarantee.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import islice


class WindowAggregate:
    """Mergeable summary of observations inside one window.

    ``bad`` counts observations flagged by the caller (e.g. waves whose
    latency exceeded the SLO target); ``bad_fraction`` is the ratio the
    burn-rate math consumes.  The empty aggregate is the identity
    element of :meth:`merge`.
    """

    __slots__ = ("count", "total", "vmin", "vmax", "bad")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.vmin = math.inf
        self.vmax = -math.inf
        self.bad = 0

    def observe(self, value: float, bad: bool = False) -> None:
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value
        if bad:
            self.bad += 1

    def merge(self, other: "WindowAggregate") -> "WindowAggregate":
        """Combined aggregate; ``self`` and ``other`` are untouched."""
        out = WindowAggregate()
        out.count = self.count + other.count
        out.total = self.total + other.total
        out.vmin = min(self.vmin, other.vmin)
        out.vmax = max(self.vmax, other.vmax)
        out.bad = self.bad + other.bad
        return out

    @classmethod
    def merge_all(cls, aggregates) -> "WindowAggregate":
        out = cls()
        for agg in aggregates:
            out = out.merge(agg)
        return out

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def maximum(self) -> float:
        return self.vmax if self.count else 0.0

    @property
    def bad_fraction(self) -> float:
        return self.bad / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        return {"count": self.count, "total": self.total,
                "min": self.vmin if self.count else 0.0,
                "max": self.maximum, "bad": self.bad}

    def __eq__(self, other) -> bool:
        if not isinstance(other, WindowAggregate):
            return NotImplemented
        return (self.count == other.count and self.total == other.total
                and self.vmin == other.vmin and self.vmax == other.vmax
                and self.bad == other.bad)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"WindowAggregate(count={self.count}, total={self.total}, "
                f"bad={self.bad})")


class TumblingWindow:
    """Fixed-width tumbling windows over a monotonic simulated clock.

    Observations land in the window ``int(at_us // width_us)``; moving
    past a boundary closes every window up to the new one.  Closed
    windows are retained in a bounded history (``keep`` most recent) so
    multi-horizon burn rates can merge the last N without unbounded
    memory; freshly-closed windows are additionally staged for
    :meth:`drain` so the telemetry hub can emit one event per close.

    Time gaps produce explicitly *empty* closed windows (capped at the
    history bound) -- an idle tenant genuinely served zero waves in
    those windows, and burn-rate math must see that.
    """

    __slots__ = ("width_us", "keep", "closed", "_fresh", "_index",
                 "_current")

    def __init__(self, width_us: float, keep: int = 64) -> None:
        if width_us <= 0:
            raise ValueError(f"window width must be positive: {width_us}")
        self.width_us = float(width_us)
        self.keep = int(keep)
        #: (start_us, aggregate) pairs, oldest first, bounded.
        self.closed: deque = deque(maxlen=self.keep)
        self._fresh: list = []
        self._index = 0
        self._current = WindowAggregate()

    def _advance(self, index: int) -> None:
        # Close [self._index, index); large gaps only materialize the
        # last ``keep`` empty windows (older ones would be evicted from
        # the bounded history anyway).
        first = max(self._index, index - self.keep)
        if first > self._index:
            self._current = WindowAggregate()
            self._index = first
        while self._index < index:
            item = (self._index * self.width_us, self._current)
            self.closed.append(item)
            self._fresh.append(item)
            self._current = WindowAggregate()
            self._index += 1

    def observe(self, at_us: float, value: float, bad: bool = False) -> None:
        index = int(at_us // self.width_us)
        if index > self._index:
            self._advance(index)
        self._current.observe(value, bad)

    def roll(self, at_us: float) -> None:
        """Close every window strictly before ``at_us``'s window."""
        index = int(at_us // self.width_us)
        if index > self._index:
            self._advance(index)

    def drain(self) -> list:
        """``(start_us, aggregate)`` pairs closed since the last drain."""
        fresh, self._fresh = self._fresh, []
        return fresh

    @property
    def open_start_us(self) -> float:
        """Left edge of the currently-open window."""
        return self._index * self.width_us

    def recent(self, n: int) -> list:
        """The most recent ``n`` closed aggregates, oldest first."""
        if n <= 0:
            return []
        return [agg for _, agg in list(self.closed)[-n:]]

    def merged(self, n: int) -> WindowAggregate:
        """Merge of the most recent ``n`` closed windows.

        Equals ``WindowAggregate.merge_all(self.recent(n))``: the same
        left fold, accumulated into one aggregate without copying the
        history.
        """
        out = WindowAggregate()
        if n <= 0:
            return out
        closed = self.closed
        for _, agg in islice(closed, max(len(closed) - n, 0), None):
            out.count += agg.count
            out.total += agg.total
            if agg.vmin < out.vmin:
                out.vmin = agg.vmin
            if agg.vmax > out.vmax:
                out.vmax = agg.vmax
            out.bad += agg.bad
        return out


class Ewma:
    """Deterministic exponentially-weighted moving average.

    ``value`` is ``None`` until the first update (so callers can
    distinguish "no signal yet" from a genuine zero), then follows the
    standard recurrence ``v <- alpha * x + (1 - alpha) * v``.  Pure
    float arithmetic: feeding the same sequence always yields the same
    value, on any backend.
    """

    __slots__ = ("alpha", "value")

    def __init__(self, alpha: float = 0.3) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1]: {alpha}")
        self.alpha = float(alpha)
        self.value: float | None = None

    def update(self, sample: float) -> float:
        if self.value is None:
            self.value = float(sample)
        else:
            self.value = self.alpha * float(sample) \
                + (1.0 - self.alpha) * self.value
        return self.value

    def get(self, default: float = 0.0) -> float:
        return self.value if self.value is not None else default


class KeyedWindows:
    """Per-key (per-tenant) family of :class:`TumblingWindow`.

    Windows are created on first observation; iteration order is
    insertion order, which in the serving layer is deterministic tenant
    arrival order.
    """

    __slots__ = ("width_us", "keep", "_windows")

    def __init__(self, width_us: float, keep: int = 64) -> None:
        self.width_us = float(width_us)
        self.keep = int(keep)
        self._windows: dict = {}

    def window(self, key) -> TumblingWindow:
        win = self._windows.get(key)
        if win is None:
            win = TumblingWindow(self.width_us, keep=self.keep)
            self._windows[key] = win
        return win

    def observe(self, key, at_us: float, value: float,
                bad: bool = False) -> None:
        self.window(key).observe(at_us, value, bad)

    def roll(self, at_us: float) -> None:
        for win in self._windows.values():
            win.roll(at_us)

    def keys(self):
        return self._windows.keys()

    def items(self):
        return self._windows.items()

    def __contains__(self, key) -> bool:
        return key in self._windows

    def __len__(self) -> int:
        return len(self._windows)
