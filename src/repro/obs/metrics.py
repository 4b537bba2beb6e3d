"""Rollup metrics: counters, gauges, histograms, and time series.

The registry is the aggregate view of a run: where the event bus keeps
the *sequence* of decisions, the registry keeps distributions and
totals cheap enough to stay attached on long sweeps (a histogram
observation is two array updates; nothing grows with run length except
the decimated time series).

All metric types serialize through ``as_dict()`` into plain JSON types,
and :meth:`MetricsRegistry.write_json` dumps the whole registry -- the
``--metrics out.json`` CLI artifact.

Names are dotted ``component.metric`` paths: ``engine.*`` (wave loop),
``pcie.*`` / ``device.*`` (interconnect and memory pressure series),
``grid.*`` (sweep orchestration), and ``driver.*`` for driver rollups
-- e.g. ``driver.fast_path_hit_rate``, the end-of-run gauge giving the
fraction of waves the resident fast path absorbed (see
``docs/observability.md``).
"""

from __future__ import annotations

import json
import math


class Counter:
    """Monotonically increasing integer total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only count up; use a Gauge")
        self.value += amount

    def as_dict(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def as_dict(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Power-of-two bucketed distribution of non-negative samples.

    Buckets are ``[0]``, ``[1]``, ``(1, 2]``, ``(2, 4]``, ... -- the
    exponential layout suits the quantities the simulator produces
    (thresholds, blocks per eviction, cycles per wave), whose
    interesting structure is the order of magnitude.  Tracks exact
    count/sum/min/max alongside, so means are exact even though the
    shape is bucketed.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        #: bucket index -> samples; index 0 is the value 0, index i >= 1
        #: covers (2**(i-2), 2**(i-1)] (so index 1 is exactly 1).
        self.buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        if value < 0:
            raise ValueError("histogram samples must be non-negative")
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        idx = 0 if value == 0 else 1 + max(0, math.ceil(math.log2(value)))
        self.buckets[idx] = self.buckets.get(idx, 0) + 1

    @property
    def mean(self) -> float:
        """Exact mean of all observed samples (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    @staticmethod
    def bucket_label(idx: int) -> str:
        """Human-readable range of bucket ``idx``."""
        if idx == 0:
            return "0"
        if idx == 1:
            return "1"
        return f"({2 ** (idx - 2):g}, {2 ** (idx - 1):g}]"

    @staticmethod
    def bucket_bounds(idx: int) -> tuple[float, float]:
        """``(lo, hi]`` value range of bucket ``idx`` (degenerate for 0/1)."""
        if idx == 0:
            return 0.0, 0.0
        if idx == 1:
            return 1.0, 1.0
        return float(2 ** (idx - 2)), float(2 ** (idx - 1))

    def quantile(self, q: float) -> float | None:
        """Estimated ``q``-quantile from the power-of-two buckets.

        Exact for the degenerate buckets (0 and 1); linearly
        interpolated within wider buckets and clamped to the exact
        observed ``[min, max]``, so tails never over-shoot.  Returns
        ``None`` when the histogram is empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return None
        target = q * self.count
        cumulative = 0
        for idx in sorted(self.buckets):
            n = self.buckets[idx]
            cumulative += n
            if cumulative >= target:
                lo, hi = self.bucket_bounds(idx)
                frac = 1.0 - (cumulative - target) / n
                value = lo + frac * (hi - lo)
                return min(max(value, self.min), self.max)
        return self.max  # pragma: no cover - cumulative always reaches count

    def as_dict(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p90": self.quantile(0.9),
            "p99": self.quantile(0.99),
            "buckets": {self.bucket_label(i): n
                        for i, n in sorted(self.buckets.items())},
        }


class Series:
    """Bounded ``(x, y)`` time series with stride-doubling decimation.

    Appends are O(1); when the series exceeds ``capacity`` points it
    drops every second retained point and doubles the sampling stride,
    so arbitrarily long runs keep a uniformly-spaced sketch of at most
    ``capacity`` points (e.g. PCIe queue depth over the whole run).
    """

    __slots__ = ("capacity", "points", "_stride", "_skip")

    def __init__(self, capacity: int = 2048) -> None:
        if capacity < 2:
            raise ValueError("capacity must be >= 2")
        self.capacity = capacity
        self.points: list[tuple[float, float]] = []
        self._stride = 1
        self._skip = 0

    def append(self, x: float, y: float) -> None:
        if self._skip:
            self._skip -= 1
            return
        self._skip = self._stride - 1
        self.points.append((x, y))
        if len(self.points) > self.capacity:
            self.points = self.points[::2]
            self._stride *= 2

    def as_dict(self) -> dict:
        return {
            "type": "series",
            "stride": self._stride,
            "points": [[x, y] for x, y in self.points],
        }


class MetricsRegistry:
    """Named metrics, get-or-create per type.

    Asking for an existing name with a different type raises, so two
    subsystems cannot silently alias one metric.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, object] = {}

    def _get(self, name: str, cls, *args):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(*args)
        elif type(metric) is not cls:
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def series(self, name: str, capacity: int = 2048) -> Series:
        return self._get(name, Series, capacity)

    def reset_prefix(self, prefix: str) -> None:
        """Drop every metric whose name starts with ``prefix``.

        The serving layer calls ``reset_prefix("serve.")`` at the start
        of each session so repeated serves against one registry report
        per-run values instead of accumulating counters across runs.
        Metric objects handed out earlier are orphaned, not zeroed: a
        holder of a cached one keeps updating the orphan, so scope the
        prefix to names nobody caches.
        """
        for name in [n for n in self._metrics if n.startswith(prefix)]:
            del self._metrics[name]

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> list[str]:
        """Registered metric names, sorted."""
        return sorted(self._metrics)

    def as_dict(self) -> dict:
        """JSON-serializable snapshot of every metric, name-sorted."""
        return {name: self._metrics[name].as_dict()
                for name in self.names()}

    def write_json(self, path) -> None:
        """Dump the registry snapshot to ``path`` (the ``--metrics`` file)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
