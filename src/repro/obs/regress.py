"""Perf-regression detection over the bench history.

``benchmarks/bench_perf.py`` appends every report to
``BENCH_history.jsonl`` (one JSON object per line, newest last).  This
module turns that series into a gate: the newest point is compared
against a **trailing-window baseline** -- the median of the last
``window`` *comparable* points (same workload scale, same host
fingerprint; perf numbers do not transfer across machines) -- and each
gated metric must stay within a relative tolerance of that baseline.

``tools/check_regression.py`` is the CLI wrapper CI runs: exit status 0
when every gated metric holds, non-zero on regression.  A history too
short to form a baseline *passes* with ``skipped`` findings -- a fresh
host must be able to seed its own baseline.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass

#: Gated metrics: dotted path into a bench report -> better direction.
#: Wall-clock numbers are deliberately absent (shared boxes make them
#: too noisy to gate on); CPU time and throughput are the contract.
GATED_METRICS: dict[str, str] = {
    "throughput.accesses_per_second": "higher",
    "sweep_grid.serial_cpu_seconds": "lower",
    # Resident fast path (steady-state all-resident waves): both the
    # microbench throughput and the hit rate the throughput cells see.
    # Absent from pre-fast-path history entries, so those skip cleanly.
    "fast_path.steady_state_accesses_per_second": "higher",
    "fast_path.hit_rate": "higher",
    # Live (non-replay) single-cell wave generation + simulation
    # throughput, next to the replay ceiling.  Absent from older
    # history entries.
    "throughput.live_accesses_per_second": "higher",
    # Multi-tenant serving scenario (deterministic simulated-clock
    # quantities: behavioral regressions, not host noise).  Absent
    # from pre-serve history entries, so those skip cleanly.
    "serve.accesses_per_second": "higher",
    "serve.p99_wave_latency_us": "lower",
    "serve.shed_rate": "lower",
    # Fused multi-tenant batch dispatch on the 8-tenant ra cell: host
    # throughput of the serve path's fused dispatch.  Wall-derived, so
    # the tolerance absorbs host drift while fused-path-specific rot
    # still shows.  Absent from pre-batching history entries, so those
    # skip cleanly.
    "serve_fused.fused_accesses_per_second": "higher",
    # Wall-clock tax of the live telemetry stack on the serve scenario.
    # The one deliberate wall-time gate: overhead is a *ratio* of two
    # walls measured back to back on the same box, so host noise mostly
    # cancels.  Absent from pre-telemetry history entries (skips), and
    # a zero-median baseline also skips rather than divides.
    "telemetry.overhead_pct": "lower",
}

#: Default trailing-window length and relative tolerance.
DEFAULT_WINDOW = 5
DEFAULT_TOLERANCE = 0.20


def lookup(report: dict, path: str):
    """Resolve a dotted ``path`` in a bench report (None when absent)."""
    node = report
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def fingerprint(report: dict) -> tuple:
    """What makes two bench reports comparable: scale + host + backend.

    The kernel backend is part of comparability: the frozen history
    carries a ``backend`` section from when a compiled backend existed,
    and a compiled number must never baseline a pure-python one.  A
    report without the section (before it existed, or after the
    compiled backend was removed) is ``python``.
    """
    host = report.get("host") or {}
    return (lookup(report, "throughput.scale"),
            host.get("machine"), host.get("cpus"),
            lookup(report, "backend.active") or "python")


def load_history(path) -> list[dict]:
    """Parse a ``BENCH_history.jsonl`` file, skipping torn lines."""
    entries = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(entry, dict):
                entries.append(entry)
    return entries


def append_history(path, report: dict) -> bool:
    """Append one bench report to the history (flushed, single line).

    A report whose ``git.dirty`` is true is refused: it measures code
    no commit holds, so it cannot serve as anyone's baseline.  Returns
    whether the report was appended.
    """
    if (report.get("git") or {}).get("dirty"):
        return False
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(report, sort_keys=True) + "\n")
        fh.flush()
    return True


@dataclass(frozen=True)
class Finding:
    """One gated metric's verdict for the candidate report."""

    metric: str
    direction: str
    value: float | None
    #: Median of the baseline window (None when no baseline exists).
    baseline: float | None
    #: value / baseline (None when unavailable).
    ratio: float | None
    #: ``ok`` | ``improved`` | ``regression`` | ``skipped``
    status: str

    def as_dict(self) -> dict:
        return {"metric": self.metric, "direction": self.direction,
                "value": self.value, "baseline": self.baseline,
                "ratio": self.ratio, "status": self.status}


@dataclass(frozen=True)
class RegressionReport:
    """All findings for one candidate, plus the baseline's size."""

    findings: tuple[Finding, ...]
    baseline_points: int
    window: int
    tolerance: float

    @property
    def ok(self) -> bool:
        return not any(f.status == "regression" for f in self.findings)

    @property
    def regressions(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.status == "regression")

    def as_dict(self) -> dict:
        return {"ok": self.ok, "baseline_points": self.baseline_points,
                "window": self.window, "tolerance": self.tolerance,
                "findings": [f.as_dict() for f in self.findings]}

    def render(self) -> str:
        lines = [f"-- perf regression check (baseline: median of "
                 f"{self.baseline_points} comparable point(s), "
                 f"tolerance {self.tolerance:.0%})"]
        width = max((len(f.metric) for f in self.findings), default=10)
        for f in self.findings:
            if f.status == "skipped":
                lines.append(f"{f.metric:<{width}}  skipped "
                             f"(no comparable baseline)")
                continue
            lines.append(
                f"{f.metric:<{width}}  {f.value:,.4g} vs baseline "
                f"{f.baseline:,.4g} ({f.ratio:,.3f}x, "
                f"{f.direction} is better): {f.status}")
        lines.append("PASS" if self.ok
                     else f"FAIL: {len(self.regressions)} metric(s) "
                          f"regressed")
        return "\n".join(lines)


def _judge(metric: str, direction: str, value, baseline_values,
           tolerance: float) -> Finding:
    values = [v for v in baseline_values if isinstance(v, (int, float))]
    if value is None or not values:
        return Finding(metric=metric, direction=direction,
                       value=value, baseline=None, ratio=None,
                       status="skipped")
    baseline = float(statistics.median(values))
    if baseline == 0:
        return Finding(metric=metric, direction=direction, value=value,
                       baseline=baseline, ratio=None, status="skipped")
    ratio = value / baseline
    if direction == "higher":
        status = ("regression" if ratio < 1 - tolerance
                  else "improved" if ratio > 1 + tolerance else "ok")
    else:
        status = ("regression" if ratio > 1 + tolerance
                  else "improved" if ratio < 1 - tolerance else "ok")
    return Finding(metric=metric, direction=direction, value=float(value),
                   baseline=baseline, ratio=ratio, status=status)


def check_regression(history: list[dict], candidate: dict | None = None,
                     window: int = DEFAULT_WINDOW,
                     tolerance: float = DEFAULT_TOLERANCE,
                     metrics: dict[str, str] | None = None
                     ) -> RegressionReport:
    """Judge ``candidate`` (default: the newest history entry) against
    the trailing-window baseline of comparable history points.

    Raises ``ValueError`` when there is no candidate at all; an empty
    *baseline* is not an error (every finding is ``skipped`` and the
    report passes).
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    metrics = metrics if metrics is not None else GATED_METRICS
    pool = list(history)
    if candidate is None:
        if not pool:
            raise ValueError("empty history and no candidate report")
        candidate = pool[-1]
        pool = pool[:-1]
    want = fingerprint(candidate)
    comparable = [e for e in pool if fingerprint(e) == want]
    baseline_window = comparable[-window:]
    findings = tuple(
        _judge(metric, direction, lookup(candidate, metric),
               [lookup(e, metric) for e in baseline_window], tolerance)
        for metric, direction in sorted(metrics.items()))
    return RegressionReport(findings=findings,
                            baseline_points=len(baseline_window),
                            window=window, tolerance=tolerance)
