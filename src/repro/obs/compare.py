"""Cross-run comparison: the ``repro diff`` engine.

Takes two :class:`~repro.obs.store.ArchivedRun` entries and reports
what actually changed between them, at three depths:

* **result metrics** -- kernel cycles, migrations, evictions, faults,
  remote accesses, thrashing -- as per-metric deltas with
  significance-aware formatting (changes below a noise tolerance are
  marked as such instead of shouting 0.02%);
* **configuration** -- the flattened set of config fields that differ,
  so a surprising metric delta is attributable at a glance;
* **event-level structure** (when both runs archived their event logs)
  -- round-trip histograms by quantile, the symmetric difference of
  the top-thrashing-block sets, and each allocation's ``t_d``
  trajectory endpoints (Equation 1's adaptive threshold over time).

``diff_runs`` builds a :class:`RunDiff`; ``render_diff`` formats it for
humans and :meth:`RunDiff.as_dict` backs ``repro diff --json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .inspect import LogSummary, summarize
from .metrics import Histogram

#: Result-summary metrics compared by ``repro diff``:
#: name -> direction ("lower" / "higher" is better, None = neutral).
SUMMARY_METRICS: tuple[tuple[str, str | None], ...] = (
    ("cycles", "lower"),
    ("runtime_ms", "lower"),
    ("accesses", None),
    ("local", "higher"),
    ("remote", "lower"),
    ("faults", "lower"),
    ("migrated_blocks", None),
    ("prefetched_blocks", None),
    ("evicted_blocks", "lower"),
    ("writeback_blocks", "lower"),
    ("thrash_migrations", "lower"),
    ("retried_transfers", "lower"),
    ("degraded_accesses", "lower"),
)


@dataclass(frozen=True)
class MetricDelta:
    """One metric's movement between run A and run B."""

    name: str
    a: float
    b: float
    #: Better-direction hint ("lower"/"higher"), None when neutral.
    direction: str | None
    #: Relative change (b - a) / a, or None when a == 0 and b != 0.
    pct: float | None
    #: False when the change is within the noise tolerance.
    significant: bool

    @property
    def delta(self) -> float:
        return self.b - self.a

    @property
    def verdict(self) -> str:
        """``same`` / ``changed`` / ``better`` / ``worse`` (A -> B)."""
        if not self.significant:
            return "same"
        if self.direction is None:
            return "changed"
        improved = (self.delta < 0) == (self.direction == "lower")
        return "better" if improved else "worse"

    def as_dict(self) -> dict:
        return {"name": self.name, "a": self.a, "b": self.b,
                "delta": self.delta, "pct": self.pct,
                "verdict": self.verdict}


def metric_delta(name: str, a: float, b: float,
                 direction: str | None = None,
                 tolerance: float = 0.01) -> MetricDelta:
    """Build one delta; ``tolerance`` is the relative noise floor."""
    if a == 0:
        pct = 0.0 if b == 0 else None
        significant = b != 0
    else:
        pct = (b - a) / a
        significant = abs(pct) >= tolerance
    return MetricDelta(name=name, a=a, b=b, direction=direction,
                       pct=pct, significant=significant)


def _quantile_row(hist: Histogram) -> dict:
    """Compact distribution sketch: count plus p50/p90/max."""
    return {
        "count": hist.count,
        "p50": hist.quantile(0.5),
        "p90": hist.quantile(0.9),
        "max": hist.max if hist.count else None,
    }


@dataclass(frozen=True)
class TrajectoryDelta:
    """One allocation's ``t_d`` trajectory in both runs."""

    allocation: str
    decisions_a: int
    decisions_b: int
    td_first_a: float | None
    td_last_a: float | None
    td_first_b: float | None
    td_last_b: float | None
    td_max_a: int
    td_max_b: int

    def as_dict(self) -> dict:
        return {
            "allocation": self.allocation,
            "a": {"decisions": self.decisions_a, "td_first": self.td_first_a,
                  "td_last": self.td_last_a, "td_max": self.td_max_a},
            "b": {"decisions": self.decisions_b, "td_first": self.td_first_b,
                  "td_last": self.td_last_b, "td_max": self.td_max_b},
        }


@dataclass(frozen=True)
class EventDiff:
    """Event-log-derived comparison (present when both logs archived)."""

    roundtrips_a: dict
    roundtrips_b: dict
    #: Top-thrashing block ids seen in exactly one of the runs.
    thrash_only_a: tuple[int, ...]
    thrash_only_b: tuple[int, ...]
    thrash_shared: int
    trajectories: tuple[TrajectoryDelta, ...]

    def as_dict(self) -> dict:
        return {
            "roundtrips": {"a": self.roundtrips_a, "b": self.roundtrips_b},
            "top_thrashing": {"only_a": list(self.thrash_only_a),
                              "only_b": list(self.thrash_only_b),
                              "shared": self.thrash_shared},
            "td_trajectories": [t.as_dict() for t in self.trajectories],
        }


@dataclass(frozen=True)
class RunDiff:
    """Everything ``repro diff`` knows about a pair of archived runs."""

    a: "object"  # RunManifest (kept untyped to avoid a store import cycle)
    b: "object"
    metrics: tuple[MetricDelta, ...]
    config_changes: dict = field(default_factory=dict)
    events: EventDiff | None = None

    def as_dict(self) -> dict:
        return {
            "run_a": self.a.as_dict(),
            "run_b": self.b.as_dict(),
            "metrics": [m.as_dict() for m in self.metrics],
            "config_changes": {k: {"a": va, "b": vb}
                               for k, (va, vb) in self.config_changes.items()},
            "events": self.events.as_dict() if self.events else None,
        }


def flatten_config(config: dict, prefix: str = "") -> dict:
    """Nested config dict -> ``{"gpu.clock_hz": ..., ...}``."""
    flat = {}
    for key, value in config.items():
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            flat.update(flatten_config(value, path))
        else:
            flat[path] = value
    return flat


def _config_changes(a: dict, b: dict) -> dict:
    fa, fb = flatten_config(a), flatten_config(b)
    changes = {}
    for key in sorted(set(fa) | set(fb)):
        va, vb = fa.get(key), fb.get(key)
        if va != vb:
            changes[key] = (va, vb)
    return changes


def _trajectories(sa: LogSummary, sb: LogSummary) -> tuple:
    by_name_a = {t.name: t for t in sa.allocations}
    by_name_b = {t.name: t for t in sb.allocations}
    rows = []
    for name in sorted(set(by_name_a) | set(by_name_b)):
        ta, tb = by_name_a.get(name), by_name_b.get(name)
        if (ta is None or not ta.decisions) and (tb is None
                                                 or not tb.decisions):
            continue
        traj_a = ta.trajectory() if ta else []
        traj_b = tb.trajectory() if tb else []
        rows.append(TrajectoryDelta(
            allocation=name,
            decisions_a=ta.decisions if ta else 0,
            decisions_b=tb.decisions if tb else 0,
            td_first_a=traj_a[0] if traj_a else None,
            td_last_a=traj_a[-1] if traj_a else None,
            td_first_b=traj_b[0] if traj_b else None,
            td_last_b=traj_b[-1] if traj_b else None,
            td_max_a=ta.max_threshold if ta else 0,
            td_max_b=tb.max_threshold if tb else 0))
    return tuple(rows)


def diff_events(sa: LogSummary, sb: LogSummary, top: int = 10) -> EventDiff:
    """Compare two event-log summaries (see :func:`summarize`)."""
    set_a = {r["block"] for r in sa.top_thrashing_blocks(top)}
    set_b = {r["block"] for r in sb.top_thrashing_blocks(top)}
    return EventDiff(
        roundtrips_a=_quantile_row(sa.roundtrip_histogram()),
        roundtrips_b=_quantile_row(sb.roundtrip_histogram()),
        thrash_only_a=tuple(sorted(set_a - set_b)),
        thrash_only_b=tuple(sorted(set_b - set_a)),
        thrash_shared=len(set_a & set_b),
        trajectories=_trajectories(sa, sb))


def diff_runs(a, b, tolerance: float = 0.01, top: int = 10) -> RunDiff:
    """Diff two :class:`~repro.obs.store.ArchivedRun` entries.

    ``tolerance`` is the relative change below which a metric is
    reported as noise; ``top`` bounds the thrashing-block sets.
    """
    sum_a = a.result.summary()
    sum_b = b.result.summary()
    metrics = tuple(
        metric_delta(name, float(sum_a[name]), float(sum_b[name]),
                     direction=direction, tolerance=tolerance)
        for name, direction in SUMMARY_METRICS)
    events = None
    if a.events_path and b.events_path:
        events = diff_events(summarize(a.events_path),
                             summarize(b.events_path), top=top)
    return RunDiff(a=a.manifest, b=b.manifest, metrics=metrics,
                   config_changes=_config_changes(a.manifest.config,
                                                  b.manifest.config),
                   events=events)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:,.1f}" if abs(value) >= 10 else f"{value:.3g}"
    if isinstance(value, int) and not isinstance(value, bool):
        return f"{value:,}"
    return str(value)


def _fmt_pct(delta: MetricDelta) -> str:
    if delta.pct is None:
        return "new"  # a == 0, b != 0: relative change undefined
    if not delta.significant:
        return "~0%"
    return f"{delta.pct:+.1%}"


def _table(headers, rows) -> str:
    cells = [[str(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(headers)]

    def fmt(row):
        return "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()

    return "\n".join([fmt(headers), fmt(["-" * w for w in widths])]
                     + [fmt(r) for r in cells])


def _describe(manifest) -> str:
    git = manifest.git or {}
    sha = (git.get("sha") or "?")[:10]
    dirty = "+dirty" if git.get("dirty") else ""
    return (f"{manifest.run_id}  {manifest.workload}/{manifest.policy} "
            f"seed {manifest.seed} oversub {manifest.oversubscription} "
            f"@ {sha}{dirty}")


def render_diff(diff: RunDiff) -> str:
    """Human-readable report of a :func:`diff_runs` result."""
    lines = ["== run diff ==",
             f"A: {_describe(diff.a)}",
             f"B: {_describe(diff.b)}",
             ""]
    if diff.config_changes:
        lines.append("-- config changes (A -> B)")
        lines.append(_table(
            ["field", "a", "b"],
            [[k, _fmt(va), _fmt(vb)]
             for k, (va, vb) in diff.config_changes.items()]))
        lines.append("")

    lines.append("-- result metrics (changes under the noise tolerance "
                 "shown as ~0%)")
    lines.append(_table(
        ["metric", "a", "b", "delta", "change", "verdict"],
        [[m.name, _fmt(m.a), _fmt(m.b), _fmt(m.delta), _fmt_pct(m),
          m.verdict] for m in diff.metrics]))

    ev = diff.events
    if ev is not None:
        lines.append("")
        lines.append("-- round trips per thrashing block (from event logs)")
        lines.append(_table(
            ["run", "thrashing blocks", "p50", "p90", "max"],
            [["a", ev.roundtrips_a["count"], _fmt(ev.roundtrips_a["p50"]),
              _fmt(ev.roundtrips_a["p90"]), _fmt(ev.roundtrips_a["max"])],
             ["b", ev.roundtrips_b["count"], _fmt(ev.roundtrips_b["p50"]),
              _fmt(ev.roundtrips_b["p90"]), _fmt(ev.roundtrips_b["max"])]]))
        lines.append("")
        lines.append(f"-- top-thrashing blocks: {ev.thrash_shared} shared, "
                     f"{len(ev.thrash_only_a)} only in A, "
                     f"{len(ev.thrash_only_b)} only in B")
        if ev.thrash_only_a:
            lines.append("   only A: "
                         + ", ".join(map(str, ev.thrash_only_a)))
        if ev.thrash_only_b:
            lines.append("   only B: "
                         + ", ".join(map(str, ev.thrash_only_b)))
        if ev.trajectories:
            lines.append("")
            lines.append("-- td trajectory per allocation "
                         "(adaptive threshold, first -> last wave)")
            lines.append(_table(
                ["allocation", "decisions a/b", "td a", "td b",
                 "td max a/b"],
                [[t.allocation,
                  f"{t.decisions_a}/{t.decisions_b}",
                  f"{_fmt(t.td_first_a)} -> {_fmt(t.td_last_a)}",
                  f"{_fmt(t.td_first_b)} -> {_fmt(t.td_last_b)}",
                  f"{t.td_max_a}/{t.td_max_b}"]
                 for t in ev.trajectories]))
    else:
        lines.append("")
        lines.append("(no event logs archived for both runs; "
                     "td trajectories and thrash sets unavailable)")
    return "\n".join(lines)
