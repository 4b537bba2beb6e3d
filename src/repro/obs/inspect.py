"""Post-mortem analysis of a JSONL event log (``repro inspect``).

Reads a log written by :class:`~repro.obs.sinks.JsonlSink` and distills
the questions the paper's mechanism raises in practice:

* **Which blocks thrash?**  Blocks re-migrated after eviction are the
  pathology the adaptive threshold exists to stop; the summary ranks
  them and attributes each to its managed allocation.
* **How did the threshold move?**  Per allocation, the trajectory of
  the mean ``td`` far accesses were judged against -- flat 1 means
  first-touch behaviour, a rising curve shows Equation 1 progressively
  pinning an allocation to host memory.
* **What did eviction and fault handling cost?**  Totals per event
  kind, eviction write-back volume, injected-fault retry outcomes.

Everything works from the log alone (the :class:`~repro.obs.events.RunMeta`
header makes logs self-describing); no simulator state is needed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .events import (
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
from .metrics import Histogram
from .sinks import open_text

#: Sparkline glyphs, lowest to highest.
_SPARK = "▁▂▃▄▅▆▇█"


def iter_events(path):
    """Yield events from a JSONL log, skipping blank and torn lines.

    ``*.jsonl.gz`` logs are read through gzip transparently.  A log cut
    short by a killed run may end mid-line; such torn tails are
    ignored, matching the checkpoint journal's reader semantics.
    """
    with open_text(path, "r") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                continue
            yield from_dict(row)


@dataclass
class AllocationTrend:
    """Per-allocation migrate-vs-remote and threshold statistics."""

    name: str
    first_block: int
    last_block: int
    decisions: int = 0
    migrated: int = 0
    max_threshold: int = 0
    #: wave -> [threshold sum, decision count]
    _by_wave: dict = field(default_factory=dict, repr=False)

    def observe(self, ev: MigrationDecision) -> None:
        self.decisions += 1
        if ev.migrated:
            self.migrated += 1
        if ev.threshold > self.max_threshold:
            self.max_threshold = ev.threshold
        entry = self._by_wave.get(ev.wave)
        if entry is None:
            self._by_wave[ev.wave] = [ev.threshold, 1]
        else:
            entry[0] += ev.threshold
            entry[1] += 1

    def trajectory(self, buckets: int = 32) -> list[float]:
        """Mean threshold over time, compressed to <= ``buckets`` points."""
        if not self._by_wave:
            return []
        waves = sorted(self._by_wave)
        lo, hi = waves[0], waves[-1]
        span = max(hi - lo + 1, 1)
        sums = [0.0] * min(buckets, span)
        counts = [0] * len(sums)
        for w in waves:
            i = min((w - lo) * len(sums) // span, len(sums) - 1)
            s, n = self._by_wave[w]
            sums[i] += s
            counts[i] += n
        return [s / n for s, n in zip(sums, counts) if n]

    def sparkline(self, buckets: int = 32) -> str:
        """ASCII sketch of the threshold trajectory."""
        traj = self.trajectory(buckets)
        if not traj:
            return ""
        lo, hi = min(traj), max(traj)
        if hi - lo < 1e-12:
            return _SPARK[0] * len(traj)
        return "".join(
            _SPARK[int((v - lo) / (hi - lo) * (len(_SPARK) - 1))]
            for v in traj)


@dataclass
class TenantSummary:
    """Lifecycle of one tenant in a ``repro serve`` event log."""

    tenant: int
    workload: str = "?"
    arrived_us: float = 0.0
    admits: int = 0
    queued_us: float = 0.0
    sheds: int = 0
    shed_reason: str = ""
    throttles: int = 0
    throttle_rounds: int = 0
    waves: int = 0
    p99_wave_latency_us: float = 0.0
    thrash_migrations: int = 0
    cross_evictions: int = 0
    completed: bool = False
    #: Closed telemetry windows seen for this tenant (live logs only).
    windows: int = 0
    #: Latest streaming estimates from the last TelemetryWindow.
    ewma_latency_us: float = 0.0
    thrash_rate: float = 0.0
    #: SLO bookkeeping: violation transitions, worst final attainment
    #: across objectives (None until an SloAttainment arrives), and
    #: whether every objective's verdict was met.
    slo_violations: int = 0
    slo_attainment: float | None = None
    slo_met: bool | None = None
    #: Alert ``firing`` transitions scoped to this tenant.
    alerts: int = 0
    #: Fair-scheduler accounting from TenantSched (non-default
    #: schedulers / wave batching only; ``sched_seen`` gates display).
    sched_seen: bool = False
    weight: float = 1.0
    deficit: float = 0.0
    batched_waves: int = 0

    @property
    def state(self) -> str:
        if self.completed:
            return "complete"
        if self.sheds:
            return f"shed:{self.shed_reason}"
        if self.admits:
            return "admitted"
        return "arrived"

    @property
    def interference(self) -> int:
        """Cross-tenant pressure felt and caused: evictions suffered
        from other tenants plus thrash charged to this tenant's data."""
        return self.cross_evictions + self.thrash_migrations


@dataclass
class LogSummary:
    """Aggregated view of one event log."""

    meta: RunMeta | None = None
    #: event kind -> count
    event_counts: dict = field(default_factory=dict)
    #: block -> number of migrations (MigrationDecision.migrated)
    migrations_per_block: dict = field(default_factory=dict)
    #: block -> last threshold it was judged against
    last_threshold: dict = field(default_factory=dict)
    allocations: list[AllocationTrend] = field(default_factory=list)
    evicted_blocks: int = 0
    writeback_blocks: int = 0
    prefetched_blocks: int = 0
    fault_retries: int = 0
    degraded_migrations: int = 0
    halvings: dict = field(default_factory=dict)
    last_wave: int = 0
    #: tenant id -> TenantSummary (serve logs only; empty otherwise)
    tenants: dict = field(default_factory=dict)
    #: alert rule name -> ``firing`` transition count (live logs only).
    alert_counts: dict = field(default_factory=dict)
    #: Service-level (tenant -1) SLO violation transitions.
    service_slo_violations: int = 0
    #: objective -> (attainment, met) for service-level objectives.
    service_attainment: dict = field(default_factory=dict)

    def tenant(self, tid: int) -> TenantSummary:
        """The (auto-created) summary row for tenant ``tid``."""
        row = self.tenants.get(tid)
        if row is None:
            row = self.tenants[tid] = TenantSummary(tenant=tid)
        return row

    def allocation_of(self, block: int) -> str:
        """Allocation name owning ``block`` (from the RunMeta header)."""
        for a in self.allocations:
            if a.first_block <= block < a.last_block:
                return a.name
        return "?"

    def top_thrashing_blocks(self, n: int = 10) -> list[dict]:
        """Blocks migrated more than once, worst first.

        A block that migrated k times was evicted and pulled back
        k - 1 times -- the round trips Figure 7 counts.
        """
        rows = [
            {"block": b, "allocation": self.allocation_of(b),
             "migrations": m, "round_trips": m - 1,
             "last_threshold": self.last_threshold.get(b, 0)}
            for b, m in self.migrations_per_block.items() if m > 1
        ]
        rows.sort(key=lambda r: (-r["migrations"], r["block"]))
        return rows[:n]

    def roundtrip_histogram(self) -> Histogram:
        """Round trips per thrashing block as a quantile-able histogram.

        One sample per block that migrated more than once, valued at
        its eviction->re-migration round trips (migrations - 1) -- the
        distribution behind Figure 7, summarized by
        :meth:`~repro.obs.metrics.Histogram.quantile` instead of raw
        bucket dumps.
        """
        hist = Histogram()
        for migrations in self.migrations_per_block.values():
            if migrations > 1:
                hist.observe(migrations - 1)
        return hist


def summarize(path_or_events) -> LogSummary:
    """Build a :class:`LogSummary` from a JSONL path or event iterable."""
    events = (iter_events(path_or_events)
              if isinstance(path_or_events, (str, bytes)) or hasattr(
                  path_or_events, "__fspath__")
              else path_or_events)
    s = LogSummary()
    for ev in events:
        s.event_counts[ev.kind] = s.event_counts.get(ev.kind, 0) + 1
        if type(ev) is MigrationDecision:
            s.last_wave = max(s.last_wave, ev.wave)
            s.last_threshold[ev.block] = ev.threshold
            if ev.migrated:
                s.migrations_per_block[ev.block] = (
                    s.migrations_per_block.get(ev.block, 0) + 1)
            for trend in s.allocations:
                if trend.first_block <= ev.block < trend.last_block:
                    trend.observe(ev)
                    break
        elif type(ev) is Eviction:
            s.last_wave = max(s.last_wave, ev.wave)
            s.evicted_blocks += ev.blocks
            s.writeback_blocks += ev.dirty_blocks
        elif type(ev) is PrefetchExpand:
            s.prefetched_blocks += ev.blocks
        elif type(ev) is FaultRetry:
            s.fault_retries += ev.failures
            if ev.degraded:
                s.degraded_migrations += 1
        elif type(ev) is CounterHalving:
            s.halvings[ev.field] = max(
                s.halvings.get(ev.field, 0), ev.halvings)
        elif type(ev) is RunMeta:
            s.meta = ev
            s.allocations = [
                AllocationTrend(name, first, last)
                for name, first, last in ev.allocations]
        elif type(ev) is TenantArrival:
            row = s.tenant(ev.tenant)
            row.workload = ev.workload
            row.arrived_us = ev.at_us
        elif type(ev) is TenantAdmitted:
            row = s.tenant(ev.tenant)
            row.admits += 1
            row.queued_us = ev.queued_us
        elif type(ev) is TenantShed:
            row = s.tenant(ev.tenant)
            row.sheds += 1
            row.shed_reason = ev.reason
        elif type(ev) is TenantThrottled:
            row = s.tenant(ev.tenant)
            row.throttles += 1
            row.throttle_rounds += ev.rounds
        elif type(ev) is TenantComplete:
            row = s.tenant(ev.tenant)
            row.completed = True
            row.waves = ev.waves
            row.p99_wave_latency_us = ev.p99_wave_latency_us
            row.thrash_migrations = ev.thrash_migrations
            row.cross_evictions = ev.cross_evictions
        elif type(ev) is TenantSched:
            row = s.tenant(ev.tenant)
            row.sched_seen = True
            row.weight = ev.weight
            row.deficit = ev.deficit
            row.batched_waves = ev.batched_waves
        elif type(ev) is TelemetryWindow:
            row = s.tenant(ev.tenant)
            row.windows += 1
            row.ewma_latency_us = ev.ewma_latency_us
            row.thrash_rate = ev.thrash_rate
        elif type(ev) is SloViolation:
            if ev.tenant < 0:
                s.service_slo_violations += 1
            else:
                s.tenant(ev.tenant).slo_violations += 1
        elif type(ev) is SloAttainment:
            if ev.tenant < 0:
                s.service_attainment[ev.objective] = (ev.attainment,
                                                      ev.met)
            else:
                row = s.tenant(ev.tenant)
                if (row.slo_attainment is None
                        or ev.attainment < row.slo_attainment):
                    row.slo_attainment = ev.attainment
                row.slo_met = ev.met if row.slo_met is None \
                    else (row.slo_met and ev.met)
        elif type(ev) is AlertFired:
            if ev.state == "firing":
                s.alert_counts[ev.name] = (
                    s.alert_counts.get(ev.name, 0) + 1)
                if ev.tenant >= 0:
                    s.tenant(ev.tenant).alerts += 1
    return s


def _table(headers: list[str], rows: list[list]) -> str:
    """Minimal aligned table (kept local to avoid importing analysis)."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(headers)]
    def fmt(row):
        return "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines += [fmt(r) for r in cells]
    return "\n".join(lines)


def render_summary(summary: LogSummary, top: int = 10) -> str:
    """Human-readable report of a :func:`summarize` result."""
    lines: list[str] = []
    meta = summary.meta
    if meta is not None:
        lines.append(
            f"== event log: {meta.workload} / {meta.policy} "
            f"(seed {meta.seed}, {meta.total_blocks} blocks, "
            f"capacity {meta.capacity_blocks} blocks) ==")
    else:
        lines.append("== event log (no run_meta header) ==")
    lines.append("")
    lines.append(_table(
        ["event", "count"],
        [[k, n] for k, n in sorted(summary.event_counts.items())]))

    lines.append("")
    lines.append(f"evicted blocks:      {summary.evicted_blocks}")
    lines.append(f"write-back blocks:   {summary.writeback_blocks}")
    lines.append(f"prefetched blocks:   {summary.prefetched_blocks}")
    if summary.fault_retries or summary.degraded_migrations:
        lines.append(f"fault retries:       {summary.fault_retries}")
        lines.append(f"degraded migrations: {summary.degraded_migrations}")
    for fname, n in sorted(summary.halvings.items()):
        lines.append(f"counter halvings ({fname}): {n}")

    thrash = summary.top_thrashing_blocks(top)
    lines.append("")
    if thrash:
        rt = summary.roundtrip_histogram()
        lines.append(f"round trips per thrashing block: "
                     f"p50 {rt.quantile(0.5):g}  p90 {rt.quantile(0.9):g}  "
                     f"max {rt.max:g}  ({rt.count} blocks)")
        lines.append("")
        lines.append(f"-- top thrashing blocks (of "
                     f"{sum(1 for m in summary.migrations_per_block.values() if m > 1)} "
                     f"with round trips)")
        lines.append(_table(
            ["block", "allocation", "migrations", "round trips", "last td"],
            [[r["block"], r["allocation"], r["migrations"],
              r["round_trips"], r["last_threshold"]] for r in thrash]))
    else:
        lines.append("-- no thrashing blocks (no block migrated twice)")

    if summary.tenants:
        lines.append("")
        lines.append("-- tenants (serve log): lifecycle, latency, "
                     "interference, SLOs")
        rows = []
        for tid in sorted(summary.tenants):
            t = summary.tenants[tid]
            if t.slo_attainment is None:
                slo_cell = "-"
            else:
                verdict = "" if t.slo_met is None \
                    else (" ok" if t.slo_met else " MISS")
                slo_cell = f"{t.slo_attainment:.3f}{verdict}"
            rows.append([
                t.tenant, t.workload, t.state, t.admits, t.sheds,
                f"{t.queued_us / 1e3:.2f}", t.throttles, t.waves,
                f"{t.p99_wave_latency_us:.1f}" if t.completed else "-",
                t.interference, slo_cell, t.alerts])
        lines.append(_table(
            ["tenant", "workload", "state", "admits", "sheds",
             "queued ms", "throttles", "waves", "p99 us", "interference",
             "slo att", "alerts"],
            rows))
        sched = [summary.tenants[tid] for tid in sorted(summary.tenants)
                 if summary.tenants[tid].sched_seen]
        if sched:
            lines.append("")
            lines.append("-- fair scheduler: weights, carried deficit, "
                         "fused-batch share")
            lines.append(_table(
                ["tenant", "weight", "deficit", "waves", "batched",
                 "batched %"],
                [[t.tenant, f"{t.weight:g}", f"{t.deficit:.3f}", t.waves,
                  t.batched_waves,
                  f"{t.batched_waves / t.waves:.0%}" if t.waves else "-"]
                 for t in sched]))
        if summary.alert_counts or summary.service_attainment \
                or summary.service_slo_violations:
            lines.append("")
            lines.append("-- live telemetry: alerts and service SLOs")
            if summary.alert_counts:
                fired = "  ".join(
                    f"{name}x{n}" for name, n
                    in sorted(summary.alert_counts.items()))
                lines.append(f"alerts fired:        {fired}")
            for objective, (attainment, met) in sorted(
                    summary.service_attainment.items()):
                lines.append(
                    f"service {objective}: attainment "
                    f"{attainment:.3f} ({'met' if met else 'MISSED'})")
            if summary.service_slo_violations:
                lines.append(f"service SLO violations: "
                             f"{summary.service_slo_violations}")

    trends = [t for t in summary.allocations if t.decisions]
    if trends:
        lines.append("")
        lines.append("-- threshold trajectory per allocation "
                     "(mean td over time, first -> last wave)")
        rows = []
        for t in trends:
            traj = t.trajectory()
            rows.append([
                t.name, t.decisions,
                f"{100 * t.migrated / t.decisions:.0f}%",
                f"{traj[0]:.1f}" if traj else "-",
                f"{traj[-1]:.1f}" if traj else "-",
                t.max_threshold, t.sparkline()])
        lines.append(_table(
            ["allocation", "decisions", "migrated", "td first", "td last",
             "td max", "trajectory"], rows))
    return "\n".join(lines)
