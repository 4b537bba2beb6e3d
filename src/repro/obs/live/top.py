"""``repro top``: a terminal dashboard over a (live) serve event log.

Tails a :class:`~repro.obs.sinks.JsonlSink` log written by ``repro
serve --events run.jsonl --flush-events 1`` and renders the per-tenant
table -- lifecycle state, latest windowed latency/thrash estimates,
SLO attainment, alert counts -- refreshed in place.  One-shot mode
(the default, and what CI exercises) renders a single frame and exits;
``--follow`` re-reads and re-renders until the log stops growing or
``--frames`` is exhausted.

Re-summarizing the whole log per frame is deliberate: serve logs are
tens of thousands of events at smoke scale, a full pass is
milliseconds, and it keeps the dashboard a pure function of the log
prefix (same prefix, same frame -- trivially testable).  Gzipped logs
(``.jsonl.gz``) are rejected: gzip members only terminate at close, so
there is nothing to tail (see ``docs/observability.md``).
"""

from __future__ import annotations

import time

from ..inspect import LogSummary, _table, summarize

#: ANSI clear-screen + home, prefixed in follow mode.
_CLEAR = "\x1b[2J\x1b[H"


def render_top(summary: LogSummary, path: str = "") -> str:
    """One dashboard frame for a serve log summary."""
    lines: list[str] = []
    meta = summary.meta
    header = "repro top"
    if path:
        header += f" -- {path}"
    if meta is not None:
        header += f" [{meta.workload} seed {meta.seed}]"
    lines.append(header)
    counts = summary.event_counts
    lines.append(
        f"events: {sum(counts.values())}  "
        f"windows: {counts.get('telemetry_window', 0)}  "
        f"violations: {counts.get('slo_violation', 0)}  "
        f"alerts: {counts.get('alert_fired', 0)}")
    if summary.alert_counts:
        fired = "  ".join(f"{name}x{n}" for name, n
                          in sorted(summary.alert_counts.items()))
        lines.append(f"alerts fired: {fired}")
    lines.append("")
    if not summary.tenants:
        lines.append("(no tenant events yet)")
        return "\n".join(lines)
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
            t.tenant, t.workload, t.state, t.waves, t.windows,
            f"{t.ewma_latency_us:.1f}" if t.windows else "-",
            f"{t.thrash_rate:.2f}" if t.windows else "-",
            t.slo_violations, slo_cell, t.alerts])
    lines.append(_table(
        ["tenant", "workload", "state", "waves", "windows",
         "ewma us", "thrash/wave", "violations", "slo att", "alerts"],
        rows))
    for objective, (attainment, met) in sorted(
            summary.service_attainment.items()):
        lines.append(f"service {objective}: {attainment:.3f} "
                     f"({'met' if met else 'MISSED'})")
    return "\n".join(lines)


def run_top(path, follow: bool = False, interval: float = 0.5,
            frames: int | None = None, out=None) -> int:
    """Render the dashboard; returns a process exit code.

    ``frames`` bounds the number of re-renders in follow mode (tests
    and CI use small bounds); unbounded follow stops once the log stops
    growing between frames after the first render.
    """
    import sys

    out = out if out is not None else sys.stdout
    if str(path).endswith(".gz"):
        print(f"repro top: cannot tail {path}: gzip logs only "
              f"terminate at close (use an uncompressed .jsonl)",
              file=sys.stderr)
        return 2
    if not follow:
        print(render_top(summarize(path), str(path)), file=out)
        return 0
    rendered = 0
    last_size = -1
    while frames is None or rendered < frames:
        summary = summarize(path)
        size = sum(summary.event_counts.values())
        print(_CLEAR + render_top(summary, str(path)), file=out,
              flush=True)
        rendered += 1
        if size == last_size and frames is None:
            break
        last_size = size
        if frames is None or rendered < frames:
            time.sleep(interval)
    return 0
