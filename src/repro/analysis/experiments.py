"""Experiment runners: one per table/figure of the paper's evaluation.

Every public function regenerates the data behind one figure of
Ganguly et al. (IPDPS 2020) on the simulator and returns a
:class:`SeriesResult` carrying measured values, the paper's published
values, and a renderer for side-by-side comparison.  The benchmark
harness under ``benchmarks/`` is a thin wrapper over these functions.

The paper's methodology is followed throughout: working sets are never
scaled; instead the device capacity is derived from the workload
footprint and the oversubscription percentage.  "No oversubscription"
runs leave headroom (capacity = footprint / NO_OVERSUB, with
NO_OVERSUB < 1) so allocations fit with slack, as on a real device.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import MigrationPolicy, SimulationConfig
from ..memory.layout import PAGE_SIZE
from ..sim.results import RunResult
from . import paper_data
from .parallel import GridCell, GridOptions, run_grid
from .tables import comparison_table, format_table

#: Capacity factor used for "no oversubscription" runs (20% headroom).
NO_OVERSUB: float = 0.8

#: The oversubscription level of the paper's main evaluation.
OVERSUB_125: float = 1.25


@dataclass
class SeriesResult:
    """Measured data of one figure: ``{series_label: {workload: value}}``."""

    figure: str
    description: str
    #: Normalized measured values per series per workload.
    measured: dict[str, dict[str, float]]
    #: The paper's published values in the same layout (may be sparse).
    paper: dict[str, dict[str, float]] = field(default_factory=dict)
    #: Raw run results for deeper inspection, keyed (series, workload).
    runs: dict[tuple[str, str], RunResult] = field(default_factory=dict,
                                                   repr=False)

    def render(self) -> str:
        """Side-by-side paper-vs-measured tables, one per series."""
        blocks = [f"== {self.figure}: {self.description} =="]
        for label, series in self.measured.items():
            blocks.append(comparison_table(
                f"-- series: {label}", series.keys(), series,
                self.paper.get(label)))
        return "\n\n".join(blocks)

    def to_rows(self) -> list[dict]:
        """Flat records: one per (series, workload) with paper reference."""
        rows = []
        for label, series in self.measured.items():
            for w, v in series.items():
                rows.append({
                    "figure": self.figure,
                    "series": label,
                    "workload": w,
                    "measured": v,
                    "paper": self.paper.get(label, {}).get(w),
                })
        return rows

    def to_csv(self) -> str:
        """CSV export (plotting-tool friendly)."""
        lines = ["figure,series,workload,measured,paper"]
        for r in self.to_rows():
            paper = "" if r["paper"] is None else f"{r['paper']:.6g}"
            lines.append(f"{r['figure']},{r['series']},{r['workload']},"
                         f"{r['measured']:.6g},{paper}")
        return "\n".join(lines) + "\n"


def _workloads(subset=None) -> tuple[str, ...]:
    return tuple(subset) if subset else paper_data.WORKLOAD_ORDER


def _run_labelled(specs, jobs: int,
                  grid: GridOptions | None = None
                  ) -> dict[tuple[str, str], RunResult]:
    """Run ``[(label, workload, cell), ...]`` and key results by label.

    The figure runners below all share this shape: build the full cell
    list up front, fan it out (``jobs`` worker processes; 1 = serial,
    0 = all cores), then look results up by (series label, workload).
    ``grid`` configures retry/checkpoint resilience (see
    :class:`~repro.analysis.parallel.GridOptions`).
    """
    results = run_grid([cell for _, _, cell in specs], max_workers=jobs,
                       options=grid)
    return {(label, w): r for (label, w, _), r in zip(specs, results)}


# ---------------------------------------------------------------------------
# Table I
# ---------------------------------------------------------------------------

def table1() -> str:
    """Render the simulated-system configuration (Table I)."""
    cfg = SimulationConfig()
    rows = [
        ["Simulator", "repro UVM model (trace-driven)"],
        ["GPU Architecture", "GeForceGTX 1080Ti, Pascal-like"],
        ["GPU Cores", f"{cfg.gpu.num_sms} SMs, {cfg.gpu.cores_per_sm} cores "
                      f"each @ {cfg.gpu.clock_mhz:.0f} MHz"],
        ["Shader Core Config",
         f"Max {cfg.gpu.max_ctas_per_sm} CTA / {cfg.gpu.max_warps_per_sm} "
         f"warps per SM, {cfg.gpu.warp_size} threads/warp"],
        ["Page Size", f"{PAGE_SIZE // 1024}KB"],
        ["Page Table Walk Latency",
         f"{cfg.gpu.page_walk_latency_cycles} core cycles"],
        ["CPU-GPU Interconnect",
         f"PCIe 3.0 16x, {cfg.interconnect.bandwidth / 1e9:.0f} GB/s, "
         f"{cfg.interconnect.latency_cycles} cycle latency"],
        ["DRAM Latency", f"{cfg.gpu.dram_latency_cycles} GPU core cycles"],
        ["Remote Zero-copy Access Latency",
         f"{cfg.interconnect.remote_access_latency_cycles} GPU core cycles"],
        ["Eviction Granularity",
         f"{cfg.memory.eviction_granularity.value // 1024}KB"],
        ["Page Replacement Policy", cfg.memory.replacement.value.upper()],
        ["Far-fault Handling Latency",
         f"{cfg.interconnect.fault_handling_us:.0f}us"],
        ["Hardware Prefetcher", "Tree-based"],
        ["Static Access Counter Threshold", str(cfg.policy.static_threshold)],
        ["Multiplicative Migration Penalty",
         str(cfg.policy.migration_penalty)],
    ]
    return format_table(["Parameter", "Value"], rows,
                        title="Table I: simulated system configuration")


# ---------------------------------------------------------------------------
# Figure 1 -- oversubscription sensitivity (Baseline policy)
# ---------------------------------------------------------------------------

def figure1(scale: str = "small", subset=None, seed: int = 0,
            jobs: int = 1, grid: GridOptions | None = None) -> SeriesResult:
    """Runtime at none/125%/150% oversubscription, Baseline policy."""
    workloads = _workloads(subset)
    specs = [(label, w,
              GridCell(w, MigrationPolicy.DISABLED, ov, scale, seed=seed))
             for w in workloads
             for label, ov in (("no oversub", NO_OVERSUB),
                               ("125% oversub", 1.25),
                               ("150% oversub", 1.50))]
    runs = _run_labelled(specs, jobs, grid)
    measured = {"125% oversub": {}, "150% oversub": {}}
    for w in workloads:
        base = runs[("no oversub", w)]
        for label in measured:
            measured[label][w] = runs[(label, w)].normalized_runtime(base)
    paper = {
        "125% oversub": {w: paper_data.FIGURE1[w][1.25] for w in workloads},
        "150% oversub": {w: paper_data.FIGURE1[w][1.50] for w in workloads},
    }
    return SeriesResult(
        "Figure 1", "runtime vs. memory oversubscription (baseline policy, "
        "normalized to no oversubscription)", measured, paper, runs)


# ---------------------------------------------------------------------------
# Figure 2 -- per-page access distribution (fdtd, sssp)
# ---------------------------------------------------------------------------

def figure2(scale: str = "small", seed: int = 0, jobs: int = 1,
            grid: GridOptions | None = None) -> dict[str, list[dict]]:
    """Per-allocation access histograms for fdtd and sssp.

    Returns, per workload, the allocation summary rows (name, pages,
    read/write totals, accesses per page) that characterize the flat
    profile of fdtd vs. the hot/cold split of sssp.
    """
    workloads = ("fdtd", "sssp")
    results = run_grid(
        [GridCell(w, MigrationPolicy.DISABLED, NO_OVERSUB, scale,
                  seed=seed, collect_histogram=True) for w in workloads],
        max_workers=jobs, options=grid)
    return {w: r.stats.allocation_summary()
            for w, r in zip(workloads, results)}


def render_figure2(data: dict[str, list[dict]]) -> str:
    """Text rendering of the Figure 2 histogram summaries."""
    blocks = ["== Figure 2: page access distribution per allocation =="]
    for w, rows in data.items():
        table_rows = [[r["name"], r["pages"], r["reads"], r["writes"],
                       round(r["accesses_per_page"], 1),
                       "RO" if r["read_only"] else "RW"] for r in rows]
        blocks.append(format_table(
            ["allocation", "pages", "reads", "writes", "acc/page", "type"],
            table_rows, title=f"-- {w}"))
    return "\n\n".join(blocks)


# ---------------------------------------------------------------------------
# Figure 3 -- access pattern over time (fdtd iters 2/4, sssp iters 3/5)
# ---------------------------------------------------------------------------

def figure3(scale: str = "small", seed: int = 0, jobs: int = 1,
            grid: GridOptions | None = None) -> dict[str, list]:
    """Sampled (cycle, page) traces for selected iterations.

    Returns trace records for fdtd iterations 2 and 4 and sssp rounds
    3 and 5 -- the iterations the paper plots.
    """
    wanted = {"fdtd": (2, 4), "sssp": (3, 5)}
    results = run_grid(
        [GridCell(w, MigrationPolicy.DISABLED, NO_OVERSUB, scale,
                  seed=seed, collect_trace=True) for w in wanted],
        max_workers=jobs, options=grid)
    return {w: [rec for rec in r.stats.trace if rec.iteration in iters]
            for (w, iters), r in zip(wanted.items(), results)}


def render_figure3(data: dict[str, list]) -> str:
    """Summarize trace shape: page span and wave count per iteration."""
    rows = []
    for w, records in data.items():
        by_iter: dict[tuple[str, int], list] = {}
        for rec in records:
            by_iter.setdefault((rec.kernel, rec.iteration), []).append(rec)
        for (kernel, it), recs in sorted(by_iter.items()):
            import numpy as np
            pages = np.concatenate([r.pages for r in recs])
            rows.append([w, kernel, it, len(recs), int(pages.min()),
                         int(pages.max()), int(np.unique(pages).size)])
    return format_table(
        ["workload", "kernel", "iter", "waves", "min page", "max page",
         "unique pages (sampled)"],
        rows, title="== Figure 3: access pattern over iterations ==")


# ---------------------------------------------------------------------------
# Figure 4 -- sensitivity to the static threshold ts
# ---------------------------------------------------------------------------

def figure4(scale: str = "small", subset=None, seed: int = 0,
            jobs: int = 1, grid: GridOptions | None = None) -> SeriesResult:
    """Always scheme at 125% oversubscription, ts in {8, 16, 32}."""
    workloads = _workloads(subset)
    specs = [(f"ts={ts}", w,
              GridCell(w, MigrationPolicy.ALWAYS, OVERSUB_125, scale,
                       ts=ts, seed=seed))
             for w in workloads for ts in (8, 16, 32)]
    runs = _run_labelled(specs, jobs, grid)
    measured = {"ts=16": {}, "ts=32": {}}
    for w in workloads:
        base = runs[("ts=8", w)]
        for label in measured:
            measured[label][w] = runs[(label, w)].normalized_runtime(base)
    paper = {
        "ts=16": {w: paper_data.FIGURE4[w][16] for w in workloads},
        "ts=32": {w: paper_data.FIGURE4[w][32] for w in workloads},
    }
    return SeriesResult(
        "Figure 4", "sensitivity to static access counter threshold "
        "(Always, 125% oversubscription, normalized to ts=8)",
        measured, paper, runs)


# ---------------------------------------------------------------------------
# Figure 5 -- no oversubscription
# ---------------------------------------------------------------------------

def figure5(scale: str = "small", subset=None, seed: int = 0,
            jobs: int = 1, grid: GridOptions | None = None) -> SeriesResult:
    """Baseline vs Always vs Adaptive with working sets that fit."""
    workloads = _workloads(subset)
    specs = [(label, w, GridCell(w, pol, NO_OVERSUB, scale, seed=seed))
             for w in workloads
             for pol, label in ((MigrationPolicy.DISABLED, "baseline"),
                                (MigrationPolicy.ALWAYS, "always"),
                                (MigrationPolicy.ADAPTIVE, "adaptive"))]
    runs = _run_labelled(specs, jobs, grid)
    measured = {"always": {}, "adaptive": {}}
    for w in workloads:
        base = runs[("baseline", w)]
        for label in measured:
            measured[label][w] = runs[(label, w)].normalized_runtime(base)
    paper = {"always": dict(paper_data.FIGURE5_ALWAYS)}
    return SeriesResult(
        "Figure 5", "no oversubscription (normalized to baseline; the "
        "paper labels the Always bars, Adaptive tracks baseline)",
        measured, paper, runs)


# ---------------------------------------------------------------------------
# Figures 6 and 7 -- the headline oversubscription comparison
# ---------------------------------------------------------------------------

def figure6_7(scale: str = "small", subset=None, seed: int = 0,
              jobs: int = 1, grid: GridOptions | None = None
              ) -> tuple[SeriesResult, SeriesResult]:
    """All four schemes at 125% oversubscription (ts=8, p=8).

    Returns (Figure 6: normalized runtime, Figure 7: normalized thrash);
    the two figures share the same runs.
    """
    workloads = _workloads(subset)
    specs = [(label, w, GridCell(w, pol, OVERSUB_125, scale, seed=seed))
             for w in workloads
             for pol, label in ((MigrationPolicy.DISABLED, "baseline"),
                                (MigrationPolicy.ALWAYS, "always"),
                                (MigrationPolicy.OVERSUB, "oversub"),
                                (MigrationPolicy.ADAPTIVE, "adaptive"))]
    runs = _run_labelled(specs, jobs, grid)
    runtime = {"always": {}, "oversub": {}, "adaptive": {}}
    thrash = {"always": {}, "oversub": {}, "adaptive": {}}
    for w in workloads:
        base = runs[("baseline", w)]
        for label in runtime:
            r = runs[(label, w)]
            runtime[label][w] = r.normalized_runtime(base)
            thrash[label][w] = (r.pages_thrashed / base.pages_thrashed
                                if base.pages_thrashed else 0.0)
    fig6 = SeriesResult(
        "Figure 6", "runtime at 125% oversubscription "
        "(normalized to baseline; ts=8, p=8)",
        runtime, {k: dict(v) for k, v in paper_data.FIGURE6.items()}, runs)
    fig7 = SeriesResult(
        "Figure 7", "pages thrashed at 125% oversubscription "
        "(normalized to baseline)",
        thrash, {k: dict(v) for k, v in paper_data.FIGURE7.items()}, runs)
    return fig6, fig7


# ---------------------------------------------------------------------------
# Figure 8 -- sensitivity to the multiplicative penalty p
# ---------------------------------------------------------------------------

def figure8(scale: str = "small", subset=None, seed: int = 0,
            penalties=(2, 4, 8, 1 << 20), jobs: int = 1,
            grid: GridOptions | None = None) -> SeriesResult:
    """Adaptive scheme at 125% oversubscription, varying p."""
    workloads = _workloads(subset)
    specs = [("baseline", w,
              GridCell(w, MigrationPolicy.DISABLED, OVERSUB_125, scale,
                       seed=seed))
             for w in workloads]
    specs += [(f"p={p}", w,
               GridCell(w, MigrationPolicy.ADAPTIVE, OVERSUB_125, scale,
                        p=p, seed=seed))
              for w in workloads for p in penalties]
    runs = _run_labelled(specs, jobs, grid)
    measured = {f"p={p}": {} for p in penalties}
    for w in workloads:
        base = runs[("baseline", w)]
        for label in measured:
            measured[label][w] = runs[(label, w)].normalized_runtime(base)
    paper = {f"p={p}": {w: paper_data.FIGURE8[p][w] for w in workloads}
             for p in penalties if p in paper_data.FIGURE8}
    return SeriesResult(
        "Figure 8", "sensitivity to multiplicative migration penalty "
        "(Adaptive, 125% oversubscription, normalized to baseline)",
        measured, paper, runs)
