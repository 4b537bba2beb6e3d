"""Experiment runners: one per table/figure of the paper's evaluation.

Every ``figure*`` function regenerates the data behind one figure of
Ganguly et al. (IPDPS 2020).  The runtime and thrash figures (1 and
4-8) simulate a grid and return a :class:`SeriesResult` carrying
measured values, the paper's published values, and a renderer for
side-by-side comparison.  Figures 2 and 3 characterize access streams,
which no migration policy changes, so they summarize a recording of
each stream (:class:`~repro.trace.TraceData`) and simulate nothing.
The benchmark harness under ``benchmarks/`` is a thin wrapper over
these functions.

The paper's methodology is followed throughout: working sets are never
scaled; instead the device capacity is derived from the workload
footprint and the oversubscription percentage.  "No oversubscription"
runs leave headroom (capacity = footprint / NO_OVERSUB, with
NO_OVERSUB < 1) so allocations fit with slack, as on a real device.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import MigrationPolicy, SimulationConfig
from ..memory.layout import PAGE_SIZE
from ..sim.results import RunResult
from ..trace.cache import TraceCache
from ..trace.format import TraceData
from ..trace.recorder import load_trace_dir, record_trace
from ..workloads import make_workload
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
# Figures 2 and 3 -- the access streams themselves (fdtd, sssp)
# ---------------------------------------------------------------------------

def _recorded(workload: str, scale: str, seed: int,
              trace_cache: str | None) -> TraceData:
    """The recording of one ``(workload, scale, seed)`` access stream:
    from the ``trace_cache`` directory when given (recorded into it if
    absent), else recorded in memory."""
    if trace_cache is None:
        return record_trace(make_workload(workload, scale), seed=seed)
    return load_trace_dir(
        TraceCache(trace_cache).get_or_record(workload, scale, seed))


def allocation_totals(trace: TraceData) -> list[dict]:
    """Read and write totals per allocation of a recorded stream.

    One row per allocation, in allocation order: its name, pages, the
    accesses that read and that write it, accesses per page, and whether
    nothing wrote it -- the hot/cold and read-only/read-write split of
    Figure 2.
    """
    pages = np.asarray(trace.pages)
    written = np.asarray(trace.is_write, dtype=bool)
    counts = np.asarray(trace.counts)
    vas = trace.layout()
    # Accesses per page as float64 sums of integer counts: exact, since
    # no total reaches 2**53.
    reads = np.bincount(pages[~written], counts[~written], vas.total_pages)
    writes = np.bincount(pages[written], counts[written], vas.total_pages)
    rows = []
    for alloc in vas.allocations:
        lo, hi = alloc.first_page, alloc.last_page
        r, w = int(reads[lo:hi].sum()), int(writes[lo:hi].sum())
        rows.append({"name": alloc.name, "pages": hi - lo, "reads": r,
                     "writes": w, "accesses_per_page": (r + w) / (hi - lo),
                     "read_only": w == 0})
    return rows


def allocation_table(rows: list[dict], title: str) -> str:
    """Text table of :func:`allocation_totals` rows."""
    return format_table(
        ["allocation", "pages", "reads", "writes", "acc/page", "type"],
        [[r["name"], r["pages"], r["reads"], r["writes"],
          round(r["accesses_per_page"], 1), "RO" if r["read_only"] else "RW"]
         for r in rows], title=title)


def figure2(scale: str = "small", seed: int = 0,
            trace_cache: str | None = None) -> dict[str, list[dict]]:
    """Per-allocation access totals for fdtd and sssp.

    Returns, per workload, the :func:`allocation_totals` rows that
    characterize the flat profile of fdtd vs. the hot/cold split of
    sssp.  Streams come from ``trace_cache`` when given, else from
    in-memory recordings.
    """
    return {w: allocation_totals(_recorded(w, scale, seed, trace_cache))
            for w in ("fdtd", "sssp")}


def render_figure2(data: dict[str, list[dict]]) -> str:
    """Text rendering of the Figure 2 allocation totals."""
    blocks = ["== Figure 2: page access distribution per allocation =="]
    blocks += [allocation_table(rows, f"-- {w}") for w, rows in data.items()]
    return "\n\n".join(blocks)


#: Entries Figure 3 keeps of each wave, evenly spaced.
WAVE_SAMPLE = 512


@dataclass(frozen=True)
class WaveSample:
    """One recorded wave as Figure 3 plots it."""

    #: Index of the wave in the recorded stream (Figure 3's time axis).
    wave: int
    kernel: str
    iteration: int
    #: Up to :data:`WAVE_SAMPLE` of the wave's accesses, evenly spaced.
    pages: np.ndarray
    is_write: np.ndarray


def sample_waves(trace: TraceData, iterations) -> list[WaveSample]:
    """Every non-empty wave of the ``iterations`` wanted, in stream
    order, sampled to at most :data:`WAVE_SAMPLE` accesses."""
    offsets = trace.wave_offsets.tolist()
    launch = np.asarray(trace.wave_kernel)
    iteration = np.asarray(trace.kernel_iterations)[launch]
    wanted = ((np.diff(trace.wave_offsets) > 0)
              & np.isin(iteration, list(iterations)))
    samples = []
    for w in np.flatnonzero(wanted).tolist():
        lo, hi = offsets[w], offsets[w + 1]
        pages, writes = trace.pages[lo:hi], trace.is_write[lo:hi]
        if hi - lo > WAVE_SAMPLE:
            pick = np.linspace(0, hi - lo - 1, WAVE_SAMPLE, dtype=np.int64)
            pages, writes = pages[pick], writes[pick]
        samples.append(WaveSample(w, trace.kernel_names[launch[w]],
                                  int(iteration[w]), np.array(pages),
                                  np.array(writes)))
    return samples


def figure3(scale: str = "small", seed: int = 0,
            trace_cache: str | None = None) -> dict[str, list[WaveSample]]:
    """Sampled waves of the iterations the paper plots.

    Returns :func:`sample_waves` of fdtd iterations 2 and 4 and sssp
    rounds 3 and 5, from ``trace_cache`` when given, else from in-memory
    recordings.
    """
    wanted = {"fdtd": (2, 4), "sssp": (3, 5)}
    return {w: sample_waves(_recorded(w, scale, seed, trace_cache), iters)
            for w, iters in wanted.items()}


def render_figure3(data: dict[str, list[WaveSample]]) -> str:
    """Summarize trace shape: page span and wave count per iteration."""
    rows = []
    for w, samples in data.items():
        by_iter: dict[tuple[str, int], list[WaveSample]] = {}
        for sample in samples:
            by_iter.setdefault((sample.kernel, sample.iteration),
                               []).append(sample)
        for (kernel, it), group in sorted(by_iter.items()):
            pages = np.concatenate([s.pages for s in group])
            rows.append([w, kernel, it, len(group), int(pages.min()),
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
