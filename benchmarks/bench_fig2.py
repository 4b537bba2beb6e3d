"""Figure 2: page access distribution per managed allocation.

The paper visualizes per-page access counts for fdtd (flat: every page
of every allocation is accessed at the same rate) and sssp (bimodal:
hot read-write distance structures vs. cold read-only graph
structures).  This benchmark regenerates the underlying histograms from
recordings of the two access streams and asserts both shapes.
"""

import numpy as np

from repro.analysis import figure2, render_figure2
from repro.trace import record_trace
from repro.workloads import make_workload

from conftest import run_once


def test_figure2(benchmark, save_report, scale):
    data = run_once(benchmark, lambda: figure2(scale=scale))
    save_report("figure2", render_figure2(data))

    # fdtd: uniform density across its field arrays (Figure 2a).
    fdtd = {r["name"]: r for r in data["fdtd"]}
    fields = [fdtd[n] for n in ("fdtd.ex", "fdtd.ey", "fdtd.hz")]
    densities = [r["accesses_per_page"] for r in fields]
    assert max(densities) < 2.5 * min(densities)
    # every field array is both read and written
    assert all(not r["read_only"] for r in fields)

    # sssp: hot/cold split (Figure 2b) -- RW distance array much hotter
    # than the RO edge arrays.
    sssp = {r["name"]: r for r in data["sssp"]}
    assert sssp["sssp.edges"]["read_only"]
    assert sssp["sssp.weights"]["read_only"]
    assert not sssp["sssp.dist"]["read_only"]
    hot = sssp["sssp.dist"]["accesses_per_page"]
    cold = max(sssp["sssp.edges"]["accesses_per_page"],
               sssp["sssp.weights"]["accesses_per_page"])
    assert hot > 5 * cold


def test_figure2_page_level_uniformity(benchmark, save_report, scale):
    """Per-page histogram of one fdtd array is flat (not just on average)."""
    trace = run_once(benchmark,
                     lambda: record_trace(make_workload("fdtd", scale)))
    ey = next(a for a in trace.layout().allocations if a.name == "fdtd.ey")
    pages = np.asarray(trace.pages)
    mine = (pages >= ey.first_page) & (pages < ey.last_page)
    touched = np.bincount(pages[mine] - ey.first_page,
                          np.asarray(trace.counts)[mine])
    touched = touched[touched > 0]
    assert touched.size > 0
    assert np.std(touched) < 0.2 * np.mean(touched)
    save_report("figure2_uniformity",
                f"fdtd.ey pages touched: {touched.size}, "
                f"mean={touched.mean():.1f}, std={np.std(touched):.2f}")
