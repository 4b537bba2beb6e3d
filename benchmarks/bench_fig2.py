"""Figure 2: page access distribution per managed allocation.

The paper visualizes per-page access counts for fdtd (flat: every page
of every allocation is accessed at the same rate) and sssp (bimodal:
hot read-write distance structures vs. cold read-only graph
structures).  This benchmark regenerates the underlying histograms and
asserts both shapes.
"""

import numpy as np

from repro.analysis import figure2, render_figure2
from repro.analysis.experiments import NO_OVERSUB
from repro.analysis.parallel import GridCell, run_cell
from repro.config import MigrationPolicy

from conftest import run_once


def test_figure2(benchmark, save_report, scale, jobs):
    data = run_once(benchmark, lambda: figure2(scale=scale, jobs=jobs))
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
    def run():
        return run_cell(GridCell("fdtd", MigrationPolicy.DISABLED,
                                 NO_OVERSUB, scale, collect_histogram=True))
    r = run_once(benchmark, run)
    hist = r.stats.allocation_histogram("fdtd.ey")
    touched = hist["reads"] + hist["writes"]
    touched = touched[touched > 0]
    assert touched.size > 0
    assert np.std(touched) < 0.2 * np.mean(touched)
    save_report("figure2_uniformity",
                f"fdtd.ey pages touched: {touched.size}, "
                f"mean={touched.mean():.1f}, std={np.std(touched):.2f}")
