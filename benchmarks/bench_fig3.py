"""Figure 3: page access patterns over iterations.

The paper plots page-vs-time scatter for fdtd (iterations 2 and 4) and
sssp (rounds 3 and 5): fdtd repeats an identical linear sweep every
iteration; sssp's kernel1 touches sparse, drastically shifting page
sets while kernel2 re-sweeps the same dense range every round.
"""

import numpy as np

from repro.analysis import figure3, render_figure3

from conftest import run_once


def _pages_by(records, kernel, iteration):
    recs = [r for r in records
            if r.kernel == kernel and r.iteration == iteration]
    if not recs:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate([r.pages for r in recs]))


def test_figure3(benchmark, save_report, scale):
    data = run_once(benchmark, lambda: figure3(scale=scale))
    save_report("figure3", render_figure3(data))

    # fdtd: iterations 2 and 4 touch identical page sets (regular,
    # repetitive).  At small scale the run has 5 iterations.
    it_a = _pages_by(data["fdtd"], "fdtd.update_ey", 2)
    it_b = _pages_by(data["fdtd"], "fdtd.update_ey", 4)
    if it_b.size:  # scale presets with >= 5 iterations
        assert np.array_equal(it_a, it_b)
    assert it_a.size > 0

    # sssp kernel1: page sets shift drastically between rounds.
    k1_a = _pages_by(data["sssp"], "sssp.kernel1", 3)
    k1_b = _pages_by(data["sssp"], "sssp.kernel1", 5)
    if k1_a.size and k1_b.size:
        overlap = np.intersect1d(k1_a, k1_b).size
        jaccard = overlap / np.union1d(k1_a, k1_b).size
        assert jaccard < 0.9, "kernel1 page sets should shift across rounds"

    # sssp kernel2: dense repeated sweep over the same small range.
    k2_a = _pages_by(data["sssp"], "sssp.kernel2", 3)
    k2_b = _pages_by(data["sssp"], "sssp.kernel2", 5)
    if k2_a.size and k2_b.size:
        assert np.array_equal(k2_a, k2_b)
