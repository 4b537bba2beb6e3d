"""Unit tests for the eight paper workloads (structure and patterns)."""

import numpy as np
import pytest

from repro.memory.allocator import VirtualAddressSpace
from repro.workloads import (
    ALL_WORKLOADS,
    Category,
    IRREGULAR_WORKLOADS,
    REGULAR_WORKLOADS,
    make_workload,
    workload_category,
)


def build(name, scale="tiny", seed=0):
    wl = make_workload(name, scale)
    wl.build(VirtualAddressSpace(), np.random.default_rng(seed))
    return wl


class TestRegistry:
    def test_names_in_paper_order(self):
        assert ALL_WORKLOADS == ("backprop", "fdtd", "hotspot", "srad",
                                 "bfs", "nw", "ra", "sssp")

    def test_categories(self):
        for name in REGULAR_WORKLOADS:
            assert workload_category(name) is Category.REGULAR
        for name in IRREGULAR_WORKLOADS:
            assert workload_category(name) is Category.IRREGULAR

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            make_workload("nosuch")

    def test_unknown_scale(self):
        with pytest.raises(KeyError):
            make_workload("fdtd", scale="galactic")

    def test_custom_params(self):
        from repro.workloads import FdtdParams
        wl = make_workload("fdtd", params=FdtdParams(ni=128, nj=512))
        assert wl.params.ni == 128


@pytest.mark.parametrize("name", ALL_WORKLOADS)
class TestEveryWorkload:
    def test_builds_and_yields_valid_waves(self, name):
        wl = build(name)
        total_pages = sum(a.num_pages for a in wl.allocations.values())
        assert wl.footprint_bytes > 4 * 2**20, "tiny preset too small"
        n_waves = 0
        n_accesses = 0
        for launch in wl.kernels():
            for wave in launch.waves():
                n_waves += 1
                n_accesses += wave.n_accesses
                if wave.pages.size:
                    assert wave.pages.min() >= 0
                    # every page belongs to an allocation of this workload
                    assert wave.counts.min() >= 1
        assert n_waves > 1
        assert n_accesses > 0

    def test_pages_within_allocations(self, name):
        wl = build(name)
        spans = [(a.first_page, a.last_page)
                 for a in wl.allocations.values()]
        for launch in wl.kernels():
            for wave in launch.waves():
                for page in np.unique(wave.pages):
                    assert any(lo <= page < hi for lo, hi in spans)
            break  # first kernel is enough per workload

    def test_deterministic_for_seed(self, name):
        def fingerprint(seed):
            wl = build(name, seed=seed)
            acc = 0
            for launch in wl.kernels():
                for wave in launch.waves():
                    acc += int(wave.pages.sum()) + wave.n_accesses
            return acc
        assert fingerprint(5) == fingerprint(5)


class TestWorkloadSpecifics:
    def test_backprop_zero_reuse(self):
        """backprop never touches a large-array page twice (Section VI-C)."""
        wl = build("backprop")
        big = {a.first_page: a for a in wl.allocations.values()
               if a.rounded_bytes > 2**20}
        seen = set()
        for launch in wl.kernels():
            for wave in launch.waves():
                for page in np.unique(wave.pages):
                    for a in big.values():
                        if a.first_page <= page < a.last_page:
                            assert page not in seen
                            seen.add(page)

    def test_fdtd_uniform_access_density(self):
        """fdtd pages of one array are accessed equally (Figure 2a)."""
        wl = build("fdtd")
        counts = {}
        for launch in wl.kernels():
            for wave in launch.waves():
                for p, c in zip(wave.pages, wave.counts):
                    counts[int(p)] = counts.get(int(p), 0) + int(c)
        ey = wl.ey
        vals = [counts.get(p, 0)
                for p in range(ey.first_page, ey.first_page + 64)]
        assert max(vals) == min(vals)

    def test_sssp_hot_cold_split(self):
        """sssp distance pages are far hotter than edge pages (Figure 2b)."""
        wl = build("sssp")
        edge_total = np.zeros(1)
        dist_total = np.zeros(1)
        e, d = wl.edges, wl.dist
        for launch in wl.kernels():
            for wave in launch.waves():
                for p, c in zip(wave.pages, wave.counts):
                    if e.first_page <= p < e.last_page:
                        edge_total += c
                    elif d.first_page <= p < d.last_page:
                        dist_total += c
        edge_density = edge_total[0] / e.num_pages
        dist_density = dist_total[0] / d.num_pages
        assert dist_density > 5 * edge_density

    def test_ra_no_reuse_across_waves(self):
        """ra table accesses are uniformly random with negligible reuse."""
        wl = build("ra")
        pages_seen = []
        for launch in wl.kernels():
            for wave in launch.waves():
                pages_seen.append(np.unique(wave.pages))
        all_pages = np.concatenate(pages_seen)
        # Uniformly random updates: no page is much hotter than the mean
        # (there are no hot data structures to pin locally).
        _, counts = np.unique(all_pages, return_counts=True)
        assert counts.max() <= 4 * counts.mean()

    def test_nw_diagonal_structure(self):
        """nw wave count equals the number of anti-diagonals."""
        wl = build("nw")
        launches = list(wl.kernels())
        assert len(launches) == 1
        waves = list(launches[0].waves())
        nb = wl.params.n // wl.params.tile
        assert len(waves) == 2 * nb - 1

    def test_bfs_levels_cover_graph(self):
        """BFS kernel launches equal the number of levels; all reachable."""
        wl = build("bfs")
        launches = list(wl.kernels())
        assert len(launches) >= 3
        # iteration ids are consecutive levels
        assert [k.iteration for k in launches] == list(range(len(launches)))

    def test_hotspot_power_is_read_only(self):
        wl = build("hotspot")
        power = wl.power
        for launch in wl.kernels():
            for wave in launch.waves():
                mask = (wave.pages >= power.first_page) & \
                       (wave.pages < power.last_page)
                assert not wave.is_write[mask].any()

    def test_srad_six_grids(self):
        wl = build("srad")
        assert len(wl.allocations) == 6
