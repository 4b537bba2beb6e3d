"""Unit tests for the R-MAT and grid graph generators."""

import dataclasses

import numpy as np
import pytest

from repro.memory.allocator import VirtualAddressSpace
from repro.workloads import make_workload
from repro.workloads.bfs import PRESETS as BFS_PRESETS, Bfs, BfsParams
from repro.workloads.graphs import grid_graph, make_graph, rmat_graph
from repro.workloads.pagerank import PRESETS as PAGERANK_PRESETS
from repro.workloads.sssp import PRESETS as SSSP_PRESETS


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestRmat:
    def test_valid_csr(self, rng):
        g = rmat_graph(1 << 12, 6.0, rng)
        g.validate()
        assert g.num_nodes == 1 << 12
        assert g.num_edges >= g.num_nodes  # chain guarantees >= 1 per node

    def test_heavy_tail(self, rng):
        """R-MAT in-degrees are far more skewed than uniform random."""
        g = rmat_graph(1 << 13, 8.0, rng, connect_chain=False)
        indeg = np.bincount(g.dst.astype(np.int64), minlength=g.num_nodes)
        assert indeg.max() > 20 * max(indeg.mean(), 1)

    def test_chain_reachability(self, rng):
        g = rmat_graph(1 << 10, 4.0, rng)
        node, seen = 0, {0}
        for _ in range(g.num_nodes):
            node = int(g.dst[g.ptr[node]])
            seen.add(node)
        assert len(seen) == g.num_nodes

    def test_rejects_non_power_of_two(self, rng):
        with pytest.raises(ValueError):
            rmat_graph(1000, 4.0, rng)

    def test_rejects_bad_probabilities(self, rng):
        with pytest.raises(ValueError):
            rmat_graph(1 << 10, 4.0, rng, a=0.6, b=0.3, c=0.3)

    def test_deterministic(self):
        a = rmat_graph(1 << 10, 4.0, np.random.default_rng(1))
        b = rmat_graph(1 << 10, 4.0, np.random.default_rng(1))
        assert np.array_equal(a.dst, b.dst)


class TestGrid:
    def test_valid_csr(self, rng):
        g = grid_graph(16, 8, rng)
        g.validate()
        assert g.num_nodes == 128

    def test_degrees_between_2_and_4(self, rng):
        g = grid_graph(8, 8, rng)
        deg = g.degrees()
        assert deg.min() == 2   # corners
        assert deg.max() == 4   # interior

    def test_edges_are_lattice_neighbors(self, rng):
        width = 8
        g = grid_graph(width, 8, rng)
        for v in range(g.num_nodes):
            for e in range(g.ptr[v], g.ptr[v + 1]):
                u = int(g.dst[e])
                dx = abs(u % width - v % width)
                dy = abs(u // width - v // width)
                assert dx + dy == 1

    def test_rejects_degenerate(self, rng):
        with pytest.raises(ValueError):
            grid_graph(1, 8, rng)


class TestMakeGraph:
    @pytest.mark.parametrize("kind", ["random", "rmat", "grid"])
    def test_families_build(self, kind, rng):
        g = make_graph(kind, 1 << 10, 6.0, rng)
        g.validate()

    def test_unknown_kind(self, rng):
        with pytest.raises(ValueError):
            make_graph("hypercube", 64, 4.0, rng)

    def test_grid_rounds_to_square(self, rng):
        g = make_graph("grid", 1000, 4.0, rng)
        side = int(round(g.num_nodes ** 0.5))
        assert side * side == g.num_nodes


class TestBfsOnFamilies:
    def test_grid_has_many_levels(self, rng):
        wl = Bfs(BfsParams(num_nodes=1 << 10, graph_kind="grid",
                           frontier_per_wave=256))
        wl.build(VirtualAddressSpace(), rng)
        grid_levels = sum(1 for _ in wl.kernels())
        wl2 = Bfs(BfsParams(num_nodes=1 << 10, graph_kind="random",
                            frontier_per_wave=256))
        wl2.build(VirtualAddressSpace(), rng)
        random_levels = sum(1 for _ in wl2.kernels())
        assert grid_levels > 3 * random_levels


class TestNodeCountFromGraph:
    """Node-indexed arrays are sized from the graph, not the request.

    ``grid`` rounds the requested node count to a square and ``rmat`` to
    a power of two; at 8192 a grid has 8281 nodes, so arrays sized from
    the request leave accesses outside every allocation.
    """

    PRESETS = {"bfs": BFS_PRESETS, "sssp": SSSP_PRESETS,
               "pagerank": PAGERANK_PRESETS}

    @pytest.mark.parametrize("num_nodes", [8192, 1000, None],
                             ids=["8192", "1000", "tiny"])
    @pytest.mark.parametrize("kind", ["random", "rmat", "grid"])
    @pytest.mark.parametrize("name", ["bfs", "sssp", "pagerank"])
    def test_waves_stay_inside_allocations(self, name, kind, num_nodes):
        params = dataclasses.replace(self.PRESETS[name]["tiny"],
                                     graph_kind=kind)
        if num_nodes is not None:
            params = dataclasses.replace(params, num_nodes=num_nodes)
        wl = make_workload(name, params=params)
        wl.build(VirtualAddressSpace(), np.random.default_rng(0))
        allocs = sorted(wl.allocations.values(), key=lambda a: a.first_page)
        firsts = np.array([a.first_page for a in allocs])
        lasts = np.array([a.last_page for a in allocs])
        waves = 0
        for launch in wl.kernels():
            for wave in launch.waves():
                owner = np.searchsorted(firsts, wave.pages, side="right") - 1
                assert (owner >= 0).all()
                outside = wave.pages >= lasts[owner]
                assert not outside.any(), (
                    f"{launch.name}[{launch.iteration}]: "
                    f"{int(outside.sum())} pages outside every allocation")
                waves += 1
        assert waves
