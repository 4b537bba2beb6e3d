"""Unit tests for workload utilities and graph generation."""

import dataclasses
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.allocator import VirtualAddressSpace
from repro.memory.layout import CHUNK_SIZE
from repro.workloads import graphs
from repro.workloads.bfs import PRESETS as BFS_PRESETS, Bfs
from repro.workloads.graphs import (make_graph, random_graph,
                                    skip_float32_draws)
from repro.workloads.sssp import PRESETS as SSSP_PRESETS, Sssp
from repro.workloads.util import (
    SECTORS_PER_PAGE,
    coalesced_page_offsets,
    coalesced_page_offsets_batch,
    coalesced_pages,
    dedupe_with_counts,
    ragged_ranges,
)

from tests.oracle import reference_random_graph


class TestRaggedRanges:
    def test_basic(self):
        out = ragged_ranges(np.array([0, 10]), np.array([3, 2]))
        assert list(out) == [0, 1, 2, 10, 11]

    def test_zero_lengths_skipped(self):
        out = ragged_ranges(np.array([5, 7, 9]), np.array([0, 2, 0]))
        assert list(out) == [7, 8]

    def test_empty(self):
        out = ragged_ranges(np.array([], dtype=np.int64),
                            np.array([], dtype=np.int64))
        assert out.size == 0

    def test_single_range(self):
        assert list(ragged_ranges(np.array([4]), np.array([4]))) == [4, 5, 6, 7]

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            ragged_ranges(np.array([0]), np.array([-1]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ragged_ranges(np.array([0, 1]), np.array([1]))

    def test_matches_naive_concatenation(self):
        rng = np.random.default_rng(0)
        starts = rng.integers(0, 1000, size=50)
        lens = rng.integers(0, 10, size=50)
        expected = np.concatenate(
            [np.arange(s, s + l) for s, l in zip(starts, lens)] or [[]])
        assert np.array_equal(ragged_ranges(starts, lens), expected)


class TestDedupe:
    def test_counts(self):
        pages, counts = dedupe_with_counts(np.array([3, 1, 3, 3]))
        assert list(pages) == [1, 3]
        assert list(counts) == [1, 3]

    def test_empty(self):
        pages, counts = dedupe_with_counts(np.array([], dtype=np.int64))
        assert pages.size == 0 and counts.size == 0


class TestCoalescedPages:
    def _alloc(self):
        return VirtualAddressSpace().malloc_managed("a", CHUNK_SIZE)

    def test_same_sector_collapses(self):
        a = self._alloc()
        # 16 consecutive 8-byte elements = one 128B sector.
        pages, counts = coalesced_pages(a, np.arange(16) * 8)
        assert pages.size == 1
        assert counts[0] == 1

    def test_scattered_sectors_counted(self):
        a = self._alloc()
        offs = np.array([0, 128, 4096])   # two sectors page 0, one page 1
        pages, counts = coalesced_pages(a, offs)
        assert list(pages) == [a.first_page, a.first_page + 1]
        assert list(counts) == [2, 1]

    def test_accesses_per_sector_multiplier(self):
        a = self._alloc()
        _, counts = coalesced_pages(a, np.array([0]), accesses_per_sector=3)
        assert counts[0] == 3

    def test_empty(self):
        a = self._alloc()
        pages, counts = coalesced_pages(a, np.array([], dtype=np.int64))
        assert pages.size == 0

    def test_sectors_per_page_constant(self):
        assert SECTORS_PER_PAGE == 32


def _row_bounds(*lengths):
    bounds = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=bounds[1:])
    return bounds


def _window_rows(sectors, bounds):
    """Rows times the page-aligned sector window the batch call sees."""
    sectors = np.asarray(sectors, dtype=np.int64)
    lo = (int(sectors.min()) >> 5) << 5
    return (bounds.size - 1) * ((((int(sectors.max()) - lo) >> 5) + 1) << 5)


class TestCoalescedPageOffsetsBatch:
    """Each row equals :func:`coalesced_page_offsets` on its own slice."""

    def assert_rows_match(self, index, bounds, itemsize=1,
                          accesses_per_sector=1):
        pages, counts, page_bounds = coalesced_page_offsets_batch(
            index, bounds, itemsize, accesses_per_sector)
        assert page_bounds.size == bounds.size
        assert page_bounds[0] == 0 and page_bounds[-1] == pages.size
        assert pages.dtype == counts.dtype == np.int64
        for r in range(bounds.size - 1):
            row = np.asarray(index[bounds[r]:bounds[r + 1]], dtype=np.int64)
            want_pages, want_counts = coalesced_page_offsets(
                row * itemsize, accesses_per_sector)
            got = slice(page_bounds[r], page_bounds[r + 1])
            np.testing.assert_array_equal(pages[got], want_pages)
            np.testing.assert_array_equal(counts[got], want_counts)

    def test_dense_rows_take_the_mask(self):
        rng = np.random.default_rng(0)
        bounds = _row_bounds(900, 1000, 700, 1000)
        offs = rng.integers(0, 1 << 14, bounds[-1]) * 4
        assert _window_rows(offs >> 7, bounds) <= 2 * offs.size
        self.assert_rows_match(offs, bounds)

    def test_int32_indices_take_the_mask(self):
        rng = np.random.default_rng(1)
        bounds = _row_bounds(*[4096] * 6)
        ids = rng.integers(0, 1 << 17, bounds[-1]).astype(np.int32)
        assert _window_rows(ids >> 5, bounds) <= 2 * ids.size
        self.assert_rows_match(ids, bounds, itemsize=4)

    def test_sparse_rows_take_the_sort(self):
        rng = np.random.default_rng(2)
        bounds = _row_bounds(128, 128, 50, 128)
        offs = rng.integers(0, 1 << 30, bounds[-1])
        assert _window_rows(offs >> 7, bounds) > 2 * offs.size
        self.assert_rows_match(offs, bounds)

    def test_int32_indices_take_the_sort(self):
        rng = np.random.default_rng(6)
        bounds = _row_bounds(200, 3, 200)
        ids = rng.integers(0, 1 << 27, bounds[-1]).astype(np.int32)
        assert _window_rows(ids >> 4, bounds) > 2 * ids.size
        self.assert_rows_match(ids, bounds, itemsize=8)

    def test_rows_sorted_within_skip_the_sort(self):
        rng = np.random.default_rng(3)
        bounds = _row_bounds(300, 300, 301)
        ids = np.concatenate([np.sort(rng.integers(0, 1 << 25, n))
                              for n in np.diff(bounds)])
        self.assert_rows_match(ids, bounds, itemsize=8)

    @pytest.mark.parametrize("offs", [np.arange(0, 40000, 8),
                                      np.arange(0, 1 << 30, 1 << 21)],
                             ids=["dense", "sparse"])
    def test_empty_and_one_element_rows(self, offs):
        n = offs.size
        bounds = np.array([0, 0, 1, 1, 2, n // 2, n // 2, n - 1, n, n])
        self.assert_rows_match(offs, bounds)

    @pytest.mark.parametrize("scale", [4, 1 << 20], ids=["dense", "sparse"])
    def test_accesses_per_sector(self, scale):
        rng = np.random.default_rng(4)
        bounds = _row_bounds(500, 0, 500, 1)
        offs = rng.integers(0, 1 << 14, bounds[-1]) * scale
        self.assert_rows_match(offs, bounds, accesses_per_sector=3)

    @pytest.mark.parametrize("aps", [1, 3])
    def test_int64_overflow_falls_back_per_row(self, aps):
        # Sectors near 2**55 leave no room for 64 rows in the key.
        rng = np.random.default_rng(5)
        bounds = _row_bounds(*[3] * 64)
        offs = (1 << 62) + rng.integers(0, 1 << 40, bounds[-1])
        self.assert_rows_match(offs, bounds, accesses_per_sector=aps)

    def test_empty_input(self):
        pages, counts, page_bounds = coalesced_page_offsets_batch(
            np.empty(0, dtype=np.int64), np.zeros(4, dtype=np.int64))
        assert pages.size == counts.size == 0
        assert page_bounds.tolist() == [0, 0, 0, 0]

    def test_bounds_must_cover_the_indices(self):
        with pytest.raises(ValueError):
            coalesced_page_offsets_batch(np.arange(10), np.array([0, 4, 9]))

    @pytest.mark.parametrize("itemsize", [0, 3, 256])
    def test_itemsize_must_be_a_power_of_two_up_to_a_sector(self, itemsize):
        with pytest.raises(ValueError):
            coalesced_page_offsets_batch(np.arange(4), np.array([0, 4]),
                                         itemsize)

    @settings(max_examples=60, deadline=None)
    @given(lengths=st.lists(st.integers(0, 300), min_size=1, max_size=12),
           span=st.sampled_from([1 << 9, 1 << 13, 1 << 17, 1 << 28]),
           itemsize=st.sampled_from([1, 4, 8, 128]), aps=st.integers(1, 3),
           int32=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_random_rows(self, lengths, span, itemsize, aps, int32, seed):
        bounds = _row_bounds(*lengths)
        ids = np.random.default_rng(seed).integers(0, span, bounds[-1])
        if int32:
            ids = ids.astype(np.int32)
        self.assert_rows_match(ids, bounds, itemsize, aps)


class TestRandomGraph:
    def test_structure_valid(self):
        g = random_graph(1000, 4.0, np.random.default_rng(0))
        g.validate()
        assert g.num_nodes == 1000
        assert g.num_edges == g.ptr[-1]

    def test_average_degree(self):
        g = random_graph(10_000, 8.0, np.random.default_rng(1))
        assert g.degrees().mean() == pytest.approx(8.0, rel=0.05)

    def test_chain_guarantees_reachability(self):
        g = random_graph(500, 2.0, np.random.default_rng(2))
        # Follow the chain edge (first edge of each node).
        seen = {0}
        node = 0
        for _ in range(500):
            node = int(g.dst[g.ptr[node]])
            seen.add(node)
        assert len(seen) == 500

    def test_skew_concentrates_destinations(self):
        rng = np.random.default_rng(3)
        uniform = random_graph(10_000, 8.0, rng, skew=0.0)
        skewed = random_graph(10_000, 8.0, rng, skew=0.6)
        # Top-1% most popular destinations take a larger share when skewed.
        def top_share(g):
            counts = np.bincount(g.dst, minlength=g.num_nodes)
            counts.sort()
            return counts[-100:].sum() / g.num_edges
        assert top_share(skewed) > 2 * top_share(uniform)

    def test_deterministic_for_seed(self):
        a = random_graph(100, 4.0, np.random.default_rng(42))
        b = random_graph(100, 4.0, np.random.default_rng(42))
        assert np.array_equal(a.dst, b.dst)
        assert np.array_equal(a.weights, b.weights)

    def test_rejects_bad_args(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            random_graph(1, 4.0, rng)
        with pytest.raises(ValueError):
            random_graph(10, 0.5, rng)
        with pytest.raises(ValueError):
            random_graph(10, 4.0, rng, skew=1.0)


def _graph_presets():
    """``(num_nodes, avg_degree, skew)`` of every random-graph preset."""
    recipes = {(p.num_nodes, p.avg_degree, p.skew)
               for presets in (BFS_PRESETS, SSSP_PRESETS)
               for p in presets.values()}
    return sorted(recipes)


class TestRandomGraphMatchesReference:
    """The in-place ``random_graph`` is bit-identical to the reference."""

    @pytest.mark.parametrize("num_nodes,avg_degree,skew", _graph_presets())
    def test_every_preset(self, num_nodes, avg_degree, skew):
        self.assert_same(num_nodes, avg_degree, skew, seed=0)

    @pytest.mark.parametrize("num_nodes", [1000, 3 * 5 * 7 * 11, 1 << 12])
    @pytest.mark.parametrize("skew", [0.0, 0.25, 0.6])
    def test_other_node_counts(self, num_nodes, skew):
        self.assert_same(num_nodes, 6.0, skew, seed=num_nodes)

    @staticmethod
    def assert_same(num_nodes, avg_degree, skew, seed):
        # The reference first: its temporaries are gone before the
        # production build starts (the largest preset has 17M edges).
        want = reference_random_graph(num_nodes, avg_degree,
                                      np.random.default_rng(seed), skew=skew)
        got = random_graph(num_nodes, avg_degree,
                           np.random.default_rng(seed), skew=skew)
        for field in dataclasses.fields(want):
            a, b = getattr(got, field.name), getattr(want, field.name)
            assert a.dtype == b.dtype, field.name
            np.testing.assert_array_equal(a, b, err_msg=field.name)


def _states_equal(a, b):
    """Generator states equal as dicts, buffered 32-bit half included."""
    return a.bit_generator.state == b.bit_generator.state


class TestUnweightedGraph:
    """An unweighted graph is the weighted one without its weights, and
    leaves the generator where the weight draws would."""

    @pytest.mark.parametrize("num_nodes,avg_degree,skew", _graph_presets())
    def test_every_preset(self, num_nodes, avg_degree, skew):
        plain_rng = np.random.default_rng(5)
        plain = random_graph(num_nodes, avg_degree, plain_rng, skew=skew,
                             weighted=False)
        assert plain.weights is None
        ptr, dst = plain.ptr, plain.dst
        del plain
        weighted_rng = np.random.default_rng(5)
        weighted = random_graph(num_nodes, avg_degree, weighted_rng,
                                skew=skew)
        assert weighted.weights is not None
        np.testing.assert_array_equal(ptr, weighted.ptr)
        np.testing.assert_array_equal(dst, weighted.dst)
        assert dst.dtype == weighted.dst.dtype
        assert _states_equal(plain_rng, weighted_rng)

    @settings(max_examples=25, deadline=None)
    @given(num_nodes=st.integers(2, 3000), avg_degree=st.floats(1.0, 9.0),
           skew=st.sampled_from([0.0, 0.25, 0.6]),
           buffered=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matches_reference_draws(self, num_nodes, avg_degree, skew,
                                     buffered, seed):
        """The reference draws the weights and discards them."""
        rngs = [np.random.default_rng(seed) for _ in range(2)]
        if buffered:
            for rng in rngs:
                rng.random(1, dtype=np.float32)
        want = reference_random_graph(num_nodes, avg_degree, rngs[0],
                                      skew=skew, weighted=False)
        got = random_graph(num_nodes, avg_degree, rngs[1], skew=skew,
                           weighted=False)
        assert got.weights is None and want.weights is None
        np.testing.assert_array_equal(got.ptr, want.ptr)
        np.testing.assert_array_equal(got.dst, want.dst)
        assert _states_equal(rngs[0], rngs[1])

    def test_validate_accepts_unweighted(self):
        g = random_graph(1000, 4.0, np.random.default_rng(0),
                         weighted=False)
        g.validate()
        bad = dataclasses.replace(g, weights=np.ones(3, dtype=np.float32))
        with pytest.raises(AssertionError, match="weights"):
            bad.validate()

    def test_bfs_builds_no_weights_and_sssp_does(self):
        bfs, sssp = Bfs(BFS_PRESETS["tiny"]), Sssp(SSSP_PRESETS["tiny"])
        for workload in (bfs, sssp):
            workload.build(VirtualAddressSpace(), np.random.default_rng(0))
        assert bfs.graph.weights is None
        assert sssp.graph.weights.shape == sssp.graph.dst.shape

    def test_peak_memory_is_kept_arrays_plus_blocks(self):
        """Destinations are drawn in blocks into the final int32 array
        and no weights are drawn: the peak is what the graph keeps, the
        per-node degree and pointer arrays of the build, and a block's
        per-edge float64 draws and int64 ids."""
        num_nodes = 1 << 19
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            g = random_graph(num_nodes, 8.0, rng, skew=0.25, weighted=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = (g.ptr.nbytes + g.dst.nbytes + 3 * num_nodes * 8
                 + 2 * graphs._EDGE_BLOCK * 8)
        assert peak <= bound, (peak / 2**20, bound / 2**20)


class TestSkipFloat32Draws:
    """``skip_float32_draws`` leaves the generator dict-equal to real
    ``rng.random(n, dtype=np.float32)`` draws."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 100_001, 100_000])
    @pytest.mark.parametrize("buffered", [False, True])
    def test_matches_real_draws(self, n, buffered):
        drawn, skipped = (np.random.default_rng(11) for _ in range(2))
        if buffered:
            # An odd number of float32 draws leaves a 32-bit half in
            # the buffer.
            for rng in (drawn, skipped):
                rng.random(3, dtype=np.float32)
            assert drawn.bit_generator.state["has_uint32"] == 1
        drawn.random(n, dtype=np.float32)
        skip_float32_draws(skipped, n)
        assert _states_equal(drawn, skipped)
        np.testing.assert_array_equal(drawn.random(5, dtype=np.float32),
                                      skipped.random(5, dtype=np.float32))

    def test_rejects_other_bit_generators(self):
        rng = np.random.Generator(np.random.MT19937(0))
        with pytest.raises(TypeError, match="MT19937"):
            skip_float32_draws(rng, 10)
        with pytest.raises(TypeError, match="MT19937"):
            random_graph(100, 4.0, rng, weighted=False)


class TestGraphMemo:
    @pytest.fixture(autouse=True)
    def fresh_memo(self, monkeypatch):
        monkeypatch.setattr(graphs, "_GRAPH_MEMO", OrderedDict())

    def test_weighted_and_unweighted_never_alias(self):
        weighted_rng, plain_rng = (np.random.default_rng(7)
                                   for _ in range(2))
        weighted = make_graph(3000, 4.0, weighted_rng, weighted=True)
        plain = make_graph(3000, 4.0, plain_rng, weighted=False)
        assert plain is not weighted
        assert plain.weights is None
        assert weighted.weights is not None
        assert _states_equal(weighted_rng, plain_rng)
        assert len(graphs._GRAPH_MEMO) == 2

    @pytest.mark.parametrize("weighted", [True, False])
    def test_hit_fast_forwards_the_generator(self, weighted):
        first_rng, again_rng = (np.random.default_rng(8)
                                for _ in range(2))
        first = make_graph(3000, 4.0, first_rng, weighted=weighted)
        again = make_graph(3000, 4.0, again_rng, weighted=weighted)
        assert again is first
        assert _states_equal(first_rng, again_rng)
        assert not first.dst.flags.writeable
