"""Unit tests for the prefetch strategies."""

import numpy as np
import pytest

from repro.uvm.prefetchers import (
    PREFETCH_DEGREE,
    NoPrefetchStrategy,
    RandomPrefetchStrategy,
    SequentialPrefetchStrategy,
    TreePrefetchStrategy,
    make_prefetcher,
)
from repro.uvm.tree import PrefetchTree


class TestFactory:
    @pytest.mark.parametrize("kind,cls", [
        ("tree", TreePrefetchStrategy),
        ("none", NoPrefetchStrategy),
        ("sequential", SequentialPrefetchStrategy),
        ("random", RandomPrefetchStrategy),
    ])
    def test_make(self, kind, cls):
        assert isinstance(make_prefetcher(kind), cls)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_prefetcher("psychic")


class TestNone:
    def test_installs_only_fault(self):
        tree = PrefetchTree(16)
        pf = NoPrefetchStrategy().on_fault(tree, 5)
        assert pf.size == 0
        assert tree.occupancy == 1
        assert tree.is_resident(5)


class TestSequential:
    def test_prefetches_next_n(self):
        assert PREFETCH_DEGREE == 4
        tree = PrefetchTree(16)
        pf = SequentialPrefetchStrategy().on_fault(tree, 4)
        assert list(pf) == [5, 6, 7, 8]
        assert tree.occupancy == 5

    def test_skips_resident(self):
        tree = PrefetchTree(16)
        tree.mark_resident(5)
        tree.mark_resident(7)
        pf = SequentialPrefetchStrategy().on_fault(tree, 4)
        assert list(pf) == [6, 8, 9, 10]

    def test_clamps_at_chunk_end(self):
        tree = PrefetchTree(8)
        pf = SequentialPrefetchStrategy().on_fault(tree, 6)
        assert list(pf) == [7]

    def test_invariants(self):
        tree = PrefetchTree(8)
        SequentialPrefetchStrategy().on_fault(tree, 0)
        tree.check_invariants()


class TestRandom:
    def test_prefetches_degree_absent(self):
        tree = PrefetchTree(32)
        pf = RandomPrefetchStrategy(seed=1).on_fault(tree, 0)
        assert pf.size == PREFETCH_DEGREE
        assert tree.occupancy == PREFETCH_DEGREE + 1
        assert 0 not in pf
        tree.check_invariants()

    def test_deterministic_per_seed(self):
        a = PrefetchTree(32)
        b = PrefetchTree(32)
        pa = RandomPrefetchStrategy(seed=9).on_fault(a, 0)
        pb = RandomPrefetchStrategy(seed=9).on_fault(b, 0)
        assert np.array_equal(pa, pb)

    def test_empty_when_full(self):
        tree = PrefetchTree(2)
        tree.mark_resident(1)
        pf = RandomPrefetchStrategy().on_fault(tree, 0)
        assert pf.size == 0


class TestTreeStrategy:
    def test_delegates_to_tree(self):
        tree = PrefetchTree(8)
        strat = TreePrefetchStrategy()
        strat.on_fault(tree, 0)
        strat.on_fault(tree, 1)
        pf = strat.on_fault(tree, 2)
        assert list(pf) == [3]


class TestTreeRemove:
    def test_remove_updates_occupancy(self):
        tree = PrefetchTree(8)
        for leaf in range(4):
            tree.mark_resident(leaf)
        tree.remove(2)
        assert tree.occupancy == 3
        assert not tree.is_resident(2)
        tree.check_invariants()

    def test_remove_absent_raises(self):
        tree = PrefetchTree(4)
        with pytest.raises(RuntimeError):
            tree.remove(0)

    def test_remove_then_refault(self):
        tree = PrefetchTree(8)
        tree.mark_resident(0)
        tree.remove(0)
        pf = tree.on_fault(0)
        assert tree.is_resident(0)
        assert pf.size == 0
