"""Property-based tests for the tree prefetcher.

Beyond the prefetcher's own rules, random operation sequences pin
production's memoized fault walk over its leaf bitmask to the oracle's
(:class:`tests.oracle.ReferenceTree`, a heap of occupancy counts walked
on every fault), comparing results, errors and masks.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.uvm.tree import (FAULT_WALK_CACHE_SIZE, _NO_PREFETCH,
                            PrefetchTree, _fault_walk)

from tests.oracle import ReferenceTree

leaf_counts = st.sampled_from([1, 2, 4, 8, 16, 32])


@st.composite
def tree_and_faults(draw):
    n = draw(leaf_counts)
    order = draw(st.permutations(range(n)))
    prefix = draw(st.integers(min_value=1, max_value=n))
    return n, list(order)[:prefix]


@given(tree_and_faults())
@settings(max_examples=200, deadline=None)
def test_occupancy_invariant_holds_under_any_fault_order(case):
    n, faults = case
    tree = PrefetchTree(n)
    for leaf in faults:
        if not tree.is_resident(leaf):
            tree.on_fault(leaf)
        tree.check_invariants()


@given(tree_and_faults())
@settings(max_examples=200, deadline=None)
def test_prefetch_never_exceeds_chunk_and_never_duplicates(case):
    n, faults = case
    tree = PrefetchTree(n)
    installed = set()
    for leaf in faults:
        if leaf in installed:
            continue
        pf = tree.on_fault(leaf)
        assert leaf not in pf
        for p in pf:
            assert 0 <= p < n
            assert p not in installed, "prefetched an already-resident leaf"
            installed.add(int(p))
        installed.add(leaf)
    assert set(tree.resident_leaves().tolist()) == installed
    assert tree.occupancy == len(installed)


@given(tree_and_faults())
@settings(max_examples=100, deadline=None)
def test_all_leaves_resident_after_touching_all(case):
    n, _ = case
    tree = PrefetchTree(n)
    for leaf in range(n):
        if not tree.is_resident(leaf):
            tree.on_fault(leaf)
    assert tree.occupancy == n


@given(tree_and_faults())
@settings(max_examples=100, deadline=None)
def test_clear_is_total(case):
    n, faults = case
    tree = PrefetchTree(n)
    for leaf in faults:
        if not tree.is_resident(leaf):
            tree.on_fault(leaf)
    tree.clear()
    assert tree.occupancy == 0
    assert not any(tree.is_resident(l) for l in range(n))


@given(st.integers(min_value=1, max_value=5))
@settings(max_examples=20, deadline=None)
def test_balancing_rule_never_leaves_node_above_half_unbalanced(levels):
    """After any fault, every strict-majority node is fully populated."""
    n = 1 << levels
    tree = PrefetchTree(n)
    rng = np.random.default_rng(levels)
    for leaf in rng.permutation(n):
        if tree.is_resident(int(leaf)):
            continue
        tree.on_fault(int(leaf))
        # Brute-force every aligned power-of-two leaf window (= every
        # tree node): occupancy strictly above 50% implies the
        # prefetcher balanced the node to full.
        res = np.array([tree.is_resident(i) for i in range(n)])
        span = 2
        while span <= n:
            for start in range(0, n, span):
                window = res[start:start + span]
                occ = window.sum()
                if 2 * occ > span:
                    assert occ == span, (
                        f"node [{start},{start+span}) at {occ}/{span} "
                        "should have been balanced full")
            span *= 2


# ---------------------------------------------------------------------------
# memoized fault walk vs the oracle's walk on every fault
# ---------------------------------------------------------------------------

@st.composite
def tree_ops(draw):
    """A tree size and a random sequence of operations on it.

    Fault leaves range one past each end, and install/remove batches
    are drawn regardless of residency, so errors are exercised too.
    """
    n = draw(leaf_counts)
    leaf_sets = st.sets(st.integers(0, n - 1)).map(sorted)
    op = st.one_of(
        st.tuples(st.just("fault"), st.integers(-1, n)),
        st.tuples(st.just("install"), leaf_sets),
        st.tuples(st.just("remove"), leaf_sets),
        st.tuples(st.just("clear")),
    )
    return n, draw(st.lists(op, max_size=40))


def _apply(tree, op, prefetched=None):
    """Run ``op`` on ``tree``; returns (result or error, mask, invariants).

    Arrays a fault returns are also appended to ``prefetched``.
    """
    name, *args = op
    try:
        if name == "fault":
            got = tree.on_fault(*args)
            if prefetched is not None:
                prefetched.append(got)
            got = ("leaves", got.dtype.str, got.tolist())
        elif name == "clear":
            got = tree.clear()
        else:
            leaves = np.array(args[0], dtype=np.int64)
            got = getattr(tree, f"{name}_leaves")(leaves)
    except (IndexError, RuntimeError) as exc:
        got = (type(exc).__name__, str(exc))
    try:
        tree.check_invariants()
        ok = None
    except AssertionError as exc:
        ok = str(exc)
    return got, tree.mask, ok


@given(tree_ops())
@settings(max_examples=300, deadline=None)
def test_memoized_walk_matches_reference_tree(case):
    n, ops = case
    tree, ref = PrefetchTree(n), ReferenceTree(n)
    prefetched = []
    for op in ops:
        assert _apply(tree, op, prefetched) == _apply(ref, op), op
    assert not any(a.flags.writeable for a in prefetched)


def test_no_prefetch_result_is_read_only():
    assert not _NO_PREFETCH.flags.writeable
    assert not PrefetchTree(1).on_fault(0).flags.writeable
    assert PrefetchTree(4).on_fault(0) is _NO_PREFETCH


def test_fault_walk_memo_is_bounded():
    assert _fault_walk.cache_info().maxsize == FAULT_WALK_CACHE_SIZE


def test_numpy_leaf_keeps_masks_python_ints():
    """The memo is shared, so a NumPy leaf must not leak its type."""
    PrefetchTree(16).on_fault(np.int64(5))
    tree = PrefetchTree(16)
    tree.on_fault(5)
    assert type(tree.mask) is int
    with pytest.raises(TypeError):
        tree.on_fault(6.0)
