"""Batched-vs-scalar equivalence: the batched drain's correctness contract.

The driver's batched migration drain and the tree's bulk
``install_leaves`` are pure performance rewrites of scalar paths that
are kept as references: the per-block drain in the test oracle
(:class:`tests.oracle.ReferenceDriver`) and
``PrefetchTree.mark_resident``.  These properties pin the contract:
identical :class:`WaveOutcome` totals, identical driver state, and
clean ``check_consistency()`` under randomized traffic, for every
policy.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.config import MigrationPolicy
from repro.uvm.driver import UvmDriver
from repro.uvm.tree import PrefetchTree

from tests.conftest import make_driver, make_vas
from tests.oracle import ReferenceDriver

policies = st.sampled_from(list(MigrationPolicy))


@st.composite
def traffic(draw):
    seed = draw(st.integers(0, 2**16))
    n_waves = draw(st.integers(1, 10))
    wave_size = draw(st.integers(1, 250))
    return seed, n_waves, wave_size


def _drivers(policy):
    """One production and one scalar-reference driver, same configuration."""
    return [make_driver(make_vas(4, 8), policy, capacity_mb=6,
                        driver_cls=cls)
            for cls in (UvmDriver, ReferenceDriver)]


@given(policies, traffic())
@settings(max_examples=50, deadline=None)
def test_batched_drain_matches_scalar_reference(policy, t):
    seed, n_waves, wave_size = t
    rng = np.random.default_rng(seed)
    batched, scalar = _drivers(policy)
    alloc_pages = np.concatenate([
        np.arange(a.first_page, a.last_page)
        for a in batched.vas.allocations])
    for _ in range(n_waves):
        pages = rng.choice(alloc_pages, size=wave_size)
        writes = rng.random(wave_size) < 0.4
        counts = rng.integers(1, 50, size=wave_size)
        out_b = batched.process_wave(pages, writes, counts)
        out_s = scalar.process_wave(pages.copy(), writes.copy(),
                                    counts.copy())
        assert dataclasses.asdict(out_b) == dataclasses.asdict(out_s)
    # Beyond per-wave totals, the full driver state must agree: any
    # divergence here would split future waves apart.
    assert np.array_equal(batched.residency.resident,
                          scalar.residency.resident)
    assert np.array_equal(batched.residency.dirty, scalar.residency.dirty)
    assert np.array_equal(batched.counters.counts, scalar.counters.counts)
    assert np.array_equal(batched.counters.roundtrips,
                          scalar.counters.roundtrips)
    assert np.array_equal(batched.directory.last_touch,
                          scalar.directory.last_touch)
    batched.check_consistency()
    scalar.check_consistency()


leaf_counts = st.sampled_from([1, 2, 4, 8, 16, 32])


@st.composite
def leaf_batches(draw):
    n = draw(leaf_counts)
    pre = draw(st.sets(st.integers(0, n - 1)))
    batch = draw(st.sets(st.integers(0, n - 1)))
    return n, sorted(pre), sorted(batch - set(pre))


@given(leaf_batches())
@settings(max_examples=200, deadline=None)
def test_install_leaves_matches_scalar_marks(case):
    n, pre, batch = case
    bulk, ref = PrefetchTree(n), PrefetchTree(n)
    for leaf in pre:
        bulk.mark_resident(leaf)
        ref.mark_resident(leaf)
    bulk.install_leaves(np.array(batch, dtype=np.int64))
    for leaf in batch:
        ref.mark_resident(leaf)
    assert bulk.occupancy == ref.occupancy
    assert np.array_equal(bulk.resident_leaves(), ref.resident_leaves())
    bulk.check_invariants()
    ref.check_invariants()
    # And bulk removal is the inverse, matching scalar remove().
    if batch:
        bulk.remove_leaves(np.array(batch, dtype=np.int64))
        for leaf in batch:
            ref.remove(leaf)
        assert np.array_equal(bulk.resident_leaves(), ref.resident_leaves())
        bulk.check_invariants()
        ref.check_invariants()
