"""Batched-vs-scalar equivalence: the batched drain's correctness contract.

The driver's batched migration drain and the tree's bulk
``install_leaves`` are pure performance rewrites of scalar paths that
are kept as references: the per-block drain in the test oracle
(:class:`tests.oracle.ReferenceDriver`) and
``PrefetchTree.mark_resident``.  These properties pin the contract:
identical :class:`WaveOutcome` totals, identical driver state, identical
event streams, and clean ``check_consistency()`` under randomized
traffic, for every policy, replacement order, eviction granularity and
prefetcher, down to capacities where most faults evict.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.config import (EvictionGranularity, MigrationPolicy,
                          PrefetcherKind, ReplacementPolicy,
                          SimulationConfig)
from repro.memory.layout import MB
from repro.obs import Observability
from repro.obs.sinks import RingBufferSink
from repro.uvm.driver import UvmDriver
from repro.uvm.tree import PrefetchTree

from tests.conftest import make_vas
from tests.oracle import ReferenceDriver


@st.composite
def setups(draw):
    """A driver configuration; the 12MB VA space is 6 chunks, so a 2MB
    device holds one of them and nearly every fault evicts."""
    return dict(policy=draw(st.sampled_from(list(MigrationPolicy))),
                replacement=draw(st.sampled_from(list(ReplacementPolicy))),
                granularity=draw(st.sampled_from(list(EvictionGranularity))),
                prefetcher=draw(st.sampled_from(list(PrefetcherKind))),
                capacity_mb=draw(st.sampled_from([2, 3, 6])))


@st.composite
def traffic(draw):
    seed = draw(st.integers(0, 2**16))
    n_waves = draw(st.integers(1, 10))
    wave_size = draw(st.integers(1, 250))
    # Each wave's pages come from the whole space or from a window of
    # one or two chunks' worth (512 pages each): local waves leave most
    # chunks unpinned, so victim choice meets every fallback tier.
    window = draw(st.sampled_from([None, 512, 1024]))
    return seed, n_waves, wave_size, window


def _drivers(setup):
    """A production and a scalar-reference driver of one configuration,
    each with a ring buffer of its events."""
    cfg = SimulationConfig().with_policy(setup["policy"], static_threshold=8,
                                         migration_penalty=8)
    cfg = cfg.with_device_capacity(setup["capacity_mb"] * MB)
    cfg = cfg.with_eviction_granularity(setup["granularity"])
    cfg = cfg.with_prefetcher(setup["prefetcher"])
    cfg = dataclasses.replace(cfg, memory=dataclasses.replace(
        cfg.memory, replacement=setup["replacement"]))
    pairs = []
    for cls in (UvmDriver, ReferenceDriver):
        obs = Observability()
        ring = RingBufferSink(1 << 20)
        obs.bus.attach(ring)
        pairs.append((cls(make_vas(4, 8), cfg, obs=obs), ring))
    return pairs


#: Per-block and per-chunk driver state the two drains must agree on.
STATE = ("residency.resident", "residency.dirty", "counters.counts",
         "counters.roundtrips", "counters.volta_counts",
         "host.remote_mapped", "ever_migrated", "directory.occupancy",
         "directory.last_touch")


def _state(driver, path):
    obj = driver
    for name in path.split("."):
        obj = getattr(obj, name)
    return obj


@given(setups(), traffic())
@settings(max_examples=100, deadline=None)
def test_batched_drain_matches_scalar_reference(setup, t):
    seed, n_waves, wave_size, window = t
    rng = np.random.default_rng(seed)
    (batched, ring_b), (scalar, ring_s) = _drivers(setup)
    alloc_pages = np.concatenate([
        np.arange(a.first_page, a.last_page)
        for a in batched.vas.allocations])
    for _ in range(n_waves):
        if window is None:
            pages = rng.choice(alloc_pages, size=wave_size)
        else:
            lo = rng.integers(0, alloc_pages.size - window + 1)
            pages = rng.choice(alloc_pages[lo:lo + window], size=wave_size)
        writes = rng.random(wave_size) < 0.4
        counts = rng.integers(1, 50, size=wave_size)
        out_b = batched.process_wave(pages, writes, counts)
        out_s = scalar.process_wave(pages.copy(), writes.copy(),
                                    counts.copy())
        assert dataclasses.asdict(out_b) == dataclasses.asdict(out_s)
    # Beyond per-wave totals, the full driver state must agree: any
    # divergence here would split future waves apart.
    for path in STATE:
        assert np.array_equal(_state(batched, path), _state(scalar, path)), \
            path
    assert np.array_equal(batched.stats.thrashed, scalar.stats.thrashed)
    assert batched.counters.count_halvings == scalar.counters.count_halvings
    assert (batched.counters.roundtrip_halvings
            == scalar.counters.roundtrip_halvings)
    # Same events in the same order: evictions, prefetch expansions,
    # decisions and halvings alike.
    assert ring_b.total_written == ring_s.total_written <= ring_b.capacity
    assert ring_b.events == ring_s.events
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
