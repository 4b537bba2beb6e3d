"""Victim selection: production's composite key against the tier cascade.

Production's ``select_victims`` picks from one composite int64 key per
chunk (``ChunkDirectory.victim_key``: fallback tier above the LRU/LFU
key, int64 max for chunks that cannot be taken); the oracle,
:func:`tests.oracle.reference_select_victims`, walks the tiers one mask
at a time.  Over random chunk directories --
full, partial and empty chunks, random pinned and ``never`` chunks,
tied keys, both replacement policies and every deficit from 0 to one
past everything resident -- both must pick the same victims in the same
order, or fail with the same error.

The driver builds that key once per wave and keeps it current with
per-chunk updates; a second property checks it against a fresh build
before every victim choice, and a third the scalar heat bucket of those
updates against the build's array form.
"""

import dataclasses
from unittest import mock

import numpy as np
from hypothesis import given, note, settings, strategies as st

from repro.config import (EvictionGranularity, MigrationPolicy,
                          ReplacementPolicy, SimulationConfig)
from repro.memory.allocation import ChunkSpan
from repro.memory.layout import MB
from repro.uvm import driver as driver_module
from repro.uvm.driver import UvmDriver
from repro.uvm.eviction import ChunkDirectory, heat_bucket, select_victims

from tests.conftest import make_vas
from tests.oracle import reference_select_victims


@st.composite
def directories(draw):
    """A populated chunk directory plus a selection request."""
    sizes = draw(st.lists(st.sampled_from([1, 2, 4, 8, 16, 32]),
                          min_size=1, max_size=24))
    spans, cursor = [], 0
    for cid, n in enumerate(sizes):
        spans.append(ChunkSpan(chunk_id=cid, first_block=cursor,
                               num_blocks=n))
        cursor += n
    d = ChunkDirectory(tuple(spans), cursor)
    k = len(sizes)
    # Each chunk empty, partial or full; a narrow clock and few heat
    # buckets make ties common.
    d.occupancy[:] = [draw(st.one_of(st.just(0), st.just(n),
                                     st.integers(0, n))) for n in sizes]
    d.last_touch[:] = draw(st.lists(st.integers(0, 3), min_size=k,
                                    max_size=k))
    pinned = np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)))
    never = draw(st.one_of(st.none(), st.integers(0, k - 1)))
    policy = draw(st.sampled_from(list(ReplacementPolicy)))
    # Heat sums of up to four accesses per block: buckets 0 to 2.
    heat = np.array([draw(st.integers(0, 4 * n)) for n in sizes],
                    dtype=np.float64)
    dirty = np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)))
    needed = draw(st.integers(0, int(d.occupancy.sum()) + 1))
    cached_order = draw(st.booleans())
    return d, needed, policy, pinned, heat, dirty, never, cached_order


def _outcome(select, *args, **kwargs):
    try:
        return select(*args, **kwargs)
    except RuntimeError as exc:
        return ("error", str(exc))


@given(directories())
@settings(max_examples=500, deadline=None)
def test_composite_key_matches_tier_cascade(case):
    d, needed, policy, pinned, heat, dirty, never, cached_order = case
    lfu = policy is ReplacementPolicy.LFU
    key = (d.victim_key(policy, pinned, heat, dirty) if lfu
           else d.victim_key(policy, pinned))
    got = _outcome(select_victims, d, needed, key, never)
    kw = (dict(heat=d.heat_buckets_from_sums(heat), dirty_any=dirty)
          if lfu else {})
    never_mask = np.zeros(d.num_chunks, dtype=bool)
    if never is not None:
        never_mask[never] = True
    # A driver hands the oracle its per-wave LRU order.
    order = (np.argsort(d.last_touch, kind="stable")
             if cached_order and not lfu else None)
    want = _outcome(reference_select_victims, d, needed, policy, pinned,
                    never=never_mask, order=order, **kw)
    assert got == want
    if isinstance(got, list):
        assert all(type(c) is int for c in got)


# ---------------------------------------------------------------------------
# the driver's per-wave victim key against a fresh build
# ---------------------------------------------------------------------------

@st.composite
def pressure_runs(draw):
    """A driver configuration and pressure traffic, with tenant-style
    releases between waves."""
    setup = dict(
        policy=draw(st.sampled_from(list(MigrationPolicy))),
        replacement=draw(st.sampled_from(list(ReplacementPolicy))),
        granularity=draw(st.sampled_from(list(EvictionGranularity))),
        capacity_mb=draw(st.sampled_from([2, 3, 5])))
    seed = draw(st.integers(0, 2**16))
    n_waves = draw(st.integers(1, 12))
    # Before each wave, the allocation whose chunks serve releases
    # first, as a departing tenant's would be (None: no release).
    releases = draw(st.lists(st.one_of(st.none(), st.integers(0, 3)),
                             min_size=n_waves, max_size=n_waves))
    return setup, seed, releases


def _pressure_driver(setup):
    cfg = SimulationConfig(debug_invariants=True).with_policy(
        setup["policy"], static_threshold=4, migration_penalty=2)
    cfg = cfg.with_device_capacity(setup["capacity_mb"] * MB)
    cfg = cfg.with_eviction_granularity(setup["granularity"])
    cfg = dataclasses.replace(cfg, memory=dataclasses.replace(
        cfg.memory, replacement=setup["replacement"]))
    return UvmDriver(make_vas(2, 4, 2, 4), cfg)


@given(pressure_runs())
@settings(max_examples=120, deadline=None)
def test_cached_victim_key_matches_fresh_build(run):
    """Before every victim choice, the key the driver built at the
    wave's first pressure event and kept current since equals one built
    from scratch from the driver's state at that moment (and, under
    LFU, so do the heat sums behind its buckets).  The driver's own
    ``debug_invariants`` audit checks it again at the end of each
    wave."""
    setup, seed, releases = run
    drv = _pressure_driver(setup)
    rng = np.random.default_rng(seed)
    allocs = drv.vas.allocations
    pages = np.concatenate([np.arange(a.first_page, a.last_page)
                            for a in allocs])
    choices = []

    def checked(directory, needed, key, never=None):
        want, heat = drv._fresh_victim_key(drv._key_pinned)
        assert np.array_equal(key, want)
        if heat is not None:
            assert drv._heat_sum == heat.tolist()
        choices.append(needed)
        return select_victims(directory, needed, key, never)

    with mock.patch.object(driver_module, "select_victims", checked):
        for release in releases:
            if release is not None:
                a = allocs[release]
                drv.release_chunks(
                    np.unique(drv.directory.chunk_of_block[
                        a.first_block:a.first_block + a.num_blocks]))
            size = int(rng.integers(1, 300))
            drv.process_wave(rng.choice(pages, size=size),
                             rng.random(size) < 0.4,
                             rng.integers(1, 20, size=size))
    drv.check_consistency()
    note(f"{len(choices)} victim choices")


@given(st.integers(0, 32),
       st.one_of(st.integers(0, 1 << 36),
                 st.tuples(st.integers(1, 32), st.integers(0, 32),
                           st.integers(-1, 1)).map(
                     lambda t: max(t[0] * (1 << t[1]) + t[2], 0))))
@settings(max_examples=500, deadline=None)
def test_scalar_heat_bucket_matches_array_buckets(occupancy, heat_sum):
    """The driver's per-chunk bucket equals the build's, for integer
    heat sums (up to and past 32 saturated 27-bit counters) and every
    chunk occupancy, around each power of two in particular."""
    d = ChunkDirectory((ChunkSpan(chunk_id=0, first_block=0,
                                  num_blocks=32),), 32)
    d.occupancy[0] = occupancy
    want = int(d.heat_buckets_from_sums(np.array([float(heat_sum)]))[0])
    assert heat_bucket(float(heat_sum), occupancy) == want
