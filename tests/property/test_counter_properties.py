"""Property-based tests for counters and thresholds."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.bus import EventBus
from repro.obs.events import CounterHalving
from repro.obs.sinks import RingBufferSink
from repro.uvm.counters import AccessCounterFile
from repro.uvm.thresholds import dynamic_threshold_no_oversub, eq1_thresholds

from tests.oracle import dynamic_thresholds_oversub


@given(st.lists(st.tuples(st.integers(0, 15), st.integers(1, 10_000)),
                min_size=1, max_size=50))
@settings(max_examples=100, deadline=None)
def test_counter_accumulation_matches_reference(ops):
    c = AccessCounterFile(16)
    reference = np.zeros(16, dtype=np.int64)
    for block, amount in ops:
        c.add_accesses(np.array([block]), np.array([amount]))
        reference[block] += amount
    assert np.array_equal(c.counts.astype(np.int64), reference)


@given(st.lists(st.integers(0, 7), min_size=1, max_size=200))
@settings(max_examples=100, deadline=None)
def test_roundtrip_counts_never_exceed_field(blocks):
    c = AccessCounterFile(8)
    for b in blocks:
        c.add_roundtrip(np.array([b]))
    assert int(c.roundtrips.max()) <= int(c.roundtrip_max)


class NaiveCounterFile:
    """The counter file with a saturation scan after every update."""

    def __init__(self, total_blocks, counter_bits, roundtrip_bits):
        self.counts = np.zeros(total_blocks, dtype=np.int64)
        self.roundtrips = np.zeros(total_blocks, dtype=np.int64)
        self.counter_max = (1 << counter_bits) - 1
        self.roundtrip_max = (1 << roundtrip_bits) - 1
        self.count_halvings = 0
        self.roundtrip_halvings = 0
        self.events = []

    def add_accesses(self, blocks, amounts):
        np.add.at(self.counts, blocks, amounts)
        self._scan_counts(blocks)

    def add_accesses_unique(self, blocks, amounts):
        self.counts[blocks] += amounts
        self._scan_counts(blocks)

    def _scan_counts(self, blocks):
        while self.counts[blocks].max(initial=0) >= self.counter_max:
            self.counts >>= 1
            self.count_halvings += 1
            self.events.append(CounterHalving(
                wave=0, field="counts", halvings=self.count_halvings))

    def add_roundtrip(self, blocks):
        self.roundtrips[blocks] += 1
        while self.roundtrips[blocks].max(initial=0) > self.roundtrip_max:
            self.roundtrips >>= 1
            self.roundtrip_halvings += 1
            self.events.append(CounterHalving(
                wave=0, field="roundtrips",
                halvings=self.roundtrip_halvings))


N_BLOCKS = 4
blocks_list = st.lists(st.integers(0, N_BLOCKS - 1), min_size=1,
                       max_size=8)
distinct_blocks = st.lists(st.integers(0, N_BLOCKS - 1), min_size=1,
                           max_size=N_BLOCKS, unique=True)
#: Small amounts, and amounts two of which reach a 29-bit limit.
amounts = st.one_of(st.integers(0, 64), st.integers(1 << 26, 1 << 28))

#: ``(method, arguments, extra)``: ``extra`` is whether an access update
#: passes its total, or how often a round-trip update repeats.
counter_ops = st.one_of(
    st.tuples(st.just("add_accesses"), blocks_list.flatmap(
        lambda b: st.lists(amounts, min_size=len(b), max_size=len(b))
        .map(lambda a: (b, a))), st.booleans()),
    st.tuples(st.just("add_accesses_unique"), distinct_blocks.flatmap(
        lambda b: st.lists(amounts, min_size=len(b), max_size=len(b))
        .map(lambda a: (b, a))), st.booleans()),
    # Round trips saturate only after 8 hits on one block, so a drawn
    # eviction repeats 1-4 times.
    st.tuples(st.just("add_roundtrip"), distinct_blocks, st.integers(1, 4)),
)


@given(st.lists(counter_ops, min_size=10, max_size=80))
@settings(max_examples=200, deadline=None)
def test_saturation_bounds_match_a_scan_after_every_update(ops):
    """Skipping the scan while a field's bound is below its limit halves
    exactly when, and as often as, scanning after every update does."""
    bus = EventBus()
    ring = RingBufferSink(1 << 16)
    bus.attach(ring)
    c = AccessCounterFile(N_BLOCKS, counter_bits=29, roundtrip_bits=3,
                          bus=bus)
    naive = NaiveCounterFile(N_BLOCKS, counter_bits=29, roundtrip_bits=3)
    for name, args, extra in ops:
        if name == "add_roundtrip":
            blocks = np.array(args, dtype=np.int64)
            for _ in range(extra):
                c.add_roundtrip(blocks)
                naive.add_roundtrip(blocks)
        else:
            blocks = np.array(args[0], dtype=np.int64)
            amts = np.array(args[1], dtype=np.int64)
            total = int(amts.sum()) if extra else None
            getattr(c, name)(blocks, amts, total)
            getattr(naive, name)(blocks, amts)
        assert np.array_equal(c.counts, naive.counts)
        assert np.array_equal(c.roundtrips, naive.roundtrips)
        assert c.count_halvings == naive.count_halvings
        assert c.roundtrip_halvings == naive.roundtrip_halvings
    assert ring.events == naive.events


def test_counter_fields_are_read_only_views():
    c = AccessCounterFile(4)
    c.add_accesses(np.array([1]), np.array([5]))
    c.add_roundtrip(np.array([2]))
    for field in (c.counts, c.roundtrips):
        with pytest.raises(ValueError):
            field[0] = 1
    assert c.counts[1] == 5 and c.roundtrips[2] == 1
    assert c.counts is c.counts


@given(st.integers(1, 64), st.integers(0, 40))
@settings(max_examples=200, deadline=None)
def test_halving_preserves_relative_order(seed, extra):
    rng = np.random.default_rng(seed)
    c = AccessCounterFile(8)
    vals = rng.integers(1, 1000, size=8)
    c.add_accesses(np.arange(8), vals)
    order_before = np.argsort(c.counts, kind="stable")
    # Force a saturation-triggered halving.
    c.add_accesses(np.array([int(np.argmax(vals))]),
                   np.array([c.counter_max], dtype=np.uint64))
    assert c.count_halvings >= 1
    # Halving divides everything by the same power of two: weak order of
    # the untouched blocks is preserved.
    untouched = [i for i in range(8) if i != int(np.argmax(vals))]
    after = c.counts[untouched].astype(np.int64)
    before = vals[untouched]
    # Pairwise: strictly-greater before implies greater-or-equal after.
    for i in range(len(untouched)):
        for j in range(len(untouched)):
            if before[i] > before[j]:
                assert after[i] >= after[j]


@given(st.integers(1, 32), st.floats(0.0, 1.0))
@settings(max_examples=300, deadline=None)
def test_no_oversub_threshold_bounds(ts, occ):
    td = dynamic_threshold_no_oversub(ts, occ)
    assert 1 <= td <= ts + 1
    # First-touch below 1/ts occupancy.
    if occ * ts < 1.0:
        assert td == 1


@given(st.integers(1, 32), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_no_oversub_threshold_monotone_in_occupancy(ts, a, b):
    lo, hi = min(a, b), max(a, b)
    assert dynamic_threshold_no_oversub(ts, lo) <= \
        dynamic_threshold_no_oversub(ts, hi)


@given(st.integers(1, 32), st.integers(1, 1 << 20),
       st.lists(st.integers(0, 31), min_size=1, max_size=20))
@settings(max_examples=200, deadline=None)
def test_oversub_threshold_formula(ts, p, rs):
    r = np.array(rs)
    td = dynamic_thresholds_oversub(ts, r, p)
    assert np.array_equal(td, ts * (r + 1) * p)
    assert np.all(td >= ts * p)


@given(st.integers(1, 32), st.integers(1, 64), st.floats(0.0, 1.0),
       st.lists(st.integers(0, 31), min_size=1, max_size=20))
@settings(max_examples=200, deadline=None)
def test_eq1_kernel_matches_the_validated_branches(ts, p, occ, rs):
    """The driver's per-wave kernel computes both Equation-1 branches
    exactly as their validated forms do."""
    r = np.array(rs, dtype=np.int64)
    assert np.array_equal(eq1_thresholds(ts, p, True, occ, r.size, r),
                          dynamic_thresholds_oversub(ts, r, p))
    td = dynamic_threshold_no_oversub(ts, occ)
    assert np.array_equal(eq1_thresholds(ts, p, False, occ, r.size),
                          np.full(r.size, td))


@given(st.integers(1, 16), st.integers(0, 31),
       st.integers(1, 512), st.integers(1, 512))
@settings(max_examples=200, deadline=None)
def test_oversub_threshold_monotone_in_penalty(ts, r, p1, p2):
    lo, hi = min(p1, p2), max(p1, p2)
    td_lo = dynamic_thresholds_oversub(ts, np.array([r]), lo)[0]
    td_hi = dynamic_thresholds_oversub(ts, np.array([r]), hi)[0]
    assert td_lo <= td_hi
