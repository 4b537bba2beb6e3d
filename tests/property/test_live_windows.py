"""Algebraic properties of the live-telemetry window primitives.

The multi-window burn-rate machinery re-merges the same closed windows
at different horizons, so :meth:`WindowAggregate.merge` must be
associative and commutative with the empty aggregate as identity --
otherwise fast/slow evaluations of the same data could disagree.
Integer-valued floats keep the sum checks exact (float addition is not
associative in general; the telemetry plane only ever merges one fixed
left fold, which :func:`merge_all` pins).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.live import Ewma, TumblingWindow, WindowAggregate

#: Integer-valued floats: exact under addition, so merge-order checks
#: compare equal rather than approximately.
values = st.lists(
    st.tuples(st.integers(0, 10_000).map(float), st.booleans()),
    max_size=30)


def build(obs) -> WindowAggregate:
    agg = WindowAggregate()
    for value, bad in obs:
        agg.observe(value, bad=bad)
    return agg


def merge_all(aggregates) -> WindowAggregate:
    """The left fold of ``merge`` from the empty aggregate, oldest first."""
    out = WindowAggregate()
    for agg in aggregates:
        out = out.merge(agg)
    return out


def recent(win: TumblingWindow, n: int) -> list:
    """Copies of the most recent ``n`` closed aggregates, oldest first."""
    return [agg for _, agg in list(win.closed)[-n:]] if n > 0 else []


class TestMergeAlgebra:
    @given(a=values, b=values, c=values)
    @settings(max_examples=100, deadline=None)
    def test_merge_is_associative(self, a, b, c):
        x, y, z = build(a), build(b), build(c)
        assert x.merge(y).merge(z) == x.merge(y.merge(z))

    @given(a=values, b=values)
    @settings(max_examples=100, deadline=None)
    def test_merge_is_commutative(self, a, b):
        x, y = build(a), build(b)
        assert x.merge(y) == y.merge(x)

    @given(a=values)
    @settings(max_examples=60, deadline=None)
    def test_empty_is_identity(self, a):
        x = build(a)
        empty = WindowAggregate()
        assert x.merge(empty) == x
        assert empty.merge(x) == x

    @given(a=values, b=values, c=values)
    @settings(max_examples=60, deadline=None)
    def test_merge_all_equals_pairwise(self, a, b, c):
        x, y, z = build(a), build(b), build(c)
        assert merge_all([x, y, z]) == x.merge(y).merge(z)

    @given(a=values)
    @settings(max_examples=60, deadline=None)
    def test_merge_leaves_inputs_untouched(self, a):
        x = build(a)
        before = x.as_dict()
        x.merge(build(a))
        assert x.as_dict() == before


class TestTumblingWindow:
    @given(seed_obs=st.lists(
        st.tuples(st.floats(0.0, 1e6, allow_nan=False),
                  st.integers(0, 1000).map(float)),
        min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_replay_is_bit_identical(self, seed_obs):
        """Same observation sequence -> same closed-window sequence."""
        seed_obs.sort(key=lambda o: o[0])  # monotonic simulated clock

        def run():
            win = TumblingWindow(100.0, keep=16)
            out = []
            for at, value in seed_obs:
                win.observe(at, value)
                out.extend(win.drain())
            win.roll(seed_obs[-1][0] + 200.0)
            out.extend(win.drain())
            return [(start, agg.as_dict()) for start, agg in out]

        assert run() == run()

    def test_observations_land_in_their_window(self):
        win = TumblingWindow(100.0)
        win.observe(50.0, 1.0)
        win.observe(99.9, 2.0)
        win.observe(100.0, 3.0)  # next window; closes [0, 100)
        (start, agg), = win.drain()
        assert start == 0.0 and agg.count == 2 and agg.total == 3.0
        assert win.open_start_us == 100.0

    def test_gaps_materialize_empty_windows(self):
        win = TumblingWindow(100.0, keep=8)
        win.observe(10.0, 1.0)
        win.roll(450.0)  # windows 0..3 close; 1..3 are empty
        drained = win.drain()
        assert [start for start, _ in drained] == [0.0, 100.0, 200.0, 300.0]
        assert [agg.count for _, agg in drained] == [1, 0, 0, 0]

    def test_huge_gap_is_capped_at_keep(self):
        win = TumblingWindow(100.0, keep=4)
        win.observe(10.0, 1.0)
        win.roll(1e9)  # ~1e7 windows elapsed; only keep materialize
        drained = win.drain()
        assert len(drained) == 4
        assert len(win.closed) == 4
        assert all(agg.count == 0 for _, agg in drained)

    def test_merged_horizon(self):
        win = TumblingWindow(10.0, keep=16)
        for i in range(5):
            win.observe(i * 10.0, float(i), bad=(i % 2 == 0))
        win.roll(50.0)
        fast = win.merged(2)
        assert fast.count == 2 and fast.total == 3.0 + 4.0
        slow = win.merged(5)
        assert slow.count == 5 and slow.bad == 3
        assert win.merged(0).count == 0

    @given(steps=st.lists(
        st.tuples(st.sampled_from([0, 0, 0, 1, 2, 5, 12]),
                  st.floats(-1e6, 1e6, allow_nan=False), st.booleans()),
        max_size=60),
        keep=st.integers(1, 10), tail=st.integers(0, 12))
    @settings(max_examples=100, deadline=None)
    def test_merged_equals_merge_all_of_recent(self, steps, keep, tail):
        """The in-place fold equals ``merge_all`` over a copy of the
        history, field for field, float sums included: streams with
        gaps (empty windows, some past ``keep``), full windows, and
        every horizon from 0 to past ``keep``."""
        win = TumblingWindow(10.0, keep=keep)
        at = 0.0

        def check():
            for n in range(keep + 3):
                assert win.merged(n) == merge_all(recent(win, n))

        for windows_ahead, value, bad in steps:
            at += windows_ahead * 10.0
            win.observe(at, value, bad=bad)
            check()
        win.roll(at + tail * 10.0)
        check()

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            TumblingWindow(0.0)


class TestEwma:
    @given(samples=st.lists(st.floats(-1e6, 1e6, allow_nan=False),
                            max_size=50),
           alpha=st.floats(0.01, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_deterministic(self, samples, alpha):
        """Same sample stream and alpha -> bit-identical value."""
        def run():
            ewma = Ewma(alpha=alpha)
            for s in samples:
                ewma.update(s)
            return ewma.value

        assert run() == run()

    @given(samples=st.lists(st.floats(0.0, 1e6, allow_nan=False),
                            min_size=1, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_stays_within_sample_hull(self, samples):
        # A one-ulp tolerance: alpha*x + (1-alpha)*x may round just
        # past x itself.
        ewma = Ewma(alpha=0.3)
        for s in samples:
            ewma.update(s)
        slack = 1e-9 * max(abs(min(samples)), abs(max(samples)), 1.0)
        assert min(samples) - slack <= ewma.value <= max(samples) + slack

    def test_none_until_first_update(self):
        ewma = Ewma()
        assert ewma.value is None
        assert ewma.get(default=7.0) == 7.0
        ewma.update(4.0)
        assert ewma.value == 4.0
        assert ewma.get() == 4.0

    def test_recurrence(self):
        ewma = Ewma(alpha=0.5)
        ewma.update(10.0)
        assert ewma.update(20.0) == 15.0
        assert ewma.update(15.0) == 15.0

    def test_rejects_bad_alpha(self):
        for alpha in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                Ewma(alpha=alpha)
