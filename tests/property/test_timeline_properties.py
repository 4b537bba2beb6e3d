"""Timeline export properties: every recorder state yields a valid trace.

The Chrome Trace Event Format contract (:func:`validate_trace`) must
hold no matter how spans nest, how driver events interleave, or how the
host clock misbehaves -- a trace Perfetto refuses to load is worse than
no trace.  These properties drive the recorders through randomized
operation sequences with an injected (possibly non-monotonic) clock and
assert the exported trace always validates cleanly, and that the span
recorder's self times partition its root spans' wall time.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.obs.events import (
    CounterHalving,
    Eviction,
    FaultRetry,
    MigrationDecision,
    PrefetchExpand,
    RunMeta,
)
from repro.obs.profiling import WAVE_SPAN, SpanRecorder
from repro.obs.timeline import TimelineRecorder, TimelineSink, validate_trace

names = st.sampled_from(["wave", "migrate", "evict", "prefetch", "fault"])

#: One recorder operation: (op, name) pairs interpreted against a stack.
operations = st.lists(
    st.tuples(st.sampled_from(["begin", "end", "instant", "frame"]), names),
    max_size=60)

#: Clock increments, including negative hiccups the recorder must clamp.
deltas = st.lists(st.floats(-0.5, 0.5, allow_nan=False), max_size=80)


def _fake_clock(increments):
    """A perf_counter stand-in stepping through ``increments``."""
    state = {"t": 100.0, "i": 0}

    def clock():
        if state["i"] < len(increments):
            state["t"] += increments[state["i"]]
            state["i"] += 1
        return state["t"]

    return clock


@given(operations, deltas)
@settings(max_examples=100, deadline=None)
def test_arbitrary_operations_yield_valid_trace(ops, increments):
    rec = TimelineRecorder(time_fn=_fake_clock(increments))
    stack = []
    for op, name in ops:
        if op == "begin":
            rec.begin(name)
            stack.append(name)
        elif op == "end":
            if stack:  # the recorder API is balanced by construction
                rec.end(stack.pop())
        elif op == "instant":
            rec.instant(name, {"block": 1})
        else:
            rec.frame()
    while stack:
        rec.end(stack.pop())
    trace = rec.trace()
    assert validate_trace(trace) == []
    # the trace survives a JSON round trip unchanged
    assert validate_trace(json.loads(json.dumps(trace))) == []


@given(st.lists(st.integers(0, 4), max_size=30), deltas)
@settings(max_examples=60, deadline=None)
def test_profiler_spans_nest_cleanly(depths, increments):
    rec = TimelineRecorder(time_fn=_fake_clock(increments))
    prof = SpanRecorder(rec)

    def nest(depth):
        if depth <= 0:
            return
        prof.enter(f"level{depth}")
        nest(depth - 1)
        prof.exit()

    for depth in depths:
        prof.enter(WAVE_SPAN)
        nest(depth)
        prof.exit()
    assert validate_trace(rec.trace()) == []
    assert rec.waves == len(depths)  # every wave span marks a frame
    if depths:
        assert prof.spans[WAVE_SPAN][1] == len(depths)


span_names = st.sampled_from([WAVE_SPAN, "migrate_drain", "uvm.eviction",
                              "uvm.batch"])

#: A span tree: ``(name, children)``.
span_trees = st.recursive(
    st.tuples(span_names, st.just(())),
    lambda kids: st.tuples(span_names, st.lists(kids, max_size=3).map(tuple)),
    max_leaves=20)


def _spans(tree):
    """Every span of ``tree``, the root first."""
    name, kids = tree
    yield name
    for kid in kids:
        yield from _spans(kid)


@given(st.lists(span_trees, max_size=4),
       st.lists(st.integers(0, 5), min_size=1, max_size=40), deltas)
@settings(max_examples=100, deadline=None)
def test_self_times_partition_the_root_wall_time(roots, ticks, hiccups):
    """Self times are non-negative and add up to the roots' wall time;
    the same spans make a valid trace with one frame per wave span."""
    reads = []

    def clock():
        # Whole-second steps keep the float sums exact.
        step = float(ticks[len(reads) % len(ticks)])
        reads.append((reads[-1] if reads else 0.0) + step)
        return reads[-1]

    rec = TimelineRecorder(time_fn=_fake_clock(hiccups))
    prof = SpanRecorder(rec, clock=clock)

    def run(tree):
        name, kids = tree
        prof.enter(name)
        for kid in kids:
            run(kid)
        prof.exit()

    wall = 0.0
    for tree in roots:
        first = len(reads)
        run(tree)
        wall += reads[-1] - reads[first]

    assert all(sec >= 0.0 for sec, _ in prof.spans.values())
    assert sum(sec for sec, _ in prof.spans.values()) == prof.root_s == wall
    names = [name for tree in roots for name in _spans(tree)]
    assert {name: calls for name, (_, calls) in prof.spans.items()} == {
        name: names.count(name) for name in set(names)}
    assert validate_trace(rec.trace()) == []
    assert rec.waves == names.count(WAVE_SPAN)


_events = st.one_of(
    st.builds(MigrationDecision, wave=st.integers(0, 9),
              block=st.integers(0, 99), threshold=st.integers(1, 64),
              counter=st.integers(0, 64), accesses=st.integers(0, 64),
              migrated=st.booleans()),
    st.builds(Eviction, wave=st.integers(0, 9), chunk=st.integers(0, 9),
              blocks=st.integers(1, 16), dirty_blocks=st.integers(0, 16),
              whole_chunk=st.booleans()),
    st.builds(FaultRetry, wave=st.integers(0, 9), block=st.integers(0, 99),
              failures=st.integers(1, 4), degraded=st.booleans()),
    st.builds(PrefetchExpand, wave=st.integers(0, 9),
              chunk=st.integers(0, 9), fault_block=st.integers(0, 99),
              blocks=st.integers(1, 16)),
    st.builds(CounterHalving, wave=st.integers(0, 9),
              field=st.sampled_from(["counter", "residency"]),
              halvings=st.integers(1, 4)),
    st.builds(RunMeta, workload=st.just("ra"), policy=st.just("adaptive"),
              seed=st.integers(0, 9), total_blocks=st.integers(1, 64),
              capacity_blocks=st.integers(1, 64),
              allocations=st.just((("ra.table", 0, 64),))),
)


@given(st.lists(_events, max_size=40), deltas)
@settings(max_examples=60, deadline=None)
def test_sink_maps_any_event_stream_to_a_valid_trace(events, increments):
    rec = TimelineRecorder(time_fn=_fake_clock(increments))
    sink = TimelineSink(rec)
    for event in events:
        sink.write(event)
    sink.close()
    trace = rec.trace()
    assert validate_trace(trace) == []
    if any(type(e) is RunMeta for e in events):
        assert trace["otherData"]["workload"] == "ra"


class TestValidator:
    """validate_trace must actually reject malformed traces."""

    def test_rejects_non_monotonic_track(self):
        trace = {"traceEvents": [
            {"ph": "i", "pid": 1, "tid": 1, "name": "a", "ts": 10, "s": "t"},
            {"ph": "i", "pid": 1, "tid": 1, "name": "b", "ts": 5, "s": "t"},
        ]}
        assert any("decreases" in p for p in validate_trace(trace))

    def test_independent_tracks_do_not_interfere(self):
        trace = {"traceEvents": [
            {"ph": "i", "pid": 1, "tid": 1, "name": "a", "ts": 10, "s": "t"},
            {"ph": "i", "pid": 1, "tid": 2, "name": "b", "ts": 5, "s": "t"},
        ]}
        assert validate_trace(trace) == []

    def test_rejects_unmatched_pairs(self):
        dangling_e = {"traceEvents": [
            {"ph": "E", "pid": 1, "tid": 1, "name": "a", "ts": 1}]}
        unclosed_b = {"traceEvents": [
            {"ph": "B", "pid": 1, "tid": 1, "name": "a", "ts": 1}]}
        crossed = {"traceEvents": [
            {"ph": "B", "pid": 1, "tid": 1, "name": "a", "ts": 1},
            {"ph": "B", "pid": 1, "tid": 1, "name": "b", "ts": 2},
            {"ph": "E", "pid": 1, "tid": 1, "name": "a", "ts": 3},
        ]}
        assert any("without matching B" in p
                   for p in validate_trace(dangling_e))
        assert any("unclosed" in p for p in validate_trace(unclosed_b))
        assert any("closes B" in p for p in validate_trace(crossed))

    def test_rejects_bad_envelope_and_ts(self):
        assert validate_trace([]) != []
        assert validate_trace({"traceEvents": 3}) != []
        bad_ts = {"traceEvents": [
            {"ph": "i", "pid": 1, "tid": 1, "name": "a", "ts": -1}]}
        assert any("bad ts" in p for p in validate_trace(bad_ts))
