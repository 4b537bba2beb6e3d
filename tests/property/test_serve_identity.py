"""Determinism properties of the serving layer.

The serving contract: a serve run is a *pure function* of
``(ServeConfig, SimulationConfig)``.  Repeats are bit-identical, and
admission decisions are a pure function of ``(seed, arrival trace,
capacity)``.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ServeConfig
from repro.serve import AdmissionController, ServeSession, generate_arrivals

#: Small but non-trivial: overlapping tenants, queueing, throttling.
BASE = dict(tenants=5, arrival_rate=1500.0, capacity_mb=24,
            queue_depth=2, throttle_watermark=1.1, admit_watermark=1.6,
            shed_watermark=2.0)


def run_dict(seed):
    return ServeSession(ServeConfig(seed=seed, **BASE)).run().as_dict()


class TestBitIdentity:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_repeats_are_bit_identical(self, seed):
        a, b = run_dict(seed), run_dict(seed)
        assert a == b
        # Strictly bit-identical through JSON too (float encoding).
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_seeds_differ(self):
        assert run_dict(0) != run_dict(3)


class TestArrivalTraceProperties:
    @given(seed=st.integers(0, 2**16), tenants=st.integers(1, 24),
           process=st.sampled_from(["poisson", "bursty"]))
    @settings(max_examples=60, deadline=None)
    def test_trace_well_formed_and_deterministic(self, seed, tenants,
                                                 process):
        cfg = ServeConfig(seed=seed, tenants=tenants, process=process)
        trace = generate_arrivals(cfg)
        assert trace == generate_arrivals(cfg)
        assert len(trace) == tenants
        times = [a.at_us for a in trace]
        assert times == sorted(times) and times[0] >= 0.0
        assert all(a.workload in cfg.workload_mix for a in trace)

    @given(seed=st.integers(0, 2**16),
           horizon_ms=st.floats(0.5, 50.0))
    @settings(max_examples=40, deadline=None)
    def test_duration_cut_is_a_prefix(self, seed, horizon_ms):
        full = generate_arrivals(ServeConfig(seed=seed, tenants=24))
        cut = generate_arrivals(ServeConfig(seed=seed, tenants=24,
                                            duration_ms=horizon_ms))
        assert list(cut) == [a for a in full
                             if a.at_us <= horizon_ms * 1e3][:len(cut)]
        assert all(a.at_us <= horizon_ms * 1e3 for a in cut)


class TestDecisionPurity:
    @given(seed=st.integers(0, 2**10),
           capacity=st.integers(100, 1000),
           footprints=st.lists(st.integers(10, 800), min_size=1,
                               max_size=16))
    @settings(max_examples=60, deadline=None)
    def test_controller_is_a_pure_function(self, seed, capacity,
                                           footprints):
        """Replaying one offer sequence reproduces every verdict."""
        def replay():
            c = AdmissionController(capacity, 1.5, 2.5, queue_depth=3)
            for i, blocks in enumerate(footprints):
                c.offer(i, blocks, float(i))
                if i % 3 == 2 and c.live_blocks:
                    c.release(c.live_blocks)
                    while c.pop_admittable():
                        pass
            return [dataclasses.astuple(d) for d in c.decisions]

        assert replay() == replay()

    @pytest.mark.parametrize("seed", [0, 4])
    def test_session_decisions_reproduce(self, seed):
        """Full-session admission decisions are seed-deterministic."""
        cfg = ServeConfig(seed=seed, **BASE)
        a = ServeSession(cfg).run()
        b = ServeSession(cfg).run()
        assert a.decisions == b.decisions
        assert [t.as_dict() for t in a.tenants] == \
               [t.as_dict() for t in b.tenants]
