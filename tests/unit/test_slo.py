"""Unit tests for burn-rate math and the SLO engine state machines."""

import math

import pytest

from repro.obs.live.slo import (
    LATENCY,
    SERVICE,
    SHED_RATE,
    THROUGHPUT,
    SloConfig,
    SloEngine,
    burn_rate,
)
from repro.obs.live.windows import WindowAggregate


def agg(count=0, bad=0, total=0.0, vmax=None):
    a = WindowAggregate()
    for i in range(count):
        value = total / count if count else 0.0
        a.observe(value, bad=i < bad)
    if vmax is not None and count:
        a.vmax = vmax
    return a


class TestBurnRate:
    def test_empty_window_burns_nothing(self):
        assert burn_rate(0, 0, 0.05) == 0.0
        assert burn_rate(0, 100, 0.05) == 0.0

    def test_zero_budget_burns_infinitely(self):
        assert burn_rate(1, 100, 0.0) == math.inf

    def test_exact_budget_spend_is_one(self):
        # 5 bad of 100 with a 5% budget: burning exactly on budget.
        assert burn_rate(5, 100, 0.05) == pytest.approx(1.0)

    def test_overspend_scales_linearly(self):
        assert burn_rate(10, 100, 0.05) == pytest.approx(2.0)
        assert burn_rate(20, 100, 0.05) == pytest.approx(4.0)

    def test_all_bad(self):
        assert burn_rate(100, 100, 0.01) == pytest.approx(100.0)


class TestSloConfig:
    def test_disabled_by_default(self):
        cfg = SloConfig()
        assert not cfg.enabled
        cfg.validate()  # all-defaults config is valid, just inert

    def test_any_objective_enables(self):
        assert SloConfig(p99_latency_us=100.0).enabled
        assert SloConfig(max_shed_rate=0.1).enabled
        assert SloConfig(min_throughput=1e5).enabled

    @pytest.mark.parametrize("kwargs", [
        dict(p99_latency_us=-1.0),
        dict(latency_attainment=0.0),
        dict(latency_attainment=1.0),
        dict(max_shed_rate=-0.1),
        dict(max_shed_rate=1.0),
        dict(min_throughput=0.0),
        dict(fast_windows=0),
        dict(fast_windows=5, slow_windows=3),
        dict(burn_threshold=0.0),
    ])
    def test_validate_rejects(self, kwargs):
        with pytest.raises(ValueError):
            SloConfig(**kwargs).validate()


class TestLatencyEvaluation:
    def engine(self, **kwargs):
        events = []
        cfg = SloConfig(p99_latency_us=100.0, latency_attainment=0.9,
                        burn_threshold=2.0, **kwargs)
        return SloEngine(cfg, emit=events.append), events

    def test_requires_both_windows_burning(self):
        """The multi-window AND rule: fast alone does not violate."""
        engine, events = self.engine()
        hot = agg(count=10, bad=10)   # burn = (10/10)/0.1 = 10
        cold = agg(count=10, bad=0)   # burn = 0
        engine.evaluate_latency(0, 100.0, hot, cold)
        assert events == []
        engine.evaluate_latency(0, 200.0, cold, hot)
        assert events == []
        engine.evaluate_latency(0, 300.0, hot, hot)
        assert len(events) == 1
        assert events[0].kind == "slo_violation"
        assert events[0].objective == LATENCY
        assert events[0].tenant == 0

    def test_emits_on_transition_only(self):
        engine, events = self.engine()
        hot = agg(count=10, bad=10)
        for at in (100.0, 200.0, 300.0):
            engine.evaluate_latency(0, at, hot, hot)
        assert len(events) == 1  # still violating, no re-emission
        cold = agg(count=10, bad=0)
        engine.evaluate_latency(0, 400.0, cold, cold)  # recovers
        engine.evaluate_latency(0, 500.0, hot, hot)    # violates again
        assert len(events) == 2
        assert engine.total_violations() == 2
        assert [e.tenant for e in events] == [0, 0]

    def test_tenants_are_independent(self):
        engine, events = self.engine()
        hot = agg(count=10, bad=10)
        engine.evaluate_latency(0, 100.0, hot, hot)
        engine.evaluate_latency(1, 100.0, agg(count=10), agg(count=10))
        assert [ev.tenant for ev in events] == [0]

    def test_disabled_objective_is_inert(self):
        events = []
        engine = SloEngine(SloConfig(max_shed_rate=0.5),
                           emit=events.append)
        engine.evaluate_latency(0, 100.0, agg(count=10, bad=10),
                                agg(count=10, bad=10))
        assert events == []


class TestShedEvaluation:
    def test_zero_budget_any_shed_violates(self):
        events = []
        engine = SloEngine(SloConfig(max_shed_rate=0.0),
                           emit=events.append)
        shed = agg(count=10, bad=1)
        engine.evaluate_shed(100.0, shed, shed)
        assert len(events) == 1
        assert events[0].tenant == SERVICE
        assert events[0].objective == SHED_RATE

    def test_within_budget_is_clean(self):
        events = []
        engine = SloEngine(SloConfig(max_shed_rate=0.5),
                           emit=events.append)
        ok = agg(count=10, bad=2)  # 20% shed, burn 0.4 < 2.0
        engine.evaluate_shed(100.0, ok, ok)
        assert events == []


class TestThroughputEvaluation:
    def test_floor_breach_on_both_horizons(self):
        events = []
        engine = SloEngine(SloConfig(min_throughput=1e6),
                           emit=events.append)
        slow_agg = WindowAggregate()
        slow_agg.observe(100.0)  # 100 accesses over 1ms = 1e5/s
        engine.evaluate_throughput(0, 100.0, slow_agg, slow_agg,
                                   fast_span_us=1000.0,
                                   slow_span_us=1000.0)
        assert len(events) == 1
        assert events[0].objective == THROUGHPUT

    def test_meeting_the_floor_is_clean_and_counts_good(self):
        engine = SloEngine(SloConfig(min_throughput=1e3))
        fast = WindowAggregate()
        fast.observe(5000.0)  # 5000 accesses over 1ms = 5e6/s
        engine.evaluate_throughput(0, 100.0, fast, fast,
                                   fast_span_us=1000.0,
                                   slow_span_us=1000.0)
        assert engine.attainment_of(0) == 1.0


class TestAttainment:
    def test_cumulative_latency_attainment(self):
        engine = SloEngine(SloConfig(p99_latency_us=100.0,
                                     latency_attainment=0.9))
        engine.record_latency_window(0, agg(count=8, bad=0))
        engine.record_latency_window(0, agg(count=2, bad=2))
        assert engine.attainment_of(0) == pytest.approx(0.8)

    def test_worst_objective_wins(self):
        engine = SloEngine(SloConfig(p99_latency_us=100.0,
                                     min_throughput=1e9))
        engine.record_latency_window(0, agg(count=10, bad=0))  # 1.0
        starved = WindowAggregate()
        starved.observe(1.0)
        engine.evaluate_throughput(0, 50.0, starved, starved,
                                   fast_span_us=1000.0,
                                   slow_span_us=1000.0)  # 0.0
        assert engine.attainment_of(0) == 0.0

    def test_no_data_is_none(self):
        engine = SloEngine(SloConfig(p99_latency_us=100.0))
        assert engine.attainment_of(5) is None

    def test_finish_tenant_emits_verdicts(self):
        events = []
        engine = SloEngine(SloConfig(p99_latency_us=100.0,
                                     latency_attainment=0.9),
                           emit=events.append)
        engine.record_latency_window(0, agg(count=20, bad=1))
        engine.finish_tenant(0, 999.0)
        (verdict,) = events
        assert verdict.kind == "slo_attainment"
        assert verdict.attainment == pytest.approx(0.95)
        assert verdict.target == 0.9
        assert verdict.met

    def test_finish_emits_service_verdicts(self):
        events = []
        engine = SloEngine(SloConfig(max_shed_rate=0.1),
                           emit=events.append)
        engine.record_shed_window(agg(count=10, bad=5))
        engine.finish(1000.0)
        (verdict,) = events
        assert verdict.tenant == SERVICE
        assert not verdict.met
