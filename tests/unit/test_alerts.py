"""Unit tests for the deterministic alert-rule engine."""

import pytest

from repro.obs.live.alerts import AlertEngine, AlertRule


def engine(rules, events=None):
    emit = events.append if events is not None else None
    return AlertEngine(rules=rules, emit=emit)


class TestRuleValidation:
    def test_rejects_unknown_op(self):
        with pytest.raises(ValueError, match="unknown alert op"):
            AlertRule("r", "m", "==", 1.0)

    def test_rejects_bad_for_ticks(self):
        with pytest.raises(ValueError, match="for_ticks"):
            AlertRule("r", "m", ">", 1.0, for_ticks=0)

    def test_rejects_unknown_scope(self):
        with pytest.raises(ValueError, match="scope"):
            AlertRule("r", "m", ">", 1.0, scope="global")

    def test_rejects_duplicate_names(self):
        rules = (AlertRule("same", "a", ">", 1.0),
                 AlertRule("same", "b", ">", 1.0))
        with pytest.raises(ValueError, match="duplicate"):
            AlertEngine(rules=rules)


class TestEvaluation:
    def test_fires_immediately_with_default_ticks(self):
        events = []
        eng = engine([AlertRule("hot", "m", ">=", 1.0)], events)
        fired = eng.evaluate(10.0, {"m": 2.0})
        assert len(fired) == 1
        assert fired[0].state == "firing"
        assert fired[0].name == "hot" and fired[0].value == 2.0
        assert events == fired
        assert eng.firing() == ["hot"]

    def test_hysteresis_requires_consecutive_breaches(self):
        eng = engine([AlertRule("hot", "m", ">", 1.0, for_ticks=3)])
        assert eng.evaluate(1.0, {"m": 5.0}) == []
        assert eng.evaluate(2.0, {"m": 5.0}) == []
        (fired,) = eng.evaluate(3.0, {"m": 5.0})
        assert fired.state == "firing" and fired.at_us == 3.0

    def test_clean_tick_resets_the_streak(self):
        eng = engine([AlertRule("hot", "m", ">", 1.0, for_ticks=2)])
        eng.evaluate(1.0, {"m": 5.0})
        eng.evaluate(2.0, {"m": 0.0})  # streak broken
        assert eng.evaluate(3.0, {"m": 5.0}) == []
        assert len(eng.evaluate(4.0, {"m": 5.0})) == 1

    def test_resolves_on_first_clean_evaluation(self):
        eng = engine([AlertRule("hot", "m", ">", 1.0)])
        eng.evaluate(1.0, {"m": 5.0})
        (resolved,) = eng.evaluate(2.0, {"m": 0.5})
        assert resolved.state == "resolved"
        assert eng.firing() == []
        # The full firing/resolved history stays in the transcript.
        assert [ev.state for ev in eng.transcript] == ["firing", "resolved"]

    def test_missing_metric_skips_without_state_change(self):
        eng = engine([AlertRule("hot", "m", ">", 1.0, for_ticks=2)])
        eng.evaluate(1.0, {"m": 5.0})
        eng.evaluate(2.0, {"other": 9.0})  # no "m": streak preserved
        (fired,) = eng.evaluate(3.0, {"m": 5.0})
        assert fired.state == "firing"

    def test_rules_evaluate_in_declaration_order(self):
        events = []
        eng = engine([AlertRule("second", "b", ">", 0.0),
                      AlertRule("first", "a", ">", 0.0)], events)
        eng.evaluate(1.0, {"a": 1.0, "b": 1.0})
        # Declaration order, not alphabetical or sample order.
        assert [ev.name for ev in events] == ["second", "first"]

    @pytest.mark.parametrize("op,value,breaches", [
        (">", 1.0, False), (">", 1.1, True),
        (">=", 1.0, True), (">=", 0.9, False),
        ("<", 1.0, False), ("<", 0.9, True),
        ("<=", 1.0, True), ("<=", 1.1, False),
    ])
    def test_comparison_operators(self, op, value, breaches):
        eng = engine([AlertRule("r", "m", op, 1.0)])
        fired = eng.evaluate(1.0, {"m": value})
        assert bool(fired) == breaches


class TestScopes:
    def test_tenant_rules_keep_independent_state(self):
        eng = engine([AlertRule("slow", "lat", ">", 100.0,
                                scope="tenant", for_ticks=2)])
        eng.evaluate(1.0, {"lat": 500.0}, tenant=0)
        eng.evaluate(1.0, {"lat": 500.0}, tenant=1)
        # Each tenant is at streak 1; neither fires yet.
        assert eng.firing() == []
        (fired,) = eng.evaluate(2.0, {"lat": 500.0}, tenant=0)
        assert fired.tenant == 0
        assert [(ev.tenant, ev.state) for ev in eng.transcript] == \
            [(0, "firing")]

    def test_scope_mismatch_skips(self):
        eng = engine([AlertRule("serve_only", "m", ">", 0.0,
                                scope="serve")])
        assert eng.evaluate(1.0, {"m": 5.0}, tenant=3) == []
        assert len(eng.evaluate(1.0, {"m": 5.0}, tenant=-1)) == 1


class TestDeterminism:
    def test_transcript_replays_bit_identically(self):
        samples = [{"m": float(v)} for v in
                   (5, 5, 0, 5, 5, 5, 0, 0, 5, 5) * 4]

        def run():
            eng = engine([AlertRule("hot", "m", ">=", 3.0, for_ticks=2)])
            for i, sample in enumerate(samples):
                eng.evaluate(float(i), sample)
            return [ev.as_dict() for ev in eng.transcript]

        a, b = run(), run()
        assert a == b and a  # identical and non-trivial
