"""Bit-identity guarantees of the streaming telemetry plane.

The live plane's contract extends the serving layer's purity contract:

* the telemetry hub (windows and default alert rules) runs in every
  session, and an SLO config must not perturb the simulation -- every
  simulated quantity in the result is bit-identical to a run without
  one;
* with ``live_admission`` off (the default) the degradation ladder
  never reads live signals;
* with ``live_admission`` on, runs are still pure functions of the
  config: repeats agree bit-for-bit, including the alert transcript.
"""

import json

import pytest

from repro.config import ServeConfig
from repro.obs import Observability, RingBufferSink
from repro.obs.live import SloConfig
from repro.serve import ServeSession

#: Hot enough that windows fill, tenants queue, and the SLO budget
#: burns -- telemetry with nothing to report would test nothing.
BASE = dict(tenants=8, arrival_rate=2000.0, capacity_mb=24,
            queue_depth=2, throttle_watermark=1.0, admit_watermark=1.6,
            shed_watermark=2.0)

SLO = SloConfig(p99_latency_us=300.0, latency_attainment=0.95,
                max_shed_rate=0.1, min_throughput=1e5)

#: Result keys produced by the telemetry plane itself; everything else
#: must be bit-identical with or without an SLO.
TELEMETRY_KEYS = ("slo_violations", "alerts_fired")


def run_dict(seed, live=False, slo=None, obs=None, threshold=0.05):
    cfg = ServeConfig(seed=seed, live_admission=live,
                      live_thrash_threshold=threshold, **BASE)
    return ServeSession(cfg, obs=obs, slo=slo).run().as_dict()


def core(d):
    """The simulated portion of a result dict (telemetry rollups cut)."""
    return {k: v for k, v in d.items() if k not in TELEMETRY_KEYS}


class TestTelemetryOffIsInvisible:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_slo_engine_does_not_perturb_the_simulation(self, seed):
        bare = run_dict(seed)
        obs = Observability()
        obs.bus.attach(RingBufferSink(capacity=4096))
        with_slo = run_dict(seed, slo=SLO, obs=obs)
        assert core(bare) == core(with_slo)
        assert json.dumps(core(bare), sort_keys=True) == \
            json.dumps(core(with_slo), sort_keys=True)
        # ... and the telemetry plane did actually observe something.
        kinds = {type(ev).__name__ for ev in obs.bus.sinks[0].events}
        assert "TelemetryWindow" in kinds

    def test_live_admission_off_is_bit_identical(self):
        """With the flag off (the default) the schedule never reads live
        signals, so an SLO changes no simulated quantity."""
        baseline = run_dict(3)
        off = run_dict(3, live=False, slo=SLO)
        assert core(baseline) == core(off)


class TestLiveAdmissionDeterminism:
    @pytest.mark.parametrize("seed", [0, 5])
    def test_live_repeats_are_bit_identical(self, seed):
        a = run_dict(seed, live=True, slo=SLO)
        b = run_dict(seed, live=True, slo=SLO)
        assert a == b
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_transcripts_repeat_bit_identically(self):
        """The ordered alert/SLO event stream is a pure function of the
        config, and it does report violations."""
        def transcript():
            obs = Observability()
            ring = RingBufferSink(capacity=8192)
            obs.bus.attach(ring)
            run_dict(1, live=True, slo=SLO, obs=obs)
            return [ev.as_dict() for ev in ring.events
                    if ev.kind in ("alert_fired", "slo_violation",
                                   "slo_attainment", "telemetry_window")]

        first = transcript()
        assert first == transcript()
        assert any(ev["event"] == "slo_violation" for ev in first)

    def test_live_admission_can_change_the_schedule(self):
        """Sanity: the flag is actually consulted (not dead code)."""
        off = run_dict(1, live=False, slo=SLO)
        on = run_dict(1, live=True, slo=SLO, threshold=0.01)
        assert off != on
