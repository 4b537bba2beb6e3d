"""Metrics from pass reports, and the host-speed sampler."""

import pytest

import hostspeed
import layers
import run
import suite


def report(cpu: float, traced: bool = False, speed: float = 0.5) -> dict:
    """A pass that spent ``cpu`` CPU seconds, a tenth of them in set-up."""
    n = len(layers.LAYERS)
    sim = dict.fromkeys(run.SIM_PER_LAYER, 1) | {"migrated_blocks": 1}
    return {"traced": traced, "speed": speed, "setup_s": cpu / 10,
            "timed_s": cpu * 9 / 10, "wall_s": cpu, "rss_mb": cpu,
            "accesses": 900, "waves": 4, "fast_path_waves": 1, "sim": sim,
            "serve": None, "log_errors": [],
            "trace": {"self_s": [cpu / n] * n, "calls": [1] * n,
                      "top_level_s": cpu, "depth": 0}}


def test_end_to_end_uses_untraced_passes_in_reference_seconds():
    passes = [report(10.0), report(30.0, traced=True), report(20.0),
              report(40.0)]
    metrics = run.end_to_end(passes)
    # Median over 10, 20 and 40 CPU seconds at half speed: 20 * 0.5.
    assert metrics["accesses_per_s"]["value"] == pytest.approx(900 / 9.0)
    assert metrics["setup_s"]["value"] == pytest.approx(1.0)
    assert metrics["peak_rss_mb"]["value"] == 20.0


def test_tracing_overhead_leaves_out_the_cold_first_pass():
    passes = [report(20.0), report(12.0, traced=True), report(10.0)]
    metrics = run.per_layer(passes)
    assert metrics["tracing.overhead_pct"]["value"] == pytest.approx(20.0)
    # With one untraced pass, that pass is the baseline.
    only = run.per_layer(passes[:2])
    assert only["tracing.overhead_pct"]["value"] == pytest.approx(-40.0)


def test_a_traced_pass_whose_spans_do_not_add_up_is_a_problem():
    good = report(12.0, traced=True)
    bad = report(12.0, traced=True)
    bad["trace"]["self_s"][0] += 1.0
    assert run.trace_problems([report(10.0), good]) == []
    assert run.trace_problems([report(10.0), bad]) != []


def test_the_serve_tenant_mix_is_balanced_and_fixed_by_the_seed():
    from collections import Counter

    from repro.serve.traffic import generate_arrivals

    session_seeds = set()
    for seed in range(4):
        config = suite.serve_config(seed)
        assert suite.serve_config(seed) == config
        counts = Counter(a.workload for a in generate_arrivals(config))
        assert set(counts) == set(suite.SERVE.workload_mix)
        assert (max(counts.values()) - min(counts.values())
                <= suite.MIX_TOLERANCE)
        session_seeds.add(config.seed)
    assert len(session_seeds) == 4


def test_the_sampler_starts_at_the_first_tick_and_counts_its_own_time():
    sampler = hostspeed.Sampler(interval_s=0.0)
    sampler.tick()
    assert sampler.samples == [] and sampler.speed is None
    sampler.tick()
    sampler.tick()
    assert len(sampler.samples) == 2
    assert sampler.spent_s >= sum(sampler.samples) > 0
    assert sampler.speed == pytest.approx(
        hostspeed.REFERENCE_S / (sum(sampler.samples) / 2))
