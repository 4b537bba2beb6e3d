"""Unit tests for the open-loop arrival-trace generator."""

import pytest

from repro.config import ServeConfig
from repro.serve import Arrival, generate_arrivals


def cfg(**kw):
    return ServeConfig(**{"tenants": 8, "seed": 0, **kw})


class TestGenerateArrivals:
    def test_tenant_ids_are_dense_and_ordered(self):
        trace = generate_arrivals(cfg())
        assert [a.tenant for a in trace] == list(range(len(trace)))

    def test_times_nondecreasing_from_zero(self):
        trace = generate_arrivals(cfg(tenants=32))
        times = [a.at_us for a in trace]
        assert all(t >= 0.0 for t in times)
        assert times == sorted(times)

    def test_workloads_drawn_from_mix(self):
        mix = ("ra", "bfs")
        trace = generate_arrivals(cfg(tenants=64, workload_mix=mix))
        assert {a.workload for a in trace} <= set(mix)

    def test_single_item_mix_is_constant(self):
        trace = generate_arrivals(cfg(workload_mix=("sssp",)))
        assert {a.workload for a in trace} == {"sssp"}

    def test_deterministic_per_seed(self):
        assert generate_arrivals(cfg(seed=7)) == generate_arrivals(cfg(seed=7))

    def test_seed_changes_trace(self):
        assert generate_arrivals(cfg(seed=1)) != generate_arrivals(cfg(seed=2))

    def test_higher_rate_compresses_horizon(self):
        slow = generate_arrivals(cfg(tenants=32, arrival_rate=100.0))
        fast = generate_arrivals(cfg(tenants=32, arrival_rate=10000.0))
        assert fast[-1].at_us < slow[-1].at_us

    def test_bursty_differs_from_poisson(self):
        poisson = generate_arrivals(cfg(tenants=32, process="poisson"))
        bursty = generate_arrivals(cfg(tenants=32, process="bursty"))
        assert [a.at_us for a in poisson] != [a.at_us for a in bursty]

    def test_bursty_is_deterministic(self):
        a = generate_arrivals(cfg(tenants=32, process="bursty", seed=5))
        b = generate_arrivals(cfg(tenants=32, process="bursty", seed=5))
        assert a == b

    def test_arrival_is_frozen(self):
        a = generate_arrivals(cfg())[0]
        assert isinstance(a, Arrival)
        with pytest.raises(AttributeError):
            a.at_us = 0.0

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            generate_arrivals(cfg(arrival_rate=0.0))
        with pytest.raises(ValueError):
            generate_arrivals(cfg(process="sawtooth"))
