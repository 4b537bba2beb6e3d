"""Unit tests for the device-occupancy series."""

from repro import MigrationPolicy, SimulationConfig, Simulator
from repro.obs import MetricsRegistry, Observability
from repro.workloads import make_workload

from tests.conftest import StreamWorkload


def _occupancy_run(cfg, workload, oversubscription):
    """Run with a metrics registry; returns the result and the
    ``device.occupancy`` series the engine samples after every wave."""
    obs = Observability(metrics=MetricsRegistry())
    result = Simulator(cfg).run(workload, oversubscription=oversubscription,
                                obs=obs)
    return result, obs.metrics.series("device.occupancy").points


class TestEndToEndTimeline:
    def test_simulation_produces_samples(self):
        _, points = _occupancy_run(SimulationConfig(seed=0),
                                   StreamWorkload(size_mb=4), 1.0)
        assert len(points) > 0
        # Cycles are nondecreasing; occupancy within [0, 1].
        cycles = [cycle for cycle, _ in points]
        assert cycles == sorted(cycles)
        assert all(0.0 <= occ <= 1.0 for _, occ in points)

    def test_occupancy_saturates_under_oversubscription(self):
        cfg = SimulationConfig(seed=0).with_policy(MigrationPolicy.DISABLED)
        r, points = _occupancy_run(cfg, make_workload("ra", "tiny"), 1.25)
        # 2MB-granular eviction frees whole chunks, so the *peak* hits
        # capacity even though individual samples dip below it.
        assert max(occ for _, occ in points) > 0.95
        assert r.events.thrash_migrations > 0
