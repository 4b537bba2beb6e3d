"""Unit tests for ``repro diff`` (repro.obs.compare)."""

import json

import pytest

from repro.analysis.checkpoint import encode_config
from repro.config import MigrationPolicy, SimulationConfig
from repro.obs import JsonlSink, Observability
from repro.obs.compare import (
    diff_runs,
    flatten_config,
    metric_delta,
    render_diff,
)
from repro.obs.store import RunManifest, RunStore
from repro.sim.simulator import Simulator
from repro.workloads import make_workload


def _archive(store, seed: int) -> str:
    cfg = SimulationConfig(seed=seed).with_policy(MigrationPolicy.ADAPTIVE)
    manifest = RunManifest.create(
        kind="run", workload="ra", policy="adaptive", scale="tiny",
        seed=seed, oversubscription=1.5, config=encode_config(cfg))
    writer = store.open_run(manifest)
    obs = Observability()
    obs.bus.attach(JsonlSink(writer.events_path))
    result = Simulator(cfg).run(make_workload("ra", scale="tiny"),
                                oversubscription=1.5, obs=obs)
    obs.close()
    return writer.commit(result)


@pytest.fixture(scope="module")
def archived_pair(tmp_path_factory):
    store = RunStore(tmp_path_factory.mktemp("runs"))
    return store, _archive(store, seed=0), _archive(store, seed=1)


class TestMetricDelta:
    def test_within_tolerance_is_same(self):
        d = metric_delta("m", 100.0, 100.5, direction="lower",
                         tolerance=0.01)
        assert not d.significant and d.verdict == "same"

    def test_direction_awareness(self):
        worse = metric_delta("m", 100.0, 120.0, direction="lower")
        better = metric_delta("m", 100.0, 120.0, direction="higher")
        neutral = metric_delta("m", 100.0, 120.0)
        assert worse.verdict == "worse"
        assert better.verdict == "better"
        assert neutral.verdict == "changed"

    def test_zero_baseline(self):
        new = metric_delta("m", 0.0, 5.0)
        flat = metric_delta("m", 0.0, 0.0)
        assert new.pct is None and new.significant
        assert flat.pct == 0.0 and not flat.significant


class TestFlattenConfig:
    def test_nested_paths(self):
        flat = flatten_config({"gpu": {"clock_hz": 1, "sms": 2}, "seed": 3})
        assert flat == {"gpu.clock_hz": 1, "gpu.sms": 2, "seed": 3}


class TestDiffRuns:
    def test_covers_migrations_evictions_and_td(self, archived_pair):
        store, id_a, id_b = archived_pair
        diff = diff_runs(store.load(id_a), store.load(id_b))
        names = {m.name for m in diff.metrics}
        assert {"migrated_blocks", "evicted_blocks", "faults",
                "cycles"} <= names
        assert diff.config_changes["seed"] == (0, 1)
        assert diff.events is not None
        assert diff.events.roundtrips_a["count"] > 0
        # the tiny ra run has one allocation with adaptive decisions
        trajectories = diff.events.trajectories
        assert trajectories and trajectories[0].allocation == "ra.table"
        assert trajectories[0].decisions_a > 0
        assert trajectories[0].td_last_a is not None

    def test_identical_runs_diff_clean(self, archived_pair):
        store, id_a, _ = archived_pair
        diff = diff_runs(store.load(id_a), store.load(id_a))
        assert diff.config_changes == {}
        assert all(m.verdict == "same" for m in diff.metrics)
        assert diff.events.thrash_only_a == ()
        assert diff.events.thrash_only_b == ()

    def test_as_dict_is_json_serializable(self, archived_pair):
        store, id_a, id_b = archived_pair
        diff = diff_runs(store.load(id_a), store.load(id_b))
        payload = json.loads(json.dumps(diff.as_dict()))
        assert payload["run_a"]["seed"] == 0
        assert payload["run_b"]["seed"] == 1
        assert payload["config_changes"]["seed"] == {"a": 0, "b": 1}
        metric_names = [m["name"] for m in payload["metrics"]]
        assert "evicted_blocks" in metric_names
        assert payload["events"]["td_trajectories"]

    def test_render_is_human_readable(self, archived_pair):
        store, id_a, id_b = archived_pair
        text = render_diff(diff_runs(store.load(id_a), store.load(id_b)))
        assert "== run diff ==" in text
        assert "-- config changes" in text
        assert "migrated_blocks" in text
        assert "td trajectory per allocation" in text

    def test_no_event_logs_degrades_gracefully(self, archived_pair):
        store, id_a, _ = archived_pair
        run = store.load(id_a)
        import dataclasses
        bare = dataclasses.replace(run, events_path=None)
        diff = diff_runs(bare, bare)
        assert diff.events is None
        assert "td trajectories and thrash sets unavailable" \
            in render_diff(diff)


class TestGridArchive:
    def test_archived_grids_diff_without_config_change(self, tmp_path):
        """A grid archived twice, once replaying from a shared trace
        cache and once from its private one, lands in the same run slots
        with identical configs: no trace path leaks into the manifest."""
        from repro.analysis.parallel import GridCell, GridOptions, run_grid
        cells = [GridCell("ra", pol, 1.25, "tiny")
                 for pol in (MigrationPolicy.DISABLED,
                             MigrationPolicy.ADAPTIVE)]
        stores = []
        for name, cache in (("a", None), ("b", str(tmp_path / "cache"))):
            store = RunStore(tmp_path / name)
            run_grid(cells, options=GridOptions(archive=store,
                                                trace_cache=cache))
            stores.append(store)
        a, b = ([m.run_id for m in s.list()] for s in stores)
        assert sorted(a) == sorted(b) and len(a) == len(cells)
        for run_id in a:
            diff = diff_runs(stores[0].load(run_id), stores[1].load(run_id))
            assert diff.config_changes == {}
            assert "trace_path" not in diff.a.config
