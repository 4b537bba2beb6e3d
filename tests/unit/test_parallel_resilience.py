"""Unit tests for the resilient grid runner and its CLI surface."""

import pytest

from repro.analysis import parallel
from repro.analysis.parallel import (
    GridCell,
    GridExecutionError,
    GridOptions,
    default_jobs,
    run_grid,
)
from repro.cli import main
from repro.config import MigrationPolicy

TINY = GridCell("ra", MigrationPolicy.ADAPTIVE, 1.25, "tiny")


class TestDefaultJobs:
    def test_positive(self):
        assert default_jobs() >= 1

    def test_respects_affinity(self, monkeypatch):
        monkeypatch.setattr(parallel.os, "sched_getaffinity",
                            lambda pid: {0, 1, 2}, raising=False)
        assert default_jobs() == 3

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(parallel.os, "sched_getaffinity",
                            raising=False)
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 5)
        assert default_jobs() == 5

    def test_last_resort_is_one(self, monkeypatch):
        monkeypatch.delattr(parallel.os, "sched_getaffinity",
                            raising=False)
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: None)
        assert default_jobs() == 1


class TestGridOptions:
    def test_defaults(self):
        opts = GridOptions()
        assert opts.retries == 2 and not opts.resume

    @pytest.mark.parametrize("kwargs,match", [
        ({"retries": -1}, "retries"),
        ({"cell_timeout": -1.5}, "cell_timeout"),
        ({"cell_timeout": 0}, "cell_timeout"),
        ({"resume": True}, "resume requires a checkpoint"),
    ])
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            GridOptions(**kwargs)


class TestRunGridGuards:
    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="max_workers must be >= 0"):
            run_grid([TINY], max_workers=-2)

    def test_empty_grid(self):
        assert run_grid([], max_workers=4) == []


class TestSerialRetry:
    def test_flaky_cell_retried(self, monkeypatch, no_backoff):
        calls = {"n": 0}
        real = parallel.run_cell

        def flaky(cell):
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient resource exhaustion")
            return real(cell)

        monkeypatch.setattr(parallel, "run_cell", flaky)
        opts = GridOptions(retries=2)
        results = run_grid([TINY], max_workers=1, options=opts)
        assert calls["n"] == 3
        assert results[0].total_cycles > 0

    def test_budget_exhaustion_raises(self, monkeypatch, no_backoff):
        def always_fails(cell):
            raise OSError("permanently broken")

        monkeypatch.setattr(parallel, "run_cell", always_fails)
        opts = GridOptions(retries=1)
        with pytest.raises(GridExecutionError) as exc:
            run_grid([TINY], max_workers=1, options=opts)
        assert exc.value.attempts == 2
        assert exc.value.cell == TINY

    def test_zero_retries_fails_fast(self, monkeypatch):
        calls = {"n": 0}

        def fails(cell):
            calls["n"] += 1
            raise RuntimeError("boom")

        monkeypatch.setattr(parallel, "run_cell", fails)
        with pytest.raises(GridExecutionError):
            run_grid([TINY], max_workers=1,
                     options=GridOptions(retries=0))
        assert calls["n"] == 1


class TestPoolFallback:
    def test_unavailable_pool_degrades_to_serial(self, monkeypatch):
        """No process-pool support at all must not abort the sweep."""
        def no_pools(*args, **kwargs):
            raise OSError("semaphores unavailable")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", no_pools)
        cells = [TINY, GridCell("ra", MigrationPolicy.DISABLED, 1.25,
                                "tiny")]
        results = run_grid(cells, max_workers=4)
        assert all(r is not None for r in results)

    def test_persistently_broken_pool_degrades_to_serial(self, monkeypatch,
                                                         no_backoff):
        """A pool that always breaks mid-flight falls back, not aborts."""
        from concurrent.futures.process import BrokenProcessPool

        class AlwaysBroken:
            def __init__(self, *args, **kwargs):
                pass

            def submit(self, *args, **kwargs):
                raise BrokenProcessPool("worker died")

            def shutdown(self, *args, **kwargs):
                pass

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", AlwaysBroken)
        results = run_grid([TINY, TINY], max_workers=2)
        assert all(r is not None for r in results)


class TestCliGuards:
    def test_negative_jobs_clear_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "ra", "--jobs", "-3"])
        assert exc.value.code == 2
        assert "--jobs must be >= 0" in capsys.readouterr().err

    def test_unknown_workload_lists_registry(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "definitely-not-a-workload"])
        err = capsys.readouterr().err
        assert "unknown workload" in err
        assert "ra" in err and "sssp" in err

    def test_resume_without_checkpoint_rejected(self):
        with pytest.raises(SystemExit, match="resume requires a checkpoint"):
            main(["sweep", "ra", "--scale", "tiny", "--resume"])

    def test_invalid_fault_rate_rejected(self):
        with pytest.raises(SystemExit, match="transfer_fault_rate"):
            main(["run", "ra", "--scale", "tiny", "--fault-rate", "1.0"])
