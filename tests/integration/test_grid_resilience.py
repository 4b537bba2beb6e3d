"""Integration tests: the grid runner against real worker failures.

These kill actual pool worker processes (``os._exit`` bypasses Python
cleanup, exactly like an OOM kill) and assert the two acceptance
properties of the resilience layer: the checkpoint journal stays
consistent through the crash, and a resumed sweep is bit-identical to
an uninterrupted serial run.

The crash/hang stand-ins for ``run_cell`` must be module-level
functions wrapped in :func:`functools.partial` -- the executor pickles
submitted callables, so test closures would break the pool for the
wrong reason.
"""

import functools
import multiprocessing
import os
import time

import pytest

from repro.analysis import parallel
from repro.analysis.checkpoint import CheckpointJournal, cell_key
from repro.analysis.parallel import GridCell, GridOptions, run_grid
from repro.analysis.parallel import run_cell as _real_run_cell
from repro.config import MigrationPolicy

CELLS = [
    GridCell("ra", MigrationPolicy.ADAPTIVE, 1.25, "tiny", seed=s)
    for s in range(4)
]

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker-kill tests patch run_cell, which requires fork")

#: Failing cells are re-attempted at once.
pytestmark = pytest.mark.usefixtures("no_backoff")


def _die_once_run_cell(marker_path, cell):
    """Kill the first worker to run a cell, then behave normally.

    The marker file makes the crash one-shot across pool incarnations;
    ``os._exit`` skips all Python cleanup, like a SIGKILL from the OOM
    killer, and breaks the whole pool.
    """
    if not os.path.exists(marker_path):
        with open(marker_path, "w") as fh:
            fh.write("died\n")
        os._exit(3)
    return _real_run_cell(cell)


def _hang_once_run_cell(marker_path, cell):
    """Hang the first worker to run a cell, then behave normally."""
    if not os.path.exists(marker_path):
        with open(marker_path, "w") as fh:
            fh.write("hung\n")
        time.sleep(600)
    return _real_run_cell(cell)


def _exploding_run_cell(cell):
    raise AssertionError("resume re-simulated a journaled cell")


@needs_fork
class TestWorkerCrash:
    def test_grid_survives_killed_worker(self, tmp_path, monkeypatch):
        marker = tmp_path / "died"
        monkeypatch.setattr(
            parallel, "run_cell",
            functools.partial(_die_once_run_cell, str(marker)))
        results = run_grid(CELLS, max_workers=2,
                           options=GridOptions())
        assert marker.exists()  # a worker really did die
        assert all(r is not None for r in results)
        monkeypatch.undo()
        baseline = run_grid(CELLS, max_workers=1)
        for a, b in zip(results, baseline):
            assert a.total_cycles == b.total_cycles
            assert a.events == b.events

    def test_journal_consistent_after_crash_and_resume_identical(
            self, tmp_path, monkeypatch):
        marker = tmp_path / "died"
        journal_path = tmp_path / "journal.jsonl"
        monkeypatch.setattr(
            parallel, "run_cell",
            functools.partial(_die_once_run_cell, str(marker)))
        run_grid(CELLS, max_workers=2,
                 options=GridOptions(checkpoint=str(journal_path)))
        assert marker.exists()

        # Every parseable journal line must be a fully-committed result
        # whose key matches a requested cell (consistency), and the full
        # grid must be present after the crash-recovered run.
        entries = CheckpointJournal(journal_path).load()
        assert set(entries) == {cell_key(c) for c in CELLS}

        # A fresh resume must serve everything from the journal,
        # bit-identical to an uninterrupted serial run.
        monkeypatch.setattr(parallel, "run_cell", _exploding_run_cell)
        resumed = run_grid(
            CELLS, max_workers=1,
            options=GridOptions(checkpoint=str(journal_path), resume=True))
        monkeypatch.undo()
        baseline = run_grid(CELLS, max_workers=1)
        for a, b in zip(resumed, baseline):
            assert a.total_cycles == b.total_cycles
            assert a.timing == b.timing
            assert a.events == b.events


@needs_fork
class TestHangDetection:
    def test_hung_worker_is_terminated_and_retried(self, tmp_path,
                                                   monkeypatch):
        marker = tmp_path / "hung"
        monkeypatch.setattr(
            parallel, "run_cell",
            functools.partial(_hang_once_run_cell, str(marker)))
        cells = CELLS[:2]
        results = run_grid(cells, max_workers=2,
                           options=GridOptions(retries=2,
                                               cell_timeout=3.0))
        assert marker.exists()
        assert all(r is not None for r in results)
        monkeypatch.undo()
        baseline = run_grid(cells, max_workers=1)
        for a, b in zip(results, baseline):
            assert a.total_cycles == b.total_cycles
