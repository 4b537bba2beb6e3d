"""How a grid gets its waves: each access stream recorded once, replayed
by every cell that shares it, and removed when a private cache is done.

``record_trace`` (as :class:`repro.trace.TraceCache` calls it),
``run_cell`` and the grid's ``TraceWorkload`` loads are wrapped to log
their calls; ``tempfile.tempdir`` points at a test directory so the
grid's private cache can be watched.
"""

import pathlib
import tempfile
import weakref

import pytest

from repro.analysis import parallel
from repro.analysis.parallel import (
    GridCell,
    GridExecutionError,
    GridOptions,
    run_grid,
)
from repro.config import MigrationPolicy
from repro.trace import cache as cache_mod
from repro.trace import recorder

POLICIES = (MigrationPolicy.DISABLED, MigrationPolicy.ALWAYS,
            MigrationPolicy.ADAPTIVE)

#: Two workloads x three cells, workload-major.
CELLS = [GridCell(w, pol, 1.25, "tiny") for w in ("ra", "sssp")
         for pol in POLICIES]

#: Failing cells are re-attempted at once.
pytestmark = pytest.mark.usefixtures("no_backoff")


@pytest.fixture
def private_tmp(tmp_path, monkeypatch):
    """The directory the grid's private trace cache is created under."""
    root = tmp_path / "tmp"
    root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(root))
    return root


@pytest.fixture
def records(monkeypatch, private_tmp):
    """Calls of ``record_trace``, each with the stream entries the
    private cache held just before it."""
    events = []
    real = cache_mod.record_trace

    def logged(workload, seed=0):
        held = sorted(p.name.split("-")[0]
                      for p in private_tmp.glob("repro-grid-*/*"))
        events.append(("record", workload.name, held))
        return real(workload, seed=seed)

    monkeypatch.setattr(cache_mod, "record_trace", logged)
    return events


@pytest.fixture
def log(monkeypatch, records):
    """:func:`records`, interleaved with every ``run_cell`` that
    completed (serial grids only: a pool cannot pickle the wrapper)."""
    real = parallel.run_cell

    def logged(cell):
        result = real(cell)
        records.append(("cell", cell.workload))
        return result

    monkeypatch.setattr(parallel, "run_cell", logged)
    return records


@pytest.fixture
def loads(monkeypatch):
    """Every ``TraceWorkload`` the grid loads: its stream's workload
    name, and which earlier loads were still alive just before it."""
    events = []
    made = []

    class Logged(parallel.TraceWorkload):
        def __init__(self, trace):
            events.append((pathlib.Path(trace).name.split("-")[0],
                           [ref() is not None for ref in made]))
            super().__init__(trace)
            made.append(weakref.ref(self))

    monkeypatch.setattr(parallel, "TraceWorkload", Logged)
    return events


def _outcomes(results):
    return [(r.total_cycles, r.timing, r.events, r.unique_thrashed_blocks)
            for r in results]


def test_serial_grid_loads_each_stream_once(loads, private_tmp,
                                           monkeypatch):
    removals = []
    real_rmtree = parallel.shutil.rmtree

    def rmtree(path, *args, **kwargs):
        removals.append((pathlib.Path(path).name.split("-")[0],
                         parallel._loaded))
        return real_rmtree(path, *args, **kwargs)

    monkeypatch.setattr(parallel.shutil, "rmtree", rmtree)
    results = run_grid(CELLS)
    # One load per stream; ra's workload is gone before sssp loads.
    assert loads == [("ra", []), ("sssp", [False])]
    # Each private stream is dropped before its directory goes.
    assert removals[:2] == [("ra", None), ("sssp", None)]
    assert list(private_tmp.iterdir()) == []
    assert parallel._loaded is None
    assert _outcomes(results) == _outcomes(
        [parallel.run_cell(c) for c in CELLS])


def test_interleaved_streams_drop_before_each_load(loads, private_tmp):
    cells = [GridCell(w, pol, 1.25, "tiny") for pol in POLICIES[:2]
             for w in ("ra", "sssp")]
    results = run_grid(cells)
    # A stream with cells still pending is dropped before the next
    # stream loads, and loaded again when its turn comes back.
    assert loads == [("ra", []), ("sssp", [False]),
                     ("ra", [False, False]), ("sssp", [False] * 3)]
    assert list(private_tmp.iterdir()) == []
    assert _outcomes(results) == _outcomes(
        [parallel.run_cell(c) for c in cells])


def test_serial_grid_records_each_stream_once_right_before_use(
        log, private_tmp):
    run_grid(CELLS)
    assert log == [("record", "ra", []),
                   ("cell", "ra"), ("cell", "ra"), ("cell", "ra"),
                   # ra's entry is gone once its last cell finished.
                   ("record", "sssp", []),
                   ("cell", "sssp"), ("cell", "sssp"), ("cell", "sssp")]
    assert list(private_tmp.iterdir()) == []


def test_every_cell_replays_its_recorded_stream(monkeypatch):
    seen = []
    real = parallel.run_cell

    def spy(cell):
        seen.append(cell.trace_path)
        return real(cell)

    monkeypatch.setattr(parallel, "run_cell", spy)
    run_grid(CELLS)
    assert None not in seen
    assert len(set(seen)) == 2


def test_private_cache_removed_after_a_failing_cell(log, private_tmp,
                                                    monkeypatch):
    real = parallel.run_cell

    def fails_on_sssp(cell):
        if cell.workload == "sssp":
            raise RuntimeError("boom")
        return real(cell)

    monkeypatch.setattr(parallel, "run_cell", fails_on_sssp)
    with pytest.raises(GridExecutionError):
        run_grid(CELLS, options=GridOptions(retries=0))
    # sssp was recorded before its cell raised.
    assert [e[1] for e in log if e[0] == "record"] == ["ra", "sssp"]
    assert list(private_tmp.iterdir()) == []


def test_shared_cache_keeps_its_streams(log, private_tmp, tmp_path):
    shared = tmp_path / "shared"
    run_grid(CELLS, options=GridOptions(trace_cache=str(shared)))
    assert len(list(shared.iterdir())) == 2
    assert list(private_tmp.iterdir()) == []
    del log[:]
    run_grid(CELLS, options=GridOptions(trace_cache=str(shared)))
    assert [e for e in log if e[0] == "record"] == []


def test_parallel_grid_records_before_fan_out(records, private_tmp):
    results = run_grid(CELLS, max_workers=2)
    assert all(r is not None for r in results)
    # Both streams recorded in this process, once each; workers replay.
    assert records == [("record", "ra", []), ("record", "sssp", ["ra"])]
    assert list(private_tmp.iterdir()) == []


@pytest.mark.parametrize("shared", [False, True], ids=["private", "shared"])
def test_resume_of_a_journaled_grid_records_nothing(tmp_path, log, shared):
    journal = str(tmp_path / "journal.jsonl")
    first = run_grid(CELLS, options=GridOptions(checkpoint=journal))
    del log[:]
    cache = str(tmp_path / "fresh-cache") if shared else None
    resumed = run_grid(CELLS, options=GridOptions(
        checkpoint=journal, resume=True, trace_cache=cache))
    assert log == []
    assert [r.total_cycles for r in resumed] == [r.total_cycles
                                                 for r in first]


def test_failed_recording_uses_the_cells_retry_budget(private_tmp,
                                                      monkeypatch):
    calls = []
    real_save = recorder.np.save

    def save_fails_once(*args, **kwargs):
        calls.append(args[0])
        if len(calls) == 1:
            raise OSError(28, "No space left on device")
        return real_save(*args, **kwargs)

    monkeypatch.setattr(recorder.np, "save", save_fails_once)
    results = run_grid(CELLS[:1], options=GridOptions(retries=1))
    assert results[0].total_cycles > 0
    assert list(private_tmp.iterdir()) == []

    def save_fails(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(recorder.np, "save", save_fails)
    with pytest.raises(GridExecutionError) as exc:
        run_grid(CELLS[:1], options=GridOptions(retries=1))
    assert exc.value.attempts == 2
    assert isinstance(exc.value.__cause__, OSError)
    assert list(private_tmp.iterdir()) == []


def test_explicit_trace_path_is_left_alone(tmp_path, log):
    entry = cache_mod.TraceCache(tmp_path / "mine").get_or_record(
        "ra", "tiny", 0)
    del log[:]
    cell = GridCell("ra", MigrationPolicy.ADAPTIVE, 1.25, "tiny",
                    trace_path=str(entry))
    run_grid([cell, cell])
    assert [e for e in log if e[0] == "record"] == []
    assert (entry / "manifest.json").exists()
