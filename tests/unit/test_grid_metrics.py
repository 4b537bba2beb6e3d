"""Grid-runner metric rollups (``GridOptions.metrics``)."""

from repro.analysis.parallel import GridCell, GridOptions, run_grid
from repro.config import MigrationPolicy
from repro.obs import MetricsRegistry

CELLS = [
    GridCell("ra", MigrationPolicy.ADAPTIVE, 1.25, "tiny", seed=s)
    for s in range(3)
]


def test_serial_grid_records_cell_metrics():
    reg = MetricsRegistry()
    results = run_grid(CELLS, options=GridOptions(metrics=reg))
    assert all(r is not None for r in results)
    m = reg.as_dict()
    assert m["grid.cells_completed"]["value"] == len(CELLS)
    assert m["grid.cell_ms"]["count"] == len(CELLS)
    assert m["grid.cell_ms"]["min"] >= 0
    assert m["grid.cell_retries"]["value"] == 0
    assert m["grid.pool_rebuilds"]["value"] == 0


def test_parallel_grid_records_cell_metrics():
    reg = MetricsRegistry()
    results = run_grid(CELLS, max_workers=2,
                       options=GridOptions(metrics=reg))
    assert all(r is not None for r in results)
    m = reg.as_dict()
    assert m["grid.cells_completed"]["value"] == len(CELLS)
    assert m["grid.cell_ms"]["count"] == len(CELLS)


def test_resume_counts_checkpoint_hits(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    run_grid(CELLS, options=GridOptions(checkpoint=path))

    reg = MetricsRegistry()
    run_grid(CELLS, options=GridOptions(checkpoint=path, resume=True,
                                        metrics=reg))
    m = reg.as_dict()
    assert m["grid.cells_from_checkpoint"]["value"] == len(CELLS)
    assert m["grid.cells_completed"]["value"] == 0


def test_retries_are_counted(no_backoff):
    calls = {"n": 0}

    def flaky_once(cell):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("transient")
        return object()

    from repro.analysis import parallel
    reg = MetricsRegistry()
    original = parallel.run_cell
    parallel.run_cell = flaky_once
    try:
        results = run_grid(CELLS[:1], options=GridOptions(
            retries=2, metrics=reg))
    finally:
        parallel.run_cell = original
    assert results[0] is not None
    m = reg.as_dict()
    assert m["grid.cell_retries"]["value"] == 1
    assert m["grid.cells_completed"]["value"] == 1


def test_metrics_off_registers_nothing():
    reg = MetricsRegistry()
    run_grid(CELLS[:1], options=GridOptions())
    assert len(reg) == 0
