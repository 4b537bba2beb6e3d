"""The output checks report every miss as a failed operation."""

from types import SimpleNamespace

from repro.analysis.experiments import SeriesResult
from repro.uvm.driver import WaveOutcome

import checks


def figure() -> SeriesResult:
    return SeriesResult(
        "Figure 6", "runtime",
        {"always": {"bfs": 0.5, "ra": 0.25},
         "adaptive": {"bfs": 0.4, "ra": 0.1}},
        {"always": {"bfs": 0.6, "ra": 0.25}, "adaptive": {"bfs": 0.8}})


def cell(local: int = 5) -> SimpleNamespace:
    return SimpleNamespace(events=WaveOutcome(
        n_accesses=10, n_local=local, n_remote=3, fault_migrations=2))


def test_the_committed_table_passes():
    fig = figure()
    assert checks.table_failures(fig, fig.render() + "\n") == {}


def test_a_perturbed_row_fails_the_cell_it_reports():
    fig = figure()
    committed = (fig.render() + "\n").replace("0.100", "0.101")
    assert list(checks.table_failures(fig, committed)) == ["adaptive/ra"]


def test_a_changed_title_fails_the_table_layout():
    fig = figure()
    committed = (fig.render() + "\n").replace("runtime", "thrash", 1)
    assert list(checks.table_failures(fig, committed)) == ["Figure 6/layout"]


def test_grid_failures_count_rows_and_identities_per_cell():
    fig = figure()
    fig.runs = {("always", "bfs"): cell(), ("always", "ra"): cell(local=4)}
    tables = {"figure6.txt": (fig.render() + "\n").replace("0.500", "0.499")}
    assert set(checks.grid_failures("figure6_7", (fig,), tables)) == {
        "figure6_7/always/bfs", "figure6_7/always/ra"}
    assert set(checks.grid_failures("figure6_7", (fig,), None)) == {
        "figure6_7/always/ra"}


def test_serve_identities():
    ok = SimpleNamespace(
        arrivals=5, admitted=3, shed=2, completed=3, total_accesses=30,
        tenants=[SimpleNamespace(accesses=a) for a in (10, 20, 0, 0, 0)],
        driver_totals={"n_accesses": 30})
    assert checks.serve_failures(ok) == []
    broken = SimpleNamespace(**{**vars(ok), "completed": 2,
                                "driver_totals": {"n_accesses": 31}})
    assert len(checks.serve_failures(broken)) == 2


def test_log_errors_skip_cells_without_two_positive_values():
    errors = checks.log_errors(figure())
    # always/bfs, always/ra (an exact match) and adaptive/bfs; adaptive/ra
    # has no paper value.
    assert len(errors) == 3
    assert errors[1] == 0.0
