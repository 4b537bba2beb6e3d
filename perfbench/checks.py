"""Output checks.  Every failure names the operation it fails.

An operation is one grid cell, keyed ``<series>/<workload>`` as in
``SeriesResult.runs``, or one serve session.  The checks only read
results and committed files; they never write.
"""

from __future__ import annotations

import math

_SERIES = "-- series: "


def table_name(fig) -> str:
    """Committed table file of a figure (``Figure 6`` -> ``figure6.txt``)."""
    return fig.figure.lower().replace(" ", "") + ".txt"


def table_failures(fig, committed: str) -> dict[str, str]:
    """Cells whose rows in ``fig``'s rendered table differ from ``committed``.

    A differing data row fails the ``<series>/<workload>`` cell it
    reports; any other differing line fails the table's layout.
    """
    rendered = fig.render() + "\n"
    if rendered == committed:
        return {}
    got_lines = rendered.splitlines()
    want_lines = committed.splitlines()
    failed: dict[str, str] = {}
    series = None
    for i in range(max(len(got_lines), len(want_lines))):
        got = got_lines[i] if i < len(got_lines) else ""
        want = want_lines[i] if i < len(want_lines) else ""
        if got.startswith(_SERIES):
            series = got[len(_SERIES):]
        if got == want:
            continue
        words = got.split()
        workload = words[0] if words else ""
        key = (f"{series}/{workload}"
               if workload in fig.measured.get(series, {})
               else f"{fig.figure}/layout")
        failed[key] = f"{fig.figure} line {i + 1}: {got!r}, committed {want!r}"
    if not failed:
        failed[f"{fig.figure}/layout"] = "line endings differ"
    return failed


def cell_failures(runs) -> dict[str, str]:
    """Cells whose accesses do not each resolve to exactly one service."""
    failed = {}
    for (series, workload), result in runs.items():
        ev = result.events
        served = ev.n_local + ev.n_remote + ev.fault_migrations
        if served != ev.n_accesses:
            failed[f"{series}/{workload}"] = (
                f"n_local + n_remote + fault_migrations = {served}, "
                f"n_accesses = {ev.n_accesses}")
    return failed


def grid_failures(grid: str, figs, tables) -> dict[str, str]:
    """Failed cells of one figure grid, keyed ``<grid>/<series>/<workload>``.

    ``figs`` share one grid's runs (Figures 6 and 7 do).  ``tables`` maps
    committed table file names to their text, or is ``None`` at seeds
    the committed tables were not rendered with.
    """
    failed = cell_failures(figs[0].runs)
    if tables is not None:
        for fig in figs:
            failed.update(table_failures(fig, tables[table_name(fig)]))
    return {f"{grid}/{key}": why for key, why in failed.items()}


def serve_failures(result) -> list[str]:
    """Broken accounting identities of one serve session."""
    broken = []
    if result.arrivals != result.admitted + result.shed:
        broken.append(f"arrivals {result.arrivals} != admitted "
                      f"{result.admitted} + shed {result.shed}")
    if result.completed != result.admitted:
        broken.append(f"completed {result.completed} != admitted "
                      f"{result.admitted}")
    # ServeSession computes total_accesses as this very sum, so this
    # identity holds by construction; the driver identity below is the
    # one that catches lost accesses.
    tenant_accesses = sum(t.accesses for t in result.tenants)
    if tenant_accesses != result.total_accesses:
        broken.append(f"tenant accesses {tenant_accesses} != "
                      f"total_accesses {result.total_accesses}")
    driver_accesses = result.driver_totals["n_accesses"]
    if result.total_accesses != driver_accesses:
        broken.append(f"total_accesses {result.total_accesses} != driver "
                      f"n_accesses {driver_accesses}")
    return broken


def log_errors(fig) -> list[float]:
    """|ln(measured/paper)| of every cell where both values are positive."""
    errors = []
    for series, measured in fig.measured.items():
        paper = fig.paper.get(series, {})
        for workload, value in measured.items():
            ref = paper.get(workload)
            if ref is not None and value > 0 and ref > 0:
                errors.append(abs(math.log(value / ref)))
    return errors
