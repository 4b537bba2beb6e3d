"""ASCII rendering of experiment results (the repo's 'figures')."""

from __future__ import annotations

from typing import Iterable, Mapping


def format_table(headers: list[str], rows: list[list], title: str = "",
                 float_fmt: str = "{:.3f}", rstrip: bool = False) -> str:
    """Render a fixed-width text table.

    Every cell is padded to its column's width, so lines end in the
    last column's padding; ``rstrip`` removes it (the committed figure
    tables keep it, the event-log reports drop it).
    """
    cells = [[_fmt(c, float_fmt) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(headers)]
    lines = [title] if title else []
    for row in (headers, ["-" * w for w in widths], *cells):
        line = "  ".join(c.ljust(w) for c, w in zip(row, widths))
        lines.append(line.rstrip() if rstrip else line)
    return "\n".join(lines)


def _fmt(value, float_fmt: str) -> str:
    if isinstance(value, float):
        return float_fmt.format(value)
    return str(value)


def comparison_table(title: str, workloads: Iterable[str],
                     measured: Mapping[str, float],
                     paper: Mapping[str, float] | None,
                     value_name: str = "normalized runtime") -> str:
    """Two-column paper-vs-measured table for one experiment series."""
    headers = ["workload", f"measured {value_name}"]
    if paper is not None:
        headers.append("paper")
    rows = []
    for w in workloads:
        row = [w, float(measured[w])]
        if paper is not None:
            row.append(float(paper.get(w, float("nan"))))
        rows.append(row)
    return format_table(headers, rows, title=title)


def ascii_bar_chart(title: str, series: Mapping[str, float],
                    width: int = 50, unit: str = "x") -> str:
    """Horizontal ASCII bar chart, for quick visual shape checks."""
    if not series:
        return title
    peak = max(series.values()) or 1.0
    lines = [title]
    for name, value in series.items():
        bar = "#" * max(1, int(round(width * value / peak)))
        lines.append(f"{name:>10s} | {bar} {value:.2f}{unit}")
    return "\n".join(lines)
