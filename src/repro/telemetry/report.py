"""Plain-text table rendering for the benchmark harnesses.

Every figure's harness ends by printing rows/series in the same layout the
paper reports. :func:`render_table` produces aligned monospace tables.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Sequence

__all__ = ["render_table", "format_value"]


def format_value(value: Any) -> str:
    """Human formatting: floats to 3 significant digits, large numbers
    grouped."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) < 0.001:
            return f"{value:.2e}"
        return f"{value:.3g}"
    if isinstance(value, int) and abs(value) >= 1000:
        return f"{value:,}"
    return str(value)


def render_table(headers: Sequence[str],
                 rows: Iterable[Sequence[Any]],
                 title: str = "") -> str:
    """Render an aligned monospace table; right-aligns numeric columns."""
    rendered_rows: List[List[str]] = [
        [format_value(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.rjust(widths[i]) if i else cell.ljust(widths[i])
                          for i, cell in enumerate(cells))

    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(render_row(list(headers)))
    lines.append("-+-".join("-" * w for w in widths))
    lines.extend(render_row(row) for row in rendered_rows)
    return "\n".join(lines)
