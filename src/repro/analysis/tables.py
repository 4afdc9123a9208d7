"""Plain-text table rendering for benchmark reports."""

from __future__ import annotations


def render_table(headers: list[str], rows: list[list], title: str | None = None) -> str:
    """Render an aligned monospace table.

    >>> print(render_table(['a', 'bb'], [['1', '22']]))
    a | bb
    --+---
    1 | 22
    """
    cells = [[str(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in cells:
        for index, value in enumerate(row):
            widths[index] = max(widths[index], len(value))
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in cells:
        lines.append(" | ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def render_comparison(
    headers: list[str],
    rows: list[list],
    title: str | None = None,
    note: str | None = None,
) -> str:
    """Table plus an optional trailing note (for paper-vs-measured reports)."""
    text = render_table(headers, rows, title)
    if note:
        text += f"\n{note}"
    return text
