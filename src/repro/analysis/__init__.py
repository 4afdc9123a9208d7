"""Analysis helpers: tables and terminal plots."""

from repro.analysis.ascii_plot import line_plot, sparkline
from repro.analysis.tables import render_comparison, render_table

__all__ = [
    "line_plot",
    "sparkline",
    "render_comparison",
    "render_table",
]
