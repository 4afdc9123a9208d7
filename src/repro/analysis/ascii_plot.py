"""Terminal line plots for the figure benchmarks (no matplotlib offline)."""

from __future__ import annotations

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"
WIDTH, HEIGHT = 64, 18  # line_plot's grid, in characters


def sparkline(values: list[float], width: int | None = None) -> str:
    """Render a sequence as a one-line block-character sparkline.

    >>> sparkline([0, 1, 2, 3])
    '▁▃▅█'
    """
    if not values:
        return ""
    if width is not None and width > 0 and len(values) > width:
        # Downsample by bucket-max so spikes survive compression.
        step = len(values) / width
        values = [
            max(values[int(i * step) : max(int((i + 1) * step), int(i * step) + 1)])
            for i in range(width)
        ]
    low, high = min(values), max(values)
    if high == low:
        return _SPARK_LEVELS[0] * len(values)
    scale = (len(_SPARK_LEVELS) - 1) / (high - low)
    return "".join(_SPARK_LEVELS[int((v - low) * scale)] for v in values)


def line_plot(
    series: dict[str, list[tuple[float, float]]],
    title: str = "",
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Render multiple (x, y) series on one character grid.

    Each series gets a marker letter; the legend maps letters to series
    names.  Log-ish axes are the caller's business (pass transformed xs).
    """
    points = [(x, y) for values in series.values() for x, y in values]
    if not points:
        return "(empty plot)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    if x_max == x_min:
        x_max += 1
    if y_max == y_min:
        y_max += 1

    grid = [[" "] * WIDTH for _ in range(HEIGHT)]
    markers = "abcdefghijklmnopqrstuvwxyz"
    legend = []
    for index, (name, values) in enumerate(series.items()):
        marker = markers[index % len(markers)]
        legend.append(f"  {marker} = {name}")
        for x, y in values:
            col = int((x - x_min) / (x_max - x_min) * (WIDTH - 1))
            row = HEIGHT - 1 - int((y - y_min) / (y_max - y_min) * (HEIGHT - 1))
            current = grid[row][col]
            grid[row][col] = "*" if current not in (" ", marker) else marker

    lines = []
    if title:
        lines.append(title)
    lines.append(f"{y_label} (max {y_max:.1f})")
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * WIDTH)
    lines.append(f" {x_label}: {x_min:g} .. {x_max:g}   ('*' = overlap)")
    lines.extend(legend)
    return "\n".join(lines)
