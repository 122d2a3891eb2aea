"""Dependency-free ASCII rendering of the Fig. 12 series.

The repository deliberately has no plotting dependency; the benchmark
tables are the primary artifact.  This renderer makes the *shape* of
Fig. 12 visible in a terminal or a text log — a log-scale scatter of
``E(T_MR)`` against ``T_D^U`` with one glyph per algorithm, mirroring
the paper's markers.
"""

from __future__ import annotations

import math
from typing import List, Sequence

__all__ = ["render_series"]


def render_series(
    x_values: Sequence[float],
    series: Sequence[tuple],
    width: int = 72,
    height: int = 22,
    title: str = "",
) -> str:
    """Render ``series = [(glyph, label, y-values), ...]`` as ASCII:
    ``E(T_MR)`` against ``T_D^U``.

    NaN/非-finite and non-positive points are skipped.  The y axis is
    log10-scaled (the paper's Fig. 12 is log-scale).
    """
    if width < 20 or height < 5:
        raise ValueError("plot area too small")
    points = []
    for glyph, _label, ys in series:
        if len(ys) != len(x_values):
            raise ValueError("series length mismatch")
        for x, y in zip(x_values, ys):
            if y is None or not math.isfinite(y) or y <= 0:
                continue
            points.append((float(x), float(y), glyph))
    if not points:
        return "(no finite points to plot)"

    xs = [p[0] for p in points]
    ys = [math.log10(p[1]) for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    grid: List[List[str]] = [[" "] * width for _ in range(height)]
    for x, y, glyph in points:
        col = round((x - x_lo) / (x_hi - x_lo) * (width - 1))
        row = round((math.log10(y) - y_lo) / (y_hi - y_lo) * (height - 1))
        grid[height - 1 - row][col] = glyph

    lines: List[str] = []
    if title:
        lines.append(title)
    y_top = f"1e{y_hi:.1f}"
    y_bot = f"1e{y_lo:.1f}"
    margin = max(len(y_top), len(y_bot), len("E(T_MR)")) + 1
    lines.append("E(T_MR)".rjust(margin))
    for i, row_cells in enumerate(grid):
        if i == 0:
            label = y_top
        elif i == height - 1:
            label = y_bot
        else:
            label = ""
        lines.append(f"{label.rjust(margin)} |" + "".join(row_cells))
    lines.append(" " * margin + " +" + "-" * width)
    x_axis = f"{x_lo:.2g}".ljust(width - 8) + f"{x_hi:.2g} T_D^U"
    lines.append(" " * (margin + 2) + x_axis)
    legend = "   ".join(f"{glyph} {label}" for glyph, label, _ in series)
    lines.append(" " * (margin + 2) + legend)
    return "\n".join(lines)
