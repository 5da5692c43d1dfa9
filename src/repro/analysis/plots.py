"""ASCII box-and-whisker plots for terminal-friendly figures.

The paper's Figures 4-6 are box plots (5th/25th/75th/95th percentiles,
median, mean).  This module renders the same summaries as monospace art so
every experiment's output can be eyeballed against the paper without a
plotting stack.

Example output::

    F     |--[=|==]------------------|          mean 0.68
    Z        |----[==|=]----|                   mean 1.52
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.analysis.stats import SummaryStats
from repro.checks import at_least


def render_box(stats: SummaryStats, lo: float, hi: float,
               width: int = 50) -> str:
    """One box-plot row scaled into [lo, hi] over ``width`` columns.

    Glyphs: ``|--[==|==]--|`` → whiskers at p5/p95, box at p25/p75,
    ``|`` inside the box at the median, ``*`` at the mean.

    Raises:
        ValueError: On a degenerate range or tiny width.
    """
    if hi <= lo:
        raise ValueError("need hi > lo")
    at_least(width, 10, "width")

    def col(value: float) -> int:
        clamped = min(max(value, lo), hi)
        return round((clamped - lo) / (hi - lo) * (width - 1))

    cells = [" "] * width
    for i in range(col(stats.p5), col(stats.p95) + 1):
        cells[i] = "-"
    for i in range(col(stats.p25), col(stats.p75) + 1):
        cells[i] = "="
    # Structural glyphs win over markers when columns collide: the mean is
    # also printed as text by box_plot, so losing its glyph is harmless.
    cells[col(stats.mean)] = "*"
    cells[col(stats.median)] = "|"
    cells[col(stats.p5)] = "|"
    cells[col(stats.p95)] = "|"
    cells[col(stats.p25)] = "["
    cells[col(stats.p75)] = "]"
    return "".join(cells)


def box_plot(
    series: Dict[str, SummaryStats],
    width: int = 50,
    unit: str = "",
    lo: Optional[float] = None,
    hi: Optional[float] = None,
) -> str:
    """A multi-row box plot with a shared scale and axis caption.

    Raises:
        ValueError: With no series.
    """
    if not series:
        raise ValueError("nothing to plot")
    lo_val = min(s.p5 for s in series.values()) if lo is None else lo
    hi_val = max(s.p95 for s in series.values()) if hi is None else hi
    if hi_val <= lo_val:
        hi_val = lo_val + 1.0
    span = hi_val - lo_val
    lo_val -= 0.05 * span
    hi_val += 0.05 * span
    label_width = max(len(k) for k in series)
    lines = []
    for name, stats in series.items():
        row = render_box(stats, lo_val, hi_val, width)
        lines.append(f"{name:<{label_width}s} {row} mean {stats.mean:.2f}{unit}")
    axis = (
        f"{'':<{label_width}s} {lo_val:<{width // 2}.2f}"
        f"{hi_val:>{width - width // 2}.2f}"
    )
    lines.append(axis)
    return "\n".join(lines)


def sparkline(values: Sequence[float]) -> str:
    """A one-line trend glyph string (8 levels).

    Raises:
        ValueError: On empty input.
    """
    if not values:
        raise ValueError("nothing to plot")
    glyphs = "▁▂▃▄▅▆▇█"
    lo, hi = min(values), max(values)
    if hi <= lo:
        return glyphs[0] * len(values)
    out = []
    for v in values:
        index = int((v - lo) / (hi - lo) * (len(glyphs) - 1))
        out.append(glyphs[index])
    return "".join(out)
