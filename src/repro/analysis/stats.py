"""Summary statistics in the paper's box-plot vocabulary.

Figures 4-6 of the paper report the 5th/25th/75th/95th percentiles, the
median, and the mean of each metric; :class:`SummaryStats` carries exactly
those.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
# ``np.percentile`` reaches ``np.ma.is_masked`` (through ``np.unique``),
# which imports ``numpy.ma`` on first use, ~18 ms; load it with the
# package so no timed summary pays that import.
import numpy.ma  # noqa: F401


@dataclass(frozen=True)
class SummaryStats:
    """The paper's box-plot summary of one sample set."""

    mean: float
    std: float
    p5: float
    p25: float
    median: float
    p75: float
    p95: float
    count: int

    def row(self, label: str, unit: str = "") -> str:
        """A printable table row."""
        return (
            f"{label:28s} mean={self.mean:8.2f}{unit} std={self.std:6.2f} "
            f"p5={self.p5:8.2f} p25={self.p25:8.2f} med={self.median:8.2f} "
            f"p75={self.p75:8.2f} p95={self.p95:8.2f} (n={self.count})"
        )


def summarize_samples(samples: Sequence[float]) -> SummaryStats:
    """Compute the paper's summary for a sample set.

    Raises:
        ValueError: On an empty sample set.
    """
    if len(samples) == 0:
        raise ValueError("cannot summarize zero samples")
    data = np.asarray(samples, dtype=float)
    p5, p25, p50, p75, p95 = np.percentile(data, [5, 25, 50, 75, 95])
    return SummaryStats(
        mean=float(data.mean()),
        std=float(data.std()),
        p5=float(p5),
        p25=float(p25),
        median=float(p50),
        p75=float(p75),
        p95=float(p95),
        count=len(data),
    )
