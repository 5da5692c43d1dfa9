"""Frame-rate accounting: from per-frame GPU times to displayed FPS.

Sec. 3.2 lists "Frame Rate and Rendering Time for Each Frame" among the
metrics: the target is 90 FPS and a frame that overruns its ~11.1 ms
budget misses its vsync slot, so the previous image is shown again and
the *displayed* frame rate drops.  This module turns a session's
:class:`~repro.rendering.pipeline.FrameStats` sequence into that metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro import calibration
from repro.checks import positive
from repro.rendering.pipeline import FrameStats


@dataclass(frozen=True)
class FrameRateReport:
    """Displayed-frame-rate summary of one rendered session."""

    target_fps: float
    effective_fps: float
    frames_rendered: int
    frames_missed: int
    worst_consecutive_misses: int

    @property
    def miss_rate(self) -> float:
        """Fraction of frames that overran the vsync budget."""
        if self.frames_rendered == 0:
            return 0.0
        return self.frames_missed / self.frames_rendered

    def meets_target(self, tolerance: float = 0.05) -> bool:
        """Whether the displayed rate stays within ``tolerance`` of target."""
        return self.effective_fps >= self.target_fps * (1.0 - tolerance)


def vsync_slots(gpu_ms: float,
                deadline_ms: float = calibration.FRAME_DEADLINE_MS) -> int:
    """Number of vsync intervals a frame occupies (1 = on time).

    Raises:
        ValueError: For non-positive deadlines.
    """
    positive(deadline_ms, "deadline_ms")
    if gpu_ms <= 0:
        return 1
    return max(1, math.ceil(gpu_ms / deadline_ms))


def analyze_frame_rate(
    frames: Sequence[FrameStats],
    target_fps: float = float(calibration.TARGET_FPS),
) -> FrameRateReport:
    """Compute displayed FPS from per-frame GPU times.

    A frame occupying ``k`` vsync slots displays one new image per ``k``
    slots; effective FPS is the target divided by the mean slot count.

    Raises:
        ValueError: On an empty frame sequence.
    """
    if not frames:
        raise ValueError("no frames to analyze")
    deadline_ms = 1000.0 / target_fps
    slots = [vsync_slots(f.gpu_ms, deadline_ms) for f in frames]
    missed = sum(1 for s in slots if s > 1)
    worst_run = run = 0
    for s in slots:
        run = run + 1 if s > 1 else 0
        worst_run = max(worst_run, run)
    effective = target_fps * len(slots) / sum(slots)
    return FrameRateReport(
        target_fps=target_fps,
        effective_fps=effective,
        frames_rendered=len(frames),
        frames_missed=missed,
        worst_consecutive_misses=worst_run,
    )
