"""RGB-D camera recording — the ZED 2i substitute.

The paper captures a 2,000-frame RGB-D video of a subject's head and hands
with a ZED 2i, then extracts dlib/OpenPose keypoints from it (Sec. 4.3).
Here the camera and the extractors collapse into one step: the recording
*is* a keypoint stream with extractor-level noise, produced by the motion
synthesizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro import calibration
from repro.checks import at_least
from repro.keypoints.motion import KeypointFrame, MotionSynthesizer


@dataclass
class RgbdCamera:
    """A stationary RGB-D camera recording a seated subject.

    Args:
        fps: Capture rate.  The paper streams the extracted keypoints at
            90 FPS, Vision Pro's target rate.
        seed: Subject-motion seed.
    """

    fps: float = float(calibration.TARGET_FPS)
    seed: int = 0

    def record(self, frames: int = calibration.RGBD_CAPTURE_FRAMES
               ) -> List[KeypointFrame]:
        """Record ``frames`` frames and run keypoint extraction.

        Defaults to the paper's 2,000-frame session.
        """
        at_least(frames, 1, "frames")
        synth = MotionSynthesizer(fps=self.fps, seed=self.seed)
        return list(synth.frames(frames))
