"""Synthetic head/face/hand motion — the ZED 2i capture substitute.

The paper records 2,000 RGB-D frames of a person's head and hands and
extracts keypoints per frame (Sec. 4.3).  This module synthesizes the same
keypoint streams directly: an Ornstein–Uhlenbeck head pose (people sway,
they do not random-walk away), a blink process, a speech-like mouth
envelope, and slow hand gestures.  What matters downstream is that the
streams have realistic temporal statistics, because those determine the
compressed bitrate of the semantic codec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from repro.checks import at_least, fraction, positive
from repro.keypoints.schema import FacialLandmarks, TEMPLATES, semantic_subset


@dataclass
class KeypointFrame:
    """All keypoints extracted from one captured frame.

    Attributes:
        index: Frame number.
        timestamp: Capture time in seconds.
        face: ``(68, 3)`` dlib facial landmarks.
        left_hand: ``(21, 3)`` OpenPose hand landmarks.
        right_hand: ``(21, 3)`` OpenPose hand landmarks.
    """

    index: int
    timestamp: float
    face: np.ndarray
    left_hand: np.ndarray
    right_hand: np.ndarray

    def semantic_points(self) -> np.ndarray:
        """The 74 semantic keypoints: 32 mouth+eyes + both hands."""
        return np.concatenate(
            [semantic_subset(self.face), self.left_hand, self.right_hand]
        )


class _OrnsteinUhlenbeck:
    """Mean-reverting Gaussian process, one value per dimension."""

    def __init__(self, dims: int, theta: float, sigma: float,
                 rng: np.random.Generator) -> None:
        self.theta = theta
        self.sigma = sigma
        self.state = np.zeros(dims)
        self._rng = rng

    def step(self, dt: float) -> np.ndarray:
        drift = -self.theta * self.state * dt
        diffusion = self.sigma * np.sqrt(dt) * self._rng.standard_normal(
            self.state.shape
        )
        self.state = self.state + drift + diffusion
        return self.state


def _rotation_matrix(angles: np.ndarray) -> np.ndarray:
    """Rotation from (roll, pitch, yaw) in radians, ZYX convention."""
    roll, pitch, yaw = angles
    cr, sr = np.cos(roll), np.sin(roll)
    cp, sp = np.cos(pitch), np.sin(pitch)
    cy, sy = np.cos(yaw), np.sin(yaw)
    rx = np.array([[1, 0, 0], [0, cr, -sr], [0, sr, cr]])
    ry = np.array([[cp, 0, sp], [0, 1, 0], [-sp, 0, cp]])
    rz = np.array([[cy, -sy, 0], [sy, cy, 0], [0, 0, 1]])
    return rz @ ry @ rx


@dataclass
class MotionSynthesizer:
    """Generates keypoint frames at a fixed frame rate.

    Args:
        fps: Capture frame rate.
        seed: Randomness seed; two synthesizers with the same seed emit
            identical streams.
        speech_activity: Fraction of time the subject is talking, driving
            the mouth envelope.
    """

    fps: float = 90.0
    seed: int = 0
    speech_activity: float = 0.6
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        positive(self.fps, "fps")
        fraction(self.speech_activity, "speech_activity")
        self._rng = np.random.default_rng(self.seed)
        self._head_pose = _OrnsteinUhlenbeck(3, theta=0.8, sigma=0.06, rng=self._rng)
        self._head_pos = _OrnsteinUhlenbeck(3, theta=0.5, sigma=0.01, rng=self._rng)
        self._hand_pose = _OrnsteinUhlenbeck(6, theta=0.6, sigma=0.05, rng=self._rng)
        self._blink_timer = self._next_blink()
        self._blink_phase = -1.0  # negative: not blinking

    def _next_blink(self) -> float:
        # People blink every 3-6 seconds.
        return float(self._rng.uniform(3.0, 6.0))

    def frames(self, count: int) -> Iterator[KeypointFrame]:
        """Yield ``count`` consecutive frames."""
        at_least(count, 1, "count")
        dt = 1.0 / self.fps
        for index in range(count):
            yield self._frame(index, index * dt, dt)

    def _frame(self, index: int, t: float, dt: float) -> KeypointFrame:
        angles = self._head_pose.step(dt)
        position = self._head_pos.step(dt)
        rotation = _rotation_matrix(angles)

        face = TEMPLATES["face"].copy()
        face = self._animate_mouth(face, t)
        face = self._animate_blink(face, dt)
        face = face @ rotation.T + position

        hands = self._hand_pose.step(dt)
        left = TEMPLATES["left_hand"] + hands[:3] * np.array([0.5, 1.0, 1.0])
        right = TEMPLATES["right_hand"] + hands[3:] * np.array([0.5, 1.0, 1.0])
        # Sensor noise: keypoint extractors jitter at the millimeter level.
        noise = lambda shape: self._rng.normal(0.0, 5e-4, shape)  # noqa: E731
        return KeypointFrame(
            index=index,
            timestamp=t,
            face=face + noise(face.shape),
            left_hand=left + noise(left.shape),
            right_hand=right + noise(right.shape),
        )

    def _animate_mouth(self, face: np.ndarray, t: float) -> np.ndarray:
        """Open/close the mouth with a speech-like envelope."""
        talking = self._rng.random() < self.speech_activity
        envelope = 0.5 + 0.5 * np.sin(2 * np.pi * 4.5 * t)  # ~syllable rate
        opening = 0.012 * envelope if talking else 0.001
        lo, hi = FacialLandmarks.MOUTH
        mouth = face[lo:hi]
        below = mouth[:, 2] < mouth[:, 2].mean()
        mouth[below, 2] -= opening
        face[lo:hi] = mouth
        return face

    def _animate_blink(self, face: np.ndarray, dt: float) -> np.ndarray:
        """Close both eyelid rings during a ~150 ms blink."""
        self._blink_timer -= dt
        if self._blink_timer <= 0.0 and self._blink_phase < 0.0:
            self._blink_phase = 0.0
            self._blink_timer = self._next_blink()
        if self._blink_phase >= 0.0:
            closure = np.sin(np.pi * min(self._blink_phase / 0.15, 1.0))
            for lo, hi in (FacialLandmarks.RIGHT_EYE, FacialLandmarks.LEFT_EYE):
                eye = face[lo:hi]
                center_z = eye[:, 2].mean()
                eye[:, 2] = center_z + (eye[:, 2] - center_z) * (1.0 - closure)
                face[lo:hi] = eye
            self._blink_phase += dt
            if self._blink_phase > 0.15:
                self._blink_phase = -1.0
        return face


def capture_session(
    frames: int,
    fps: float = 90.0,
    seed: int = 0,
    speech_activity: float = 0.6,
) -> "list[KeypointFrame]":
    """Record a full synthetic capture (the 2,000-frame ZED session)."""
    synth = MotionSynthesizer(fps=fps, seed=seed, speech_activity=speech_activity)
    return list(synth.frames(frames))
