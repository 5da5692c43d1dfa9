"""Synthetic head/face/hand motion — the ZED 2i capture substitute.

The paper records 2,000 RGB-D frames of a person's head and hands and
extracts keypoints per frame (Sec. 4.3).  This module synthesizes the same
keypoint streams directly: an Ornstein–Uhlenbeck head pose (people sway,
they do not random-walk away), a blink process, a speech-like mouth
envelope, and slow hand gestures.  What matters downstream is that the
streams have realistic temporal statistics, because those determine the
compressed bitrate of the semantic codec.

A capture is one block: only the random draws and the recurrences run
frame by frame.  ``tests/test_motion_block.py`` holds it bit for bit to
the frame-at-a-time synthesizer it replaced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Tuple

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


#: Ornstein–Uhlenbeck mean reversion and volatility per motion dimension:
#: head pose (roll, pitch, yaw), head position, left and right hand.
_THETA = np.repeat([0.8, 0.5, 0.6], [3, 3, 6])
_SIGMA = np.repeat([0.06, 0.01, 0.05], [3, 3, 6])
_FACE, _HAND = TEMPLATES["face"].size, TEMPLATES["left_hand"].size
_BLINK_S = 0.15
_MOUTH_LO, _MOUTH_HI = FacialLandmarks.MOUTH
_MOUTH_Z = TEMPLATES["face"][_MOUTH_LO:_MOUTH_HI, 2]
#: The lower-lip points, which drop as the mouth opens.
_LOWER_LIP = _MOUTH_LO + np.flatnonzero(_MOUTH_Z < _MOUTH_Z.mean())


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
        self._motion = np.zeros(len(_THETA))
        self._blink_timer = self._next_blink()
        self._blink_phase = -1.0  # negative: not blinking
        self._next_index = 0

    def _next_blink(self) -> float:
        # People blink every 3-6 seconds.
        return float(self._rng.uniform(3.0, 6.0))

    def frames(self, count: int) -> Iterator[KeypointFrame]:
        """Yield the next ``count`` frames: ``frames(a)`` then
        ``frames(b)`` yields what ``frames(a + b)`` would.

        The generator synthesizes the whole block when first advanced;
        each frame's arrays are views into it.
        """
        at_least(count, 1, "count")
        dt = 1.0 / self.fps
        start = self._next_index
        self._next_index += count
        for index, arrays in enumerate(zip(*self._block(start, count, dt)),
                                       start):
            yield KeypointFrame(index, index * dt, *arrays)

    def _block(self, start: int, count: int,
               dt: float) -> Tuple[np.ndarray, ...]:
        """Face, left-hand and right-hand keypoints of frames ``start``
        to ``start + count``."""
        # Per frame: head steps, speech coin, blink time if due, hands, noise.
        rng, normal = self._rng, self._rng.standard_normal
        draws = np.empty((count, len(_THETA) + _FACE + 2 * _HAND))
        talking = np.empty(count, dtype=bool)
        blink = np.full(count, -1.0)  # blink phase; negative: eyes open
        timer, phase = self._blink_timer, self._blink_phase
        for i in range(count):
            normal(out=draws[i, :6])
            talking[i] = rng.random() < self.speech_activity
            timer -= dt
            if timer <= 0.0 and phase < 0.0:
                phase, timer = 0.0, self._next_blink()
            if phase >= 0.0:
                blink[i], phase = phase, phase + dt
                if phase > _BLINK_S:
                    phase = -1.0
            normal(out=draws[i, 6:])
        self._blink_timer, self._blink_phase = timer, phase

        diffusion = draws[:, :len(_THETA)] * (_SIGMA * np.sqrt(dt))
        motion = np.empty((count, len(_THETA)))
        state, neg_theta = self._motion, -_THETA
        for i in range(count):
            motion[i] = state = state + neg_theta * state * dt + diffusion[i]
        self._motion = state

        face = np.repeat(TEMPLATES["face"][None], count, axis=0)
        # A speech-like mouth envelope at ~4.5 syllables per second.
        t = np.arange(start, start + count) * dt
        envelope = 0.5 + 0.5 * np.sin(2 * np.pi * 4.5 * t)
        opening = np.where(talking, 0.012 * envelope, 0.001)
        face[:, _LOWER_LIP, 2] -= opening[:, None]
        # Both eyelid rings close during a ~150 ms blink.
        rows = np.flatnonzero(blink >= 0.0)
        closure = np.sin(np.pi * np.minimum(blink[rows] / _BLINK_S, 1.0))
        for lo, hi in (FacialLandmarks.RIGHT_EYE, FacialLandmarks.LEFT_EYE):
            eye_z = TEMPLATES["face"][lo:hi, 2]
            center_z = eye_z.mean()
            face[rows, lo:hi, 2] = (
                center_z + (eye_z - center_z) * (1.0 - closure)[:, None])
        face = face @ _rotations(motion[:, :3]).transpose(0, 2, 1)
        face += motion[:, None, 3:6]
        hands = motion[:, 6:] * np.tile([0.5, 1.0, 1.0], 2)
        left = TEMPLATES["left_hand"] + hands[:, None, :3]
        right = TEMPLATES["right_hand"] + hands[:, None, 3:]
        # Keypoint extractors jitter at the millimeter level.
        noise = 5e-4 * draws[:, len(_THETA):]
        face += noise[:, :_FACE].reshape(face.shape)
        left += noise[:, _FACE:-_HAND].reshape(left.shape)
        right += noise[:, -_HAND:].reshape(right.shape)
        return face, left, right


def _rotations(angles: np.ndarray) -> np.ndarray:
    """Rotations from (roll, pitch, yaw) rows in radians, ZYX convention."""
    (cr, cp, cy), (sr, sp, sy) = np.cos(angles).T, np.sin(angles).T
    one, zero = np.ones(len(angles)), np.zeros(len(angles))
    rx, ry, rz = (np.stack(m, axis=1).reshape(-1, 3, 3) for m in (
        (one, zero, zero, zero, cr, -sr, zero, sr, cr),
        (cp, zero, sp, zero, one, zero, -sp, zero, cp),
        (cy, -sy, zero, sy, cy, zero, zero, zero, one)))
    return rz @ ry @ rx


def capture_session(
    frames: int,
    fps: float = 90.0,
    seed: int = 0,
    speech_activity: float = 0.6,
) -> "list[KeypointFrame]":
    """Record a full synthetic capture (the 2,000-frame ZED session)."""
    synth = MotionSynthesizer(fps=fps, seed=seed, speech_activity=speech_activity)
    return list(synth.frames(frames))
