"""Block motion synthesis equals the frame-at-a-time synthesizer exactly.

``MotionSynthesizer.frames(count)`` synthesizes its frames as one block:
only the random draws, the Ornstein–Uhlenbeck steps and the blink timer
run per frame, and the geometry is array math over frames.  The
reference below is the synthesizer it replaced, kept verbatim: one
``_frame`` per frame, each stepping three Ornstein–Uhlenbeck processes,
animating mouth and blink, and rotating the face with its own 3x3
matrix.  Every case reads the block synthesizer in one or more calls,
compares the frames with the reference's one contiguous read with exact
``array_equal``, and then compares the synthesizers' next random draw,
so the state the calls leave behind matches too.  If a platform's batched ``sin``/``cos`` or
``matmul`` ever differs from the per-frame calls, that piece of the
block must be computed per frame; the comparison stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checks import at_least, fraction, positive
from repro.keypoints.motion import KeypointFrame, MotionSynthesizer
from repro.keypoints.schema import FacialLandmarks, TEMPLATES


# --- the reference: the frame-at-a-time synthesizer, verbatim ----------

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
class PerFrameSynthesizer:
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


# --- the comparison -------------------------------------------------------

def assert_same_frames(got, expected) -> None:
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert (a.index, a.timestamp) == (b.index, b.timestamp)
        assert np.array_equal(a.face, b.face), a.index
        assert np.array_equal(a.left_hand, b.left_hand), a.index
        assert np.array_equal(a.right_hand, b.right_hand), a.index


def assert_same_calls(counts, fps=90.0, seed=0, speech_activity=0.6) -> None:
    """``frames(c)`` for each ``c`` in turn on the block synthesizer
    equals ``frames(sum(counts))`` on the reference; then their next
    random draw."""
    block = MotionSynthesizer(fps, seed, speech_activity)
    oracle = PerFrameSynthesizer(fps, seed, speech_activity)
    got = [frame for count in counts for frame in block.frames(count)]
    assert_same_frames(got, list(oracle.frames(sum(counts))))
    assert block._rng.random() == oracle._rng.random()


GRID = list(product([90.0, 60.0, 30.0, 7.5, 89.7], [0.0, 0.35, 0.6, 1.0]))


@pytest.mark.parametrize("fps,speech_activity", GRID)
@pytest.mark.parametrize("count", [1, 7, 257, 2000])
def test_block_equals_per_frame(fps, speech_activity, count):
    assert_same_calls([count], fps=fps, seed=count,
                      speech_activity=speech_activity)


@pytest.mark.parametrize("fps,speech_activity", GRID)
@pytest.mark.parametrize("counts", [[10, 3], [1, 256]],
                         ids=lambda counts: "+".join(map(str, counts)))
def test_split_reads_equal_one_contiguous_read(fps, speech_activity, counts):
    """A read continues where the last one stopped: indices, timestamps
    and the mouth envelope's phase run on with the motion, the blink
    timer and the generator."""
    assert_same_calls(counts, fps=fps, seed=sum(counts),
                      speech_activity=speech_activity)


def test_a_blink_spans_two_calls():
    probe = PerFrameSynthesizer(seed=0)
    blinked = 0  # frames up to and including the first blinking one
    while probe._blink_phase < 0.0:
        list(probe.frames(1))
        blinked += 1
    assert_same_calls([blinked, 20, 5], seed=0)


def test_a_generator_draws_its_block_when_first_advanced():
    """A consumer that stops early leaves the synthesizer ``count``
    frames on (the whole block was drawn)."""
    block = MotionSynthesizer(seed=4)
    first = next(block.frames(5))
    expected = list(PerFrameSynthesizer(seed=4).frames(8))
    assert_same_frames([first], expected[:1])
    assert_same_frames(list(block.frames(3)), expected[5:])


def test_frames_are_views_into_one_block():
    frames = list(MotionSynthesizer(seed=2).frames(4))
    block = frames[0].face.base
    assert block is not None and block.shape == (4, 68, 3)
    assert all(f.face.base is block for f in frames)


@settings(max_examples=30, deadline=None)
@given(fps=st.floats(min_value=1.0, max_value=240.0),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       speech_activity=st.floats(min_value=0.0, max_value=1.0),
       counts=st.lists(st.integers(min_value=1, max_value=120),
                       min_size=1, max_size=4))
def test_block_equals_per_frame_anywhere(fps, seed, speech_activity, counts):
    assert_same_calls(counts, fps=fps, seed=seed,
                      speech_activity=speech_activity)
