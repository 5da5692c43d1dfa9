"""Scene layout and gaze/attention dynamics.

FaceTime arranges spatial personas on an arc around the viewer; the
viewer's eyes dwell on one participant at a time, saccade between them,
and occasionally glance away, while the head follows the eyes with a lag.
These dynamics are what turn the discrete LOD tiers of
:mod:`repro.rendering.lod` into the *distributions* of Fig. 6: the gazed
persona renders FULL, the rest sit in the periphery, edge personas leave
the viewport when the head turns, and mid-saccade instants briefly put two
personas in the foveal zone (the > 9 ms GPU tail at five users).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from repro.checks import at_least, positive
from repro.rendering.camera import Camera
from repro.rendering.lod import PersonaView

#: Angular spacing between adjacent personas on the arc, degrees.
ARC_SPACING_DEG = 27.5

#: Viewing distance starts at 1.3 m for an intimate two-person call and
#: grows as the arc accommodates more participants.
BASE_DISTANCE_M = 1.3
DISTANCE_PER_EXTRA_USER_M = 0.1

#: Fraction of the gaze deflection the head follows (eyes lead, head lags).
HEAD_FOLLOW_FRACTION = 0.6


@dataclass(frozen=True)
class ScenePersona:
    """A remote persona placed in the local user's space."""

    persona_id: str
    angle_deg: float
    distance_m: float

    @property
    def position(self) -> np.ndarray:
        """World position; the viewer sits at the origin facing +x."""
        rad = math.radians(self.angle_deg)
        return np.array([
            self.distance_m * math.cos(rad),
            self.distance_m * math.sin(rad),
            0.0,
        ])


#: The arc never spans more than this total angle: with many personas the
#: layout packs them closer so everyone stays (mostly) in view.
MAX_ARC_SPAN_DEG = 110.0


def arrange_personas(persona_ids: Sequence[str],
                     spacing_deg: float = ARC_SPACING_DEG) -> List[ScenePersona]:
    """Place personas on a centered arc at the session's viewing distance.

    With ``n`` participants in the call there are ``n - 1`` remote
    personas; distance scales with participant count the way FaceTime's
    circle grows, and spacing shrinks once the arc would exceed
    ``MAX_ARC_SPAN_DEG`` (the packing pressure that makes a sixth user
    so expensive — see the frame-rate experiment).
    """
    count = len(persona_ids)
    at_least(count, 1, "count")
    if count > 1:
        spacing_deg = min(spacing_deg, MAX_ARC_SPAN_DEG / count)
    distance = BASE_DISTANCE_M + DISTANCE_PER_EXTRA_USER_M * (count - 1)
    offset = (count - 1) / 2.0
    return [
        ScenePersona(pid, (i - offset) * spacing_deg, distance)
        for i, pid in enumerate(persona_ids)
    ]


@dataclass
class AttentionModel:
    """Markov gaze over the personas plus occasional look-aways.

    Per frame the model advances dwell/saccade state and returns the
    camera (head pose) and per-persona :class:`PersonaView` records with
    gaze eccentricities — exactly the inputs the LOD policy needs.

    Args:
        personas: The arranged scene.
        fps: Frame rate the model is stepped at.
        seed: Randomness seed.
        mean_dwell_s: Mean dwell time on one persona.
        saccade_s: Saccade duration (gaze interpolates during it).
        look_away_prob: Probability a dwell targets the environment
            instead of a persona (glancing at shared content, the room...).
    """

    personas: Sequence[ScenePersona]
    fps: float = 90.0
    seed: int = 0
    mean_dwell_s: float = 1.5
    saccade_s: float = 0.12
    look_away_prob: float = 0.03
    look_away_angle_deg: float = 60.0

    def __post_init__(self) -> None:
        if not self.personas:
            raise ValueError("attention needs at least one persona")
        positive(self.fps, "fps")
        self._rng = np.random.default_rng(self.seed)
        self._gaze_angle = self.personas[0].angle_deg
        self._target_angle = self._gaze_angle
        self._source_angle = self._gaze_angle
        self._dwell_left = self._draw_dwell()
        self._saccade_left = 0.0
        self._head_angle = 0.0
        # Personas hold still: each frame's views share one read-only
        # position array per persona instead of building it again.
        self._positions = [p.position for p in self.personas]
        for position in self._positions:
            position.setflags(write=False)

    def _draw_dwell(self) -> float:
        return float(self._rng.exponential(self.mean_dwell_s))

    def _pick_target(self) -> "tuple[float, float]":
        """Next gaze target and its dwell time.

        Look-aways are brief glances (a fraction of a second), dwells on a
        persona follow the exponential attention distribution.
        """
        if self._rng.random() < self.look_away_prob:
            side = 1.0 if self._rng.random() < 0.5 else -1.0
            glance = float(self._rng.uniform(0.3, 0.8))
            return side * self.look_away_angle_deg, glance
        index = int(self._rng.integers(len(self.personas)))
        return self.personas[index].angle_deg, self._draw_dwell()

    def step(self) -> "GazeSample":
        """Advance one frame and report the viewer's pose and the views."""
        dt = 1.0 / self.fps
        if self._saccade_left > 0.0:
            self._saccade_left -= dt
            progress = 1.0 - max(self._saccade_left, 0.0) / self.saccade_s
            self._gaze_angle = (
                self._source_angle
                + (self._target_angle - self._source_angle) * progress
            )
        else:
            self._gaze_angle = self._target_angle
            self._dwell_left -= dt
            if self._dwell_left <= 0.0:
                self._source_angle = self._gaze_angle
                self._target_angle, self._dwell_left = self._pick_target()
                self._saccade_left = self.saccade_s
        # Head follows the gaze with a lag, toward a partial deflection.
        head_target = self._gaze_angle * HEAD_FOLLOW_FRACTION
        self._head_angle += (head_target - self._head_angle) * min(1.0, 8.0 * dt)
        # Micro-saccades / tracker jitter.
        gaze = self._gaze_angle + float(self._rng.normal(0.0, 1.0))

        head_rad = math.radians(self._head_angle)
        camera = Camera(
            position=np.zeros(3),
            forward=np.array([math.cos(head_rad), math.sin(head_rad), 0.0]),
        )
        views = [
            PersonaView(
                persona_id=p.persona_id,
                position=position,
                gaze_eccentricity_deg=abs(p.angle_deg - gaze),
            )
            for p, position in zip(self.personas, self._positions)
        ]
        return GazeSample(camera=camera, views=views, gaze_angle_deg=gaze)


@dataclass(frozen=True)
class GazeSample:
    """One frame of viewer state."""

    camera: Camera
    views: List[PersonaView]
    gaze_angle_deg: float
