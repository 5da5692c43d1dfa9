"""Viewer camera: frustum tests, eccentricity, and screen coverage.

Vision Pro's rendering load splits into a geometry term (triangles) and a
fragment term (shaded screen area).  The camera provides the two geometric
inputs those terms need: whether/where a persona falls in the view frustum,
and what fraction of the display it covers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro import checks

#: Horizontal field of view of the headset, degrees (full angle).
FOV_HORIZONTAL_DEG = 100.0
#: Vertical field of view, degrees (full angle).
FOV_VERTICAL_DEG = 78.0

#: Fraction of the display a human head covers at 1 m viewing distance.
#: This constant anchors the fragment-cost fit in :mod:`repro.rendering.cost`
#: (only the product of coverage and the fitted per-coverage cost matters).
HEAD_COVERAGE_AT_1M = 0.0625


def head_coverage(distance_m: float) -> float:
    """Screen-coverage fraction of a head at ``distance_m`` (inverse square).

    Raises:
        ValueError: For non-positive distances.
    """
    if not 0 < distance_m < math.inf:  # per persona per frame: no call
        raise ValueError(f"distance_m must be finite and positive: {distance_m}")
    return min(1.0, HEAD_COVERAGE_AT_1M / (distance_m * distance_m))


def _normalize(v: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(v)
    if not norm >= 1e-12:
        raise ValueError("cannot normalize a zero vector")
    return v / norm


@dataclass
class Camera:
    """The viewer's head pose: position plus forward direction.

    The view frustum is centered on ``forward``; gaze (eye direction) is
    tracked separately by :class:`repro.rendering.gaze.AttentionModel`
    because eyes move within a stationary head.
    """

    position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    forward: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0]))

    def __post_init__(self) -> None:
        self.position = np.asarray(self.position, dtype=np.float64)
        self.forward = _normalize(np.asarray(self.forward, dtype=np.float64))

    def direction_to(self, point: np.ndarray) -> np.ndarray:
        """Unit vector from the camera to ``point``."""
        return _normalize(np.asarray(point, dtype=np.float64) - self.position)

    def distance_to(self, point: np.ndarray) -> float:
        """Euclidean distance to ``point``."""
        return float(np.linalg.norm(np.asarray(point) - self.position))

    def angle_from_forward_deg(self, point: np.ndarray) -> float:
        """Angle between the head's forward axis and ``point``, degrees."""
        cos = float(np.clip(np.dot(self.direction_to(point), self.forward), -1, 1))
        return math.degrees(math.acos(cos))

    def in_viewport(self, point: np.ndarray, margin_deg: float = 0.0) -> bool:
        """Whether ``point`` lies inside the (elliptical) view frustum.

        ``margin_deg`` widens (positive) or narrows (negative) the frustum,
        modeling the guard band renderers keep around the visible region.
        """
        direction = self.direction_to(point)
        forward = self.forward
        # Build a local frame: forward, right, up.
        up_hint = np.array([0.0, 0.0, 1.0])
        if abs(np.dot(forward, up_hint)) > 0.99:
            up_hint = np.array([0.0, 1.0, 0.0])
        right = _normalize(np.cross(forward, up_hint))
        up = np.cross(right, forward)
        x = float(np.dot(direction, forward))
        if x <= 0:
            return False
        yaw = math.degrees(math.atan2(float(np.dot(direction, right)), x))
        pitch = math.degrees(math.atan2(float(np.dot(direction, up)), x))
        half_h = FOV_HORIZONTAL_DEG / 2.0 + margin_deg
        half_v = FOV_VERTICAL_DEG / 2.0 + margin_deg
        return (yaw / half_h) ** 2 + (pitch / half_v) ** 2 <= 1.0

    def turned_toward(self, point: np.ndarray, fraction: float) -> "Camera":
        """A camera rotated ``fraction`` of the way toward ``point``.

        Used by the attention model: the head follows the eyes with a lag.
        """
        checks.fraction(fraction, "fraction")
        target = self.direction_to(point)
        blended = _normalize((1.0 - fraction) * self.forward + fraction * target)
        return Camera(self.position.copy(), blended)
