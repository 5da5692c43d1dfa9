"""Viewer camera: frustum tests, eccentricity, and screen coverage.

Vision Pro's rendering load splits into a geometry term (triangles) and a
fragment term (shaded screen area).  The camera provides the two geometric
inputs those terms need: whether/where a persona falls in the view frustum,
and what fraction of the display it covers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Tuple

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


def _unit(x: float, y: float, z: float) -> Tuple[float, float, float]:
    """:func:`_normalize` on three floats, with the same zero-vector and
    NaN check.  The norm may differ from numpy's in the last bit (BLAS
    sums the squares in its own order), so only yes/no tests use it."""
    norm = math.sqrt(x * x + y * y + z * z)
    if not norm >= 1e-12:
        raise ValueError("cannot normalize a zero vector")
    return x / norm, y / norm, z / norm


@dataclass
class Camera:
    """The viewer's head pose: position plus forward direction.

    The view frustum is centered on ``forward``; gaze (eye direction) is
    tracked separately by :class:`repro.rendering.gaze.AttentionModel`
    because eyes move within a stationary head.  A camera is one pose:
    the frustum's axes are derived from ``forward`` once, so turn a head
    by building a new camera (as :meth:`turned_toward` does).
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

    @functools.cached_property
    def _axes(self) -> Tuple[float, ...]:
        """Forward, right and up, as nine floats: the frustum's frame.

        Computed once per camera, on first use: ``in_viewport`` runs once
        per persona per frame, and numpy's ``cross`` on 3-vectors costs
        tens of microseconds.  A zero or NaN right axis raises the
        ``ValueError`` from ``in_viewport``, not from the constructor.
        """
        fx, fy, fz = self.forward.tolist()
        # The up hint is world z, or world y when forward is within ~8
        # degrees of vertical (|forward . z| > 0.99).
        hx, hy, hz = (0.0, 1.0, 0.0) if abs(fz) > 0.99 else (0.0, 0.0, 1.0)
        # right = unit(forward x hint), up = right x forward.
        rx, ry, rz = _unit(fy * hz - fz * hy, fz * hx - fx * hz,
                           fx * hy - fy * hx)
        return (fx, fy, fz, rx, ry, rz,
                ry * fz - rz * fy, rz * fx - rx * fz, rx * fy - ry * fx)

    def in_viewport(self, point: np.ndarray, margin_deg: float = 0.0) -> bool:
        """Whether ``point`` lies inside the (elliptical) view frustum.

        ``margin_deg`` widens (positive) or narrows (negative) the frustum,
        modeling the guard band renderers keep around the visible region.
        The test runs on Python floats; its floats may differ from numpy's
        in the last bit, so they never leave this method.
        """
        px, py, pz = np.asarray(point, dtype=np.float64).tolist()
        cx, cy, cz = self.position.tolist()
        dx, dy, dz = _unit(px - cx, py - cy, pz - cz)
        fx, fy, fz, rx, ry, rz, ux, uy, uz = self._axes
        x = dx * fx + dy * fy + dz * fz
        if x <= 0:
            return False
        yaw = math.degrees(math.atan2(dx * rx + dy * ry + dz * rz, x))
        pitch = math.degrees(math.atan2(dx * ux + dy * uy + dz * uz, x))
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
