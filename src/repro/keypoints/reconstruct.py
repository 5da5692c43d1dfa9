"""Persona reconstruction from received semantic keypoints.

The receiving Vision Pro turns each semantic frame back into a renderable
persona mesh by deforming the pre-captured template (Sec. 4.3's semantic
communication paradigm, [22]).  Reconstruction is a linear blend: every
template vertex carries Gaussian-falloff weights toward its nearby
keypoints, and the received keypoint displacements are blended through
those weights.

Crucially for the rate-adaptation finding (Sec. 4.3): reconstruction
*requires* the full semantic frame.  When a required keypoint group (eyes,
mouth, either hand) is missing or the frame is corrupt, reconstruction
fails — "missing certain parts of semantic information can result in
failed content reconstruction" — which is what surfaces to the user as
"poor connection" below the 700 Kbps cutoff.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro import calibration
from repro.checks import fraction, positive
from repro.keypoints.codec import DecodedKeypointFrame
from repro.keypoints.motion import KeypointFrame
from repro.keypoints.schema import TEMPLATES, semantic_subset
from repro.mesh.model import TriangleMesh

#: Required keypoint groups and their index ranges within the 74-point
#: semantic frame layout: [eyes 0:12, mouth 12:32, left hand 32:53,
#: right hand 53:74].
SEMANTIC_GROUPS: Dict[str, slice] = {
    "eyes": slice(0, 12),
    "mouth": slice(12, 32),
    "left_hand": slice(32, 53),
    "right_hand": slice(53, 74),
}


class ReconstructionError(RuntimeError):
    """Raised when a persona cannot be reconstructed from received data."""


def check_semantic_frame(frame: DecodedKeypointFrame,
                         min_group_coverage: float = 0.75) -> None:
    """Validate that all required semantic groups were received.

    Raises:
        ReconstructionError: On a missing group or malformed frame.
    """
    if frame.points.shape != (calibration.SEMANTIC_KEYPOINTS_TOTAL, 3):
        raise ReconstructionError(
            f"frame has wrong keypoint shape {frame.points.shape}"
        )
    if not np.all(np.isfinite(frame.points)):
        raise ReconstructionError("frame contains non-finite keypoints")
    for group, index in SEMANTIC_GROUPS.items():
        coverage = float(frame.visibility[index].mean())
        if coverage < min_group_coverage:
            raise ReconstructionError(
                f"semantic group {group!r} coverage {coverage:.0%} "
                f"below {min_group_coverage:.0%}"
            )


def frame_is_reconstructible(frame: DecodedKeypointFrame,
                             min_group_coverage: float = 0.75) -> bool:
    """Boolean form of :func:`check_semantic_frame`."""
    try:
        check_semantic_frame(frame, min_group_coverage)
    except ReconstructionError:
        return False
    return True


def _rest_semantic_points() -> np.ndarray:
    """Rest positions of the 74 semantic keypoints (template pose)."""
    return np.concatenate([
        semantic_subset(TEMPLATES["face"]),
        TEMPLATES["left_hand"],
        TEMPLATES["right_hand"],
    ])


class PersonaReconstructor:
    """Deform a template persona mesh from semantic keypoint frames."""

    def __init__(self, template: TriangleMesh,
                 falloff_m: float = 0.04,
                 min_group_coverage: float = 0.75) -> None:
        """Precompute blend weights from the template.

        Args:
            template: The pre-captured persona mesh (enrollment output).
            falloff_m: Gaussian falloff radius of keypoint influence.
            min_group_coverage: Fraction of a group's keypoints that must
                be visible for the group to count as received.
        """
        positive(falloff_m, "falloff_m")
        fraction(min_group_coverage, "min_group_coverage", "(]")
        self.template = template
        self.min_group_coverage = min_group_coverage
        rest = _rest_semantic_points()
        self._rest = rest
        # (V, K) Gaussian weights, normalized per vertex with a mass floor
        # so vertices far from any keypoint stay put.
        diff = template.vertices[:, None, :] - rest[None, :, :]
        dist2 = np.einsum("vkc,vkc->vk", diff, diff)
        weights = np.exp(-dist2 / (2.0 * falloff_m**2))
        mass = weights.sum(axis=1, keepdims=True)
        self._weights = weights / np.maximum(mass, 1.0)
        self.frames_reconstructed = 0
        self.frames_failed = 0

    def check_frame(self, frame: DecodedKeypointFrame) -> None:
        """Validate that all required semantic groups were received.

        Raises:
            ReconstructionError: On a missing group or malformed frame.
        """
        check_semantic_frame(frame, self.min_group_coverage)

    def reconstruct(self, frame: DecodedKeypointFrame) -> TriangleMesh:
        """Produce the persona mesh for one received frame.

        Raises:
            ReconstructionError: When required semantics are missing.
        """
        try:
            self.check_frame(frame)
        except ReconstructionError:
            self.frames_failed += 1
            raise
        displacement = frame.points.astype(np.float64) - self._rest
        vertex_offsets = self._weights @ displacement
        self.frames_reconstructed += 1
        return TriangleMesh(
            self.template.vertices + vertex_offsets,
            self.template.faces,
            name=f"{self.template.name}-frame{frame.index}",
        )

    def reconstruct_reference(self, frame: KeypointFrame) -> TriangleMesh:
        """Sender-side reference reconstruction (no network in between)."""
        decoded = DecodedKeypointFrame(
            index=frame.index,
            timestamp=frame.timestamp,
            points=frame.semantic_points().astype(np.float32),
            visibility=np.ones(calibration.SEMANTIC_KEYPOINTS_TOTAL, dtype=bool),
            confidence=np.full(calibration.SEMANTIC_KEYPOINTS_TOTAL, 255, np.uint8),
        )
        return self.reconstruct(decoded)
