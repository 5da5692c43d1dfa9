"""Triangle mesh container and geometric queries."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.checks import positive


@dataclass
class TriangleMesh:
    """An indexed triangle mesh.

    Attributes:
        vertices: ``(V, 3)`` float64 array of positions (meters).
        faces: ``(F, 3)`` int32 array of vertex indices, counter-clockwise.
        name: Optional label for provenance.
    """

    vertices: np.ndarray
    faces: np.ndarray
    name: str = "mesh"

    def __post_init__(self) -> None:
        self.vertices = np.asarray(self.vertices, dtype=np.float64)
        self.faces = np.asarray(self.faces, dtype=np.int32)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValueError(f"vertices must be (V, 3), got {self.vertices.shape}")
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise ValueError(f"faces must be (F, 3), got {self.faces.shape}")
        if len(self.faces) and (
            self.faces.min() < 0 or self.faces.max() >= len(self.vertices)
        ):
            raise ValueError("face indices out of range")

    @property
    def triangle_count(self) -> int:
        """Number of triangles — the paper's visual-quality metric (Sec. 3.2)."""
        return len(self.faces)

    @property
    def vertex_count(self) -> int:
        """Number of vertices."""
        return len(self.vertices)

    def bounding_box(self) -> Tuple[np.ndarray, np.ndarray]:
        """(min_corner, max_corner) of the axis-aligned bounding box."""
        if not len(self.vertices):
            raise ValueError("empty mesh has no bounding box")
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def centroid(self) -> np.ndarray:
        """Mean vertex position."""
        return self.vertices.mean(axis=0)

    def face_areas(self) -> np.ndarray:
        """Per-triangle areas."""
        a = self.vertices[self.faces[:, 0]]
        b = self.vertices[self.faces[:, 1]]
        c = self.vertices[self.faces[:, 2]]
        return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)

    def surface_area(self) -> float:
        """Total surface area."""
        return float(self.face_areas().sum())

    def degenerate_face_count(self, eps: float = 1e-12) -> int:
        """Triangles with (numerically) zero area."""
        return int((self.face_areas() <= eps).sum())

    def translated(self, offset: np.ndarray) -> "TriangleMesh":
        """A copy shifted by ``offset``."""
        return TriangleMesh(self.vertices + np.asarray(offset, dtype=np.float64),
                            self.faces.copy(), name=self.name)

    def scaled(self, factor: float) -> "TriangleMesh":
        """A copy uniformly scaled about the origin."""
        positive(factor, "factor")
        return TriangleMesh(self.vertices * factor, self.faces.copy(), name=self.name)

    def copy(self) -> "TriangleMesh":
        """A deep copy."""
        return TriangleMesh(self.vertices.copy(), self.faces.copy(), name=self.name)
