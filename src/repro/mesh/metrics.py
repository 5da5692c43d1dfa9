"""Mesh quality metrics: how much do decimation and compression hurt?

The paper uses triangle count as its visual-quality proxy (Sec. 3.2).
These metrics put numbers behind that proxy: sampled surface distance
(a one-sided Hausdorff/Chamfer estimate) and bounding-box-normalized
error, so LOD levels and codec quantization settings can be compared on
actual geometric deviation rather than triangle counts alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.checks import at_least
from repro.mesh.model import TriangleMesh


def sample_surface(mesh: TriangleMesh, n_samples: int,
                   seed: int = 0) -> np.ndarray:
    """Uniform-by-area random points on the mesh surface.

    Raises:
        ValueError: For non-positive sample counts or empty meshes.
    """
    at_least(n_samples, 1, "n_samples")
    if mesh.triangle_count == 0:
        raise ValueError("cannot sample an empty mesh")
    rng = np.random.default_rng(seed)
    areas = mesh.face_areas()
    total = areas.sum()
    if not total > 0:
        raise ValueError("mesh has zero surface area")
    chosen = rng.choice(len(areas), size=n_samples, p=areas / total)
    a = mesh.vertices[mesh.faces[chosen, 0]]
    b = mesh.vertices[mesh.faces[chosen, 1]]
    c = mesh.vertices[mesh.faces[chosen, 2]]
    # Uniform barycentric sampling.
    r1 = np.sqrt(rng.random((n_samples, 1)))
    r2 = rng.random((n_samples, 1))
    return (1 - r1) * a + r1 * (1 - r2) * b + r1 * r2 * c


@dataclass(frozen=True)
class SurfaceDistance:
    """Sampled surface-to-surface distance statistics (meters)."""

    mean: float
    p95: float
    max: float
    normalized_mean: float  # mean / bbox diagonal of the reference


def surface_distance(reference: TriangleMesh, candidate: TriangleMesh,
                     n_samples: int = 4000, seed: int = 0) -> SurfaceDistance:
    """One-sided sampled distance from ``reference`` toward ``candidate``.

    Samples the reference surface and measures nearest-vertex distance on
    the candidate — an upper bound on point-to-surface distance that is
    cheap and monotone in actual deviation, which is all LOD comparisons
    need.
    """
    from scipy.spatial import cKDTree

    points = sample_surface(reference, n_samples, seed)
    tree = cKDTree(candidate.vertices)
    distances, _ = tree.query(points, k=1)
    lo, hi = reference.bounding_box()
    diagonal = float(np.linalg.norm(hi - lo))
    return SurfaceDistance(
        mean=float(distances.mean()),
        p95=float(np.percentile(distances, 95)),
        max=float(distances.max()),
        normalized_mean=float(distances.mean() / max(diagonal, 1e-12)),
    )


def quality_fraction(reference: TriangleMesh, candidate: TriangleMesh,
                     n_samples: int = 2000, seed: int = 0) -> float:
    """A [0, 1] quality score: 1 at zero deviation, decaying with error.

    The nearest-vertex estimator has a resolution floor of roughly one
    edge length (triangle-interior samples are never exactly at a
    vertex), so the reference-to-itself distance is measured as a
    baseline and subtracted; only the *excess* deviation is scored.
    Calibrated so ~1% of the bounding-box diagonal of excess deviation
    costs about half the score.
    """
    distance = surface_distance(reference, candidate, n_samples, seed)
    baseline = surface_distance(reference, reference, n_samples, seed)
    excess = max(0.0, distance.normalized_mean - baseline.normalized_mean)
    return float(np.exp(-excess / 0.01 * 0.69))
