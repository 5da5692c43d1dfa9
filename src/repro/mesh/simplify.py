"""Mesh decimation by vertex clustering.

Used to build the lower-quality level-of-detail meshes that the rendering
pipeline switches to under foveated and distance-aware optimization
(Sec. 4.4).  Vertex clustering snaps vertices to a uniform grid and merges
every vertex in a cell, collapsing the triangles that become degenerate —
fast, deterministic, and monotone in the grid resolution.
"""

from __future__ import annotations

import numpy as np

from repro.checks import at_least
from repro.mesh.model import TriangleMesh


def decimate(mesh: TriangleMesh, cells_per_axis: int) -> TriangleMesh:
    """Cluster vertices onto a ``cells_per_axis``³ grid over the bbox.

    Returns a new mesh; triangles whose three corners land in fewer than
    three distinct cells are removed.
    """
    at_least(cells_per_axis, 1, "cells_per_axis")
    lo, hi = mesh.bounding_box()
    extent = np.maximum(hi - lo, 1e-12)
    cell = np.floor((mesh.vertices - lo) / extent * cells_per_axis)
    cell = np.clip(cell, 0, cells_per_axis - 1).astype(np.int64)
    keys = (
        cell[:, 0] * cells_per_axis * cells_per_axis
        + cell[:, 1] * cells_per_axis
        + cell[:, 2]
    )
    unique_keys, inverse = np.unique(keys, return_inverse=True)

    # Representative position of each cluster: mean of member vertices.
    sums = np.zeros((len(unique_keys), 3))
    np.add.at(sums, inverse, mesh.vertices)
    counts = np.bincount(inverse, minlength=len(unique_keys)).astype(float)
    new_vertices = sums / counts[:, None]

    remapped = inverse[mesh.faces]
    keep = (
        (remapped[:, 0] != remapped[:, 1])
        & (remapped[:, 1] != remapped[:, 2])
        & (remapped[:, 0] != remapped[:, 2])
    )
    new_faces = remapped[keep].astype(np.int32)
    return TriangleMesh(new_vertices, new_faces,
                        name=f"{mesh.name}-dec{cells_per_axis}")


def decimate_to_target(
    mesh: TriangleMesh,
    target_triangles: int,
    tolerance: float = 0.08,
    max_iterations: int = 24,
) -> TriangleMesh:
    """Binary-search the grid resolution for a target triangle count.

    Returns the decimated mesh whose triangle count is closest to
    ``target_triangles``; raises if even the finest probe stays outside
    ``tolerance`` *and* no bracketing is possible.
    """
    if target_triangles >= mesh.triangle_count:
        return mesh.copy()
    at_least(target_triangles, 4, "target_triangles")

    lo_res, hi_res = 2, 2048
    best = None
    best_err = float("inf")
    for _ in range(max_iterations):
        mid = (lo_res + hi_res) // 2
        candidate = decimate(mesh, mid)
        err = abs(candidate.triangle_count - target_triangles)
        if err < best_err:
            best, best_err = candidate, err
        if candidate.triangle_count < target_triangles:
            lo_res = mid + 1
        else:
            hi_res = mid - 1
        if lo_res > hi_res:
            break
    assert best is not None
    relative_err = best_err / target_triangles
    if relative_err > tolerance:
        raise RuntimeError(
            f"could not reach {target_triangles} triangles "
            f"(best {best.triangle_count}, rel err {relative_err:.2%})"
        )
    return best
