"""The float frustum test and the array mesh builder equal their numpy
references exactly.

``Camera.in_viewport`` runs on Python floats over a basis computed once
per camera, and ``repro.mesh.generate`` builds faces by index arithmetic
and shuffles vertex windows in place.  The references below are the
implementations they replaced, kept verbatim.

- The frustum decision must equal the reference on every frame of the
  fig6, A1 and frame-rate sessions, and on drawn cameras and points.  A
  float sum may differ from numpy's BLAS ``dot`` in the last bit, so a
  drawn point that lies on the frustum's edge (within 1e-9 degrees of
  margin) is skipped; no session frame is.
- Meshes must be ``array_equal`` with equal dtypes, and every generator
  the builder creates must leave the same next draw behind.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import calibration
from repro.experiments import ablations, framerate
from repro.mesh import generate
from repro.rendering.camera import (
    FOV_HORIZONTAL_DEG,
    FOV_VERTICAL_DEG,
    Camera,
    _normalize,
)
from repro.rendering.pipeline import RenderPipeline


# --- the references, verbatim -------------------------------------------

def in_viewport_reference(self, point: np.ndarray,
                          margin_deg: float = 0.0) -> bool:
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


def sphere_grid_reference(n_lat: int,
                          n_lon: int) -> Tuple[np.ndarray, np.ndarray]:
    """UV sphere with exactly ``2 * n_lat * n_lon`` triangles."""
    generate.at_least(n_lat, 2, "n_lat")
    generate.at_least(n_lon, 3, "n_lon")
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

    faces: List[Tuple[int, int, int]] = []

    def ring(i: int, j: int) -> int:
        return i * n_lon + (j % n_lon)

    for j in range(n_lon):  # north pole fan
        faces.append((north_idx, ring(0, j), ring(0, j + 1)))
    for i in range(n_lat - 1):  # bands between rings: 2 triangles per quad
        for j in range(n_lon):
            a, b = ring(i, j), ring(i, j + 1)
            c, d = ring(i + 1, j), ring(i + 1, j + 1)
            faces.append((a, c, b))
            faces.append((b, c, d))
    for j in range(n_lon):  # south pole fan
        faces.append((south_idx, ring(n_lat - 1, j + 1), ring(n_lat - 1, j)))

    return vertices, np.asarray(faces, dtype=np.int32)


def split_faces_reference(vertices: np.ndarray, faces: np.ndarray,
                          n_splits: int, rng: np.random.Generator
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """Centroid-split ``n_splits`` distinct faces; each split adds 2 faces."""
    if n_splits == 0:
        return vertices, faces
    chosen = rng.choice(len(faces), size=n_splits, replace=False)
    new_vertices = [vertices]
    new_faces = list(faces)
    next_index = len(vertices)
    for count, face_index in enumerate(chosen):
        i, j, k = faces[face_index]
        centroid = (vertices[i] + vertices[j] + vertices[k]) / 3.0
        new_vertices.append(centroid[None, :])
        c = next_index + count
        new_faces[face_index] = (i, j, c)
        new_faces.append((j, k, c))
        new_faces.append((k, i, c))
    return (
        np.concatenate(new_vertices),
        np.asarray(new_faces, dtype=np.int32),
    )


def scan_like_reference(vertices: np.ndarray, faces: np.ndarray, seed: int,
                        shuffle_window: int = 3,
                        detail_noise_m: float = 1e-4
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """Windowed vertex shuffle plus Gaussian surface noise."""
    rng = np.random.default_rng(seed + 7)
    n = len(vertices)
    perm = np.arange(n)
    for start in range(0, n, shuffle_window):
        segment = perm[start:start + shuffle_window].copy()
        rng.shuffle(segment)
        perm[start:start + shuffle_window] = segment
    inverse = np.empty(n, dtype=np.int64)
    inverse[perm] = np.arange(n)
    noisy = vertices[perm] + rng.normal(0.0, detail_noise_m, (n, 3))
    return noisy, inverse[faces].astype(np.int32)


# --- the frustum test -----------------------------------------------------

def _outcome(test, camera: Camera, point, margin_deg: float = 0.0):
    """The decision, or the error's type and message."""
    try:
        return test(camera, point, margin_deg)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


@pytest.fixture
def checked_frustum(monkeypatch):
    """Every ``in_viewport`` call also runs the reference and must agree;
    yields the list of decisions made."""
    fast = Camera.in_viewport
    decisions: List[bool] = []

    def both(camera, point, margin_deg=0.0):
        decision = fast(camera, point, margin_deg)
        assert decision == in_viewport_reference(camera, point, margin_deg)
        decisions.append(decision)
        return decision

    monkeypatch.setattr(Camera, "in_viewport", both)
    return decisions


def _personas(n_users: int) -> List[str]:
    return [f"U{i + 2}" for i in range(n_users - 1)]


class TestFrustumOnSessions:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("n_users", [2, 3, 4, 5, 6])
    def test_fig6_sessions(self, checked_frustum, n_users, seed):
        frames = RenderPipeline(seed=seed + n_users).render_session(
            _personas(n_users), duration_s=3.0)
        assert len(checked_frustum) == len(frames) * (n_users - 1)

    @pytest.mark.parametrize("seed", [0, 4])
    @pytest.mark.parametrize("n_users", [2, 5, 6])
    def test_delivery_culling_sessions(self, checked_frustum, n_users, seed):
        ablations.run_delivery_culling(n_users=n_users, duration_s=3.0,
                                       seed=seed)
        frames = int(3.0 * calibration.TARGET_FPS)
        assert len(checked_frustum) == frames * (n_users - 1)
        # Edge personas leave the viewport: both decisions occur.
        if n_users > 2:
            assert set(checked_frustum) == {True, False}

    @pytest.mark.parametrize("seed", [0, 2])
    def test_framerate_sessions(self, checked_frustum, seed):
        framerate.run(duration_s=2.0, seed=seed)
        assert len(checked_frustum) == 180 * (1 + 2 + 3 + 4 + 5)

    @pytest.mark.parametrize("n_users", [2, 4, 6])
    def test_frame_stats_equal_field_by_field(self, monkeypatch, n_users):
        def session():
            return RenderPipeline(seed=n_users).render_session(
                _personas(n_users), duration_s=2.0)

        fast = session()
        monkeypatch.setattr(Camera, "in_viewport", in_viewport_reference)
        reference = session()
        assert len(fast) == len(reference)
        for a, b in zip(fast, reference):
            assert a.frame_index == b.frame_index
            assert a.triangles == b.triangles
            assert a.gpu_ms == b.gpu_ms
            assert a.cpu_ms == b.cpu_ms
            assert a.decisions == b.decisions


_coordinate = st.floats(-10.0, 10.0, allow_nan=False)
_vector = st.tuples(_coordinate, _coordinate, _coordinate)
#: Forward vectors within ~8 degrees of vertical, where the up hint
#: switches from world z to world y.
_near_vertical = st.tuples(st.floats(-0.1, 0.1), st.floats(-0.1, 0.1),
                           st.sampled_from([-1.0, 1.0]))


class TestFrustumOnDrawnPoses:
    @settings(max_examples=300, deadline=None)
    @given(position=_vector, forward=st.one_of(_vector, _near_vertical),
           point=_vector, margin_deg=st.floats(-30.0, 30.0))
    def test_decision_equals_reference(self, position, forward, point,
                                       margin_deg):
        try:
            camera = Camera(np.array(position), np.array(forward))
        except ValueError:
            assume(False)  # a zero forward: no camera to test
        on_edge = (_outcome(in_viewport_reference, camera, point,
                            margin_deg - 1e-9)
                   != _outcome(in_viewport_reference, camera, point,
                               margin_deg + 1e-9))
        assume(not on_edge)
        assert (_outcome(Camera.in_viewport, camera, list(point), margin_deg)
                == _outcome(in_viewport_reference, camera, point,
                            margin_deg))

    @pytest.mark.parametrize("forward", [(0.0, 0.0, 1.0), (0.05, 0.1, -1.0),
                                         (0.1, 0.0, 0.7)])
    def test_up_hint_switch(self, forward):
        camera = Camera(np.zeros(3), np.array(forward))
        for point in [(0.3, 0.2, 2.0), (0.0, 1.0, -1.0), (1.0, 0.1, 0.5),
                      (-0.2, 0.4, 1.0)]:
            for margin in (-10.0, 0.0, 15.0):
                assert (camera.in_viewport(point, margin)
                        == in_viewport_reference(camera, point, margin))

    @pytest.mark.parametrize("position, forward, point", [
        ((1.0, 2.0, 3.0), (1.0, 0.0, 0.0), [1.0, 2.0, 3.0]),  # at the eye
        ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), [math.nan, 0.0, 0.0]),
        ((0.0, 0.0, 0.0), (math.inf, 0.0, 0.0), [1.0, 0.0, 0.0]),  # NaN axes
    ])
    def test_same_errors(self, position, forward, point):
        with np.errstate(invalid="ignore"):
            camera = Camera(np.array(position), np.array(forward))
            expected = _outcome(in_viewport_reference, camera, point)
            assert expected == (ValueError, "cannot normalize a zero vector")
            assert _outcome(Camera.in_viewport, camera, point) == expected


# --- the mesh builder -----------------------------------------------------

def _sketchfab_counts() -> List[int]:
    low, high = calibration.SKETCHFAB_HEAD_TRIANGLE_RANGE
    counts = np.linspace(low, high, 5).astype(int)
    counts += counts % 2
    return [int(c) for c in counts]


#: Vertex counts 14, 15, 502, 39,017 and 35,002-45,002: window tails of
#: 0, 1 and 2 vertices all occur.
TRIANGLE_COUNTS = [24, 26, 1000, calibration.PERSONA_TRIANGLES,
                   *_sketchfab_counts()]


def _build(monkeypatch, count: int, seed: int, scan_like: bool,
           reference: bool):
    """``head_mesh`` on the array helpers or the references, plus every
    generator it created."""
    created: List[np.random.Generator] = []
    default_rng = np.random.default_rng

    def recording(*args, **kwargs):
        created.append(default_rng(*args, **kwargs))
        return created[-1]

    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng", recording)
        if reference:
            patch.setattr(generate, "_sphere_grid", sphere_grid_reference)
            patch.setattr(generate, "_split_faces", split_faces_reference)
            patch.setattr(generate, "_scan_like", scan_like_reference)
        mesh = generate.head_mesh(count, seed=seed, scan_like=scan_like)
    return mesh, created


def _assert_same_arrays(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype
    assert a.shape == b.shape
    assert np.array_equal(a, b)


class TestMeshBuilder:
    @pytest.mark.parametrize("scan_like", [True, False])
    @pytest.mark.parametrize("count", TRIANGLE_COUNTS)
    def test_head_mesh_equals_reference(self, monkeypatch, count, scan_like):
        for seed in (0, 3):
            fast, fast_rngs = _build(monkeypatch, count, seed, scan_like,
                                     reference=False)
            ref, ref_rngs = _build(monkeypatch, count, seed, scan_like,
                                   reference=True)
            _assert_same_arrays(fast.vertices, ref.vertices)
            _assert_same_arrays(fast.faces, ref.faces)
            assert len(fast_rngs) == len(ref_rngs) == (3 if scan_like else 2)
            assert ([rng.random() for rng in fast_rngs]
                    == [rng.random() for rng in ref_rngs])

    @pytest.mark.parametrize("n_lat, n_lon", [(2, 3), (3, 4), (7, 19),
                                              (197, 198)])
    def test_sphere_grid(self, n_lat, n_lon):
        for fast, ref in zip(generate._sphere_grid(n_lat, n_lon),
                             sphere_grid_reference(n_lat, n_lon)):
            _assert_same_arrays(fast, ref)

    @pytest.mark.parametrize("n_splits", [0, 1, 5, 40])
    def test_split_faces_and_next_draw(self, n_splits):
        vertices, faces = sphere_grid_reference(7, 9)
        fast_rng, ref_rng = (np.random.default_rng(n_splits)
                             for _ in range(2))
        fast = generate._split_faces(vertices, faces, n_splits, fast_rng)
        ref = split_faces_reference(vertices, faces, n_splits, ref_rng)
        for a, b in zip(fast, ref):
            _assert_same_arrays(a, b)
        assert fast_rng.random() == ref_rng.random()

    @pytest.mark.parametrize("n_vertices", [1, 2, 3, 4, 5, 62, 63, 64])
    def test_scan_like_window_tails(self, n_vertices):
        vertices, faces = sphere_grid_reference(7, 9)
        vertices = vertices[:n_vertices]
        faces = faces[faces.max(axis=1) < n_vertices]
        for seed in (0, 11):
            for a, b in zip(generate._scan_like(vertices, faces, seed),
                            scan_like_reference(vertices, faces, seed)):
                _assert_same_arrays(a, b)
