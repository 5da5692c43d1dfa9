"""Sec. 4.3: what is being delivered for the spatial persona?

Three sub-experiments eliminate delivery hypotheses one by one:

1. **Direct 3D streaming** — Draco-compressing five 70-90K-triangle head
   meshes and streaming at 90 FPS costs ~107 Mbps, two orders of magnitude
   above the measured 0.67 Mbps: the persona is not shipped as a mesh.
2. **Sender-rendered 2D video** — the passthrough-vs-persona display
   latency difference stays < 16 ms while 0-1000 ms of ``tc`` delay is
   injected; a sender-rendered stream would track the delay.
3. **Semantic keypoints** — 74 keypoints, LZMA, 90 FPS lands at
   ~0.64 Mbps, right where the measured persona stream sits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro import calibration
from repro.analysis.stats import SummaryStats, summarize_samples
from repro.capture.rgbd import RgbdCamera
from repro.core.parallel import CellTask
from repro.keypoints.codec import SemanticCodec
from repro.mesh.codec import DracoLikeCodec
from repro.mesh.generate import sketchfab_head_set
from repro.rendering.display import ContentDeliveryMode, DisplayLatencyModel


@dataclass
class MeshStreamingResult:
    """Draco-streaming bitrates of the five head meshes."""

    per_mesh_mbps: Dict[str, float]

    @property
    def summary(self) -> SummaryStats:
        """Bitrate distribution across meshes (paper: 107.4 +/- 14.1)."""
        return summarize_samples(list(self.per_mesh_mbps.values()))

    def dwarfs_spatial_persona(self) -> bool:
        """The elimination argument: mesh streaming is >> 0.67 Mbps."""
        return min(self.per_mesh_mbps.values()) > (
            20.0 * calibration.SPATIAL_PERSONA_MBPS
        )


def run_mesh_streaming(seed: int = 0,
                       quantization_bits: int = 11) -> MeshStreamingResult:
    """Compress the head set and report 90 FPS streaming bitrates."""
    codec = DracoLikeCodec(quantization_bits=quantization_bits)
    rates = {}
    for mesh in sketchfab_head_set(seed=seed):
        encoded = codec.encode(mesh)
        rates[mesh.name] = encoded.bitrate_mbps(calibration.TARGET_FPS)
    return MeshStreamingResult(rates)


@dataclass
class KeypointStreamingResult:
    """LZMA keypoint streaming over the RGB-D capture."""

    frame_bytes: List[int]

    @property
    def mbps(self) -> SummaryStats:
        """Per-frame bitrate at 90 FPS (paper: 0.64 +/- 0.02 Mbps)."""
        rates = [
            b * 8.0 * calibration.TARGET_FPS / 1e6 for b in self.frame_bytes
        ]
        return summarize_samples(rates)

    def matches_spatial_persona(self, tolerance_mbps: float = 0.1) -> bool:
        """Whether the estimate lands near the measured persona stream."""
        return abs(
            self.mbps.mean - calibration.SPATIAL_PERSONA_MBPS
        ) <= tolerance_mbps


def run_keypoint_streaming(
    frames: int = calibration.RGBD_CAPTURE_FRAMES, seed: int = 0
) -> KeypointStreamingResult:
    """The ZED-capture + dlib/OpenPose + LZMA experiment."""
    camera = RgbdCamera(seed=seed)
    codec = SemanticCodec(seed=seed)
    captured = camera.record(frames)
    sizes = [codec.encode(frame).byte_size for frame in captured]
    return KeypointStreamingResult(sizes)


@dataclass
class DisplayLatencyResult:
    """Latency differences per injected delay, per delivery mode."""

    #: mode value -> list of (injected delay ms, mean difference ms)
    series: Dict[str, List[Tuple[float, float]]]

    def local_mode_invariant(self, bound_ms: float = float(
            calibration.DISPLAY_LATENCY_DIFF_BOUND_MS)) -> bool:
        """Local reconstruction stays under the paper's 16 ms bound."""
        local = self.series[ContentDeliveryMode.LOCAL_RECONSTRUCTION.value]
        return all(diff < bound_ms for _, diff in local)

    def remote_mode_tracks_delay(self) -> bool:
        """Sender-rendered video difference grows with injected delay."""
        remote = self.series[ContentDeliveryMode.SENDER_RENDERED_VIDEO.value]
        delays = [d for d, _ in remote]
        diffs = [v for _, v in remote]
        return diffs[-1] - diffs[0] > 0.8 * (delays[-1] - delays[0])


def run_display_latency(
    base_rtt_ms: float = 40.0,
    injected_delays_ms: Tuple[float, ...] = tuple(range(0, 1001, 100)),
    trials: int = 30,
    seed: int = 0,
) -> DisplayLatencyResult:
    """Viewport-change latency sweep under both delivery hypotheses."""
    series: Dict[str, List[Tuple[float, float]]] = {}
    for mode in ContentDeliveryMode:
        model = DisplayLatencyModel(mode=mode)
        model.seed(seed)
        points = []
        for delay in injected_delays_ms:
            diffs = [
                model.latency_difference_ms(base_rtt_ms + delay)
                for _ in range(trials)
            ]
            points.append((float(delay), float(np.mean(diffs))))
        series[mode.value] = points
    return DisplayLatencyResult(series)


# The codecs pack mappings as pairs: the cache sorts mapping keys, and
# the mesh summary sums in mesh order.

def _pack_mesh(result: MeshStreamingResult) -> List[list]:
    return [[name, mbps] for name, mbps in result.per_mesh_mbps.items()]


def _unpack_mesh(payload: List[list]) -> MeshStreamingResult:
    return MeshStreamingResult({name: mbps for name, mbps in payload})


def _pack_keypoints(result: KeypointStreamingResult) -> List[int]:
    return result.frame_bytes


def _pack_latency(result: DisplayLatencyResult) -> List[list]:
    return [[mode, points] for mode, points in result.series.items()]


def _unpack_latency(payload: List[list]) -> DisplayLatencyResult:
    return DisplayLatencyResult({
        mode: [tuple(point) for point in points] for mode, points in payload
    })


def hypothesis_tasks(seed: int) -> List[CellTask]:
    """The three delivery hypotheses, one cell each: mesh streaming,
    keypoint streaming, the display-latency sweep."""
    return [
        CellTask(name="content/mesh", fn=run_mesh_streaming,
                 kwargs={"seed": seed}, pack=_pack_mesh,
                 unpack=_unpack_mesh),
        CellTask(name="content/keypoints", fn=run_keypoint_streaming,
                 kwargs={"seed": seed}, pack=_pack_keypoints,
                 unpack=KeypointStreamingResult),
        CellTask(name="content/display-latency", fn=run_display_latency,
                 kwargs={"seed": seed}, pack=_pack_latency,
                 unpack=_unpack_latency),
    ]
