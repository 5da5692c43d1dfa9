"""Layered semantic codec: rate adaptation for keypoint streams.

Sec. 4.3 of the paper finds FaceTime's semantic stream has *no* rate
adaptation — below 700 Kbps the persona simply disappears — and notes that
adaptation "can be achieved in 3D content streaming as well [34]".  This
module builds that missing capability as a layered codec (ablation A4):

========  =====================================  ====================
Layer     Contents                               Approx. rate @90 FPS
========  =====================================  ====================
BASE      32 mouth+eye points, float16           ~0.2 Mbps
STANDARD  facial float32 + two hands float16     ~0.5 Mbps
FULL      all 74 points float32 + confidence     ~0.65 Mbps
========  =====================================  ====================

Every layer is independently decodable; reconstruction degrades
gracefully (hands freeze at the rest pose under BASE) instead of failing
outright.  :class:`AdaptiveLayerSelector` picks the highest layer that
fits an estimated available rate — exactly what the fixed-rate FaceTime
pipeline lacks.
"""

from __future__ import annotations

import enum
import lzma
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import calibration
from repro.checks import fraction, non_negative
from repro.keypoints.codec import EncodedKeypointFrame
from repro.keypoints.motion import KeypointFrame
from repro.keypoints.schema import TEMPLATES, semantic_subset

_LZMA_FILTERS = [{"id": lzma.FILTER_LZMA2, "preset": 0}]
_HEADER = struct.Struct("<IdB")  # frame index, timestamp, layer id

#: Point counts of the semantic layout: 32 facial + 21 + 21.
_FACIAL = calibration.FACIAL_SEMANTIC_KEYPOINTS
_HAND = calibration.HAND_KEYPOINTS


class Layer(enum.IntEnum):
    """Quality layers, ordered by rate.

    Values start at 1 so every member is truthy — ``select()`` returns
    ``None`` for "no layer fits" and a falsy BASE would be ambiguous.
    """

    BASE = 1
    STANDARD = 2
    FULL = 3


@dataclass(frozen=True)
class LayeredFrame:
    """A decoded layered frame.

    Attributes:
        index: Frame number.
        timestamp: Capture time, seconds.
        layer: The layer that was delivered.
        points: ``(74, 3)`` float32 keypoints; hand rows are the template
            rest pose when the layer did not carry them.
        degraded: True when any group was synthesized from the rest pose.
    """

    index: int
    timestamp: float
    layer: Layer
    points: np.ndarray
    degraded: bool


def _rest_hands() -> np.ndarray:
    return np.concatenate(
        [TEMPLATES["left_hand"], TEMPLATES["right_hand"]]
    ).astype(np.float32)


class LayeredSemanticCodec:
    """Encode/decode keypoint frames at a chosen quality layer."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)

    def encode(self, frame: KeypointFrame, layer: Layer) -> EncodedKeypointFrame:
        """Compress one frame at ``layer``."""
        points = frame.semantic_points().astype(np.float32)
        facial = points[:_FACIAL]
        hands = points[_FACIAL:]
        if layer is Layer.BASE:
            body = facial.astype(np.float16).tobytes()
        elif layer is Layer.STANDARD:
            body = facial.tobytes() + hands.astype(np.float16).tobytes()
        elif layer is Layer.FULL:
            confidence = self._rng.integers(
                200, 256, calibration.SEMANTIC_KEYPOINTS_TOTAL, dtype=np.uint8
            )
            body = points.tobytes() + confidence.tobytes()
        else:  # pragma: no cover - exhaustive enum
            raise ValueError(f"unknown layer {layer}")
        header = _HEADER.pack(frame.index, frame.timestamp, int(layer))
        payload = lzma.compress(
            header + body, format=lzma.FORMAT_RAW, filters=_LZMA_FILTERS
        )
        return EncodedKeypointFrame(payload)

    def decode(self, encoded: EncodedKeypointFrame) -> LayeredFrame:
        """Reconstruct a layered frame (graceful degradation built in).

        Raises:
            ValueError: On corrupt or truncated payloads.
        """
        try:
            raw = lzma.decompress(
                encoded.payload, format=lzma.FORMAT_RAW, filters=_LZMA_FILTERS
            )
        except lzma.LZMAError as exc:
            raise ValueError("corrupt layered frame") from exc
        if len(raw) < _HEADER.size:
            raise ValueError("truncated layered frame header")
        index, timestamp, layer_id = _HEADER.unpack_from(raw)
        try:
            layer = Layer(layer_id)
        except ValueError as exc:
            raise ValueError(f"unknown layer id {layer_id}") from exc
        body = raw[_HEADER.size:]
        if layer is Layer.BASE:
            need = _FACIAL * 3 * 2
            if len(body) < need:
                raise ValueError("truncated BASE body")
            facial = np.frombuffer(body, dtype=np.float16,
                                   count=_FACIAL * 3).astype(np.float32)
            points = np.concatenate(
                [facial.reshape(_FACIAL, 3), _rest_hands()]
            )
            degraded = True
        elif layer is Layer.STANDARD:
            need = _FACIAL * 3 * 4 + 2 * _HAND * 3 * 2
            if len(body) < need:
                raise ValueError("truncated STANDARD body")
            facial = np.frombuffer(body, dtype=np.float32, count=_FACIAL * 3)
            hands = np.frombuffer(
                body, dtype=np.float16, count=2 * _HAND * 3,
                offset=_FACIAL * 3 * 4,
            ).astype(np.float32)
            points = np.concatenate(
                [facial.reshape(_FACIAL, 3), hands.reshape(2 * _HAND, 3)]
            )
            degraded = False
        else:
            total = calibration.SEMANTIC_KEYPOINTS_TOTAL
            need = total * 3 * 4
            if len(body) < need:
                raise ValueError("truncated FULL body")
            points = np.frombuffer(
                body, dtype=np.float32, count=total * 3
            ).reshape(total, 3).copy()
            degraded = False
        return LayeredFrame(index, timestamp, layer, points, degraded)


@dataclass
class AdaptiveLayerSelector:
    """Pick the highest layer whose rate fits the available bandwidth.

    Rates are profiled once from a short synthetic capture, then the
    selector is a pure function of the estimated available rate — the
    control loop a rate-adaptive sender would run per RTCP interval.
    """

    codec: LayeredSemanticCodec
    fps: float = float(calibration.TARGET_FPS)
    headroom: float = 0.9
    profile_frames: int = 64

    def __post_init__(self) -> None:
        fraction(self.headroom, "headroom", "(]")
        from repro.keypoints.motion import MotionSynthesizer

        synth = MotionSynthesizer(fps=self.fps, seed=1)
        frames = list(synth.frames(self.profile_frames))
        self.layer_mbps = {}
        for layer in Layer:
            sizes = [self.codec.encode(f, layer).byte_size for f in frames]
            self.layer_mbps[layer] = (
                float(np.mean(sizes)) * 8.0 * self.fps / 1e6
            )

    def select(self, available_mbps: float) -> Optional[Layer]:
        """Highest layer fitting ``available_mbps`` (None: not even BASE)."""
        non_negative(available_mbps, "available_mbps")
        budget = available_mbps * self.headroom
        chosen: Optional[Layer] = None
        for layer in Layer:
            if self.layer_mbps[layer] <= budget:
                chosen = layer
        return chosen
