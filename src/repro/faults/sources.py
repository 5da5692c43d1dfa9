"""The ladder-driven persona sources.

:class:`LadderedPersonaSource` is the spatial persona stream a resilient
app would run: every display tick it asks the degradation ladder which
rung it is on and emits that rung's representation —

- **textured mesh**: Draco-style geometry plus a compressed skin atlas,
  fragmented to the media MTU (kind ``"mesh"``),
- **simplified mesh**: the same heads decimated hard (kind ``"mesh"``),
- **keypoints**: LZMA semantic frames over QUIC (kind ``"semantic"``),
  optionally wrapped in XOR FEC when the feedback loop reports loss
  (kind ``"semantic-fec"``),
- **audio only**: nothing — the separate audio stream carries presence.

For 2D sessions the same rungs map onto
:func:`video_scale_for_level`, consumed by
:class:`~repro.vca.media.VideoSource` through its ``rate_scale`` hook.

All pools are pre-encoded from seeded generators, so a fault run stays
exactly reproducible.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import calibration
from repro.checks import at_least
from repro.faults.ladder import LadderLevel
from repro.mesh.codec import DracoLikeCodec
from repro.mesh.generate import head_mesh
from repro.mesh.simplify import decimate_to_target
from repro.mesh.texture import TextureCodec, skin_texture
from repro.netsim.engine import Simulator
from repro.netsim.node import Host
from repro.netsim.packet import IPPROTO_UDP, MEDIA_MTU_BYTES, Packet
from repro.transport.fec import AdaptiveFecPolicy, FecEncoder
from repro.vca.media import (
    MEDIA_PORT,
    MediaTarget,
    quic_connection_for,
    semantic_pool,
)

#: Approximate per-packet overhead (IP + UDP) used for nominal wire rates.
_PACKET_OVERHEAD_BYTES = 28

#: 2D analog of the ladder: encoder scale factor per rung (0 = skip).
VIDEO_SCALE = {
    LadderLevel.TEXTURED_MESH: 1.0,
    LadderLevel.SIMPLIFIED_MESH: 0.45,
    LadderLevel.KEYPOINTS: 0.12,
    LadderLevel.AUDIO_ONLY: 0.0,
}


def video_scale_for_level(level: LadderLevel) -> float:
    """Video payload scale a 2D sender uses on one ladder rung."""
    return VIDEO_SCALE[level]


def _wire_bps(frame_bytes: float, fps: float,
              mtu: int = MEDIA_MTU_BYTES) -> float:
    """Nominal wire rate of an MTU-fragmented frame stream (0 if silent)."""
    if frame_bytes <= 0:
        return 0.0
    packets = max(1.0, math.ceil(frame_bytes / mtu))
    return (frame_bytes + packets * _PACKET_OVERHEAD_BYTES) * 8.0 * fps


class LadderedPersonaSource:
    """A spatial persona stream that follows the degradation ladder.

    Args:
        session_secret: Shared secret for the QUIC keypoint stream.
        level_provider: Called once per frame tick; returns the rung to
            emit (typically ``lambda: ladder.level``).
        loss_estimate: Called once per frame tick at the keypoint rung;
            an observed loss fraction in [0, 1] (the RTCP-style feedback
            that drives FEC adaptation).  None disables FEC entirely.
        seed: Seeds every generator pool.
        fps: Display tick rate (the 90 FPS render loop).
        textured_triangles: Geometry budget at the top rung.
        simplified_triangles: Geometry budget one rung down.
        texture_resolution: Skin-atlas resolution at the top rung.
        pool_size: Distinct pre-encoded meshes/textures to cycle.
    """

    def __init__(
        self,
        session_secret: bytes,
        level_provider: Callable[[], LadderLevel],
        loss_estimate: Optional[Callable[[], float]] = None,
        seed: int = 0,
        fps: float = float(calibration.TARGET_FPS),
        textured_triangles: int = 2000,
        simplified_triangles: int = 500,
        texture_resolution: int = 128,
        pool_size: int = 4,
        keypoint_pool: int = 128,
        fec_policy: Optional[AdaptiveFecPolicy] = None,
    ) -> None:
        at_least(pool_size, 1, "pool_size")
        at_least(keypoint_pool, 1, "keypoint_pool")
        self.fps = fps
        self._secret = session_secret
        self._level = level_provider
        self._loss = loss_estimate
        self._fec_policy = fec_policy or AdaptiveFecPolicy()
        self._fec_encoder: Optional[FecEncoder] = None

        geometry = DracoLikeCodec()
        texture_codec = TextureCodec(quality=70)
        self._textured: List[bytes] = []
        self._simplified: List[bytes] = []
        for i in range(pool_size):
            mesh = head_mesh(textured_triangles, seed=seed + i)
            atlas = texture_codec.encode(
                skin_texture(texture_resolution, seed=seed + i)
            )
            self._textured.append(geometry.encode(mesh).payload + atlas)
            # Coarse decimation grids quantize the achievable triangle
            # counts; a generous tolerance keeps every seed buildable.
            simplified = decimate_to_target(mesh, simplified_triangles,
                                            tolerance=0.35)
            self._simplified.append(geometry.encode(simplified).payload)

        self._keypoints = semantic_pool(fps, seed, keypoint_pool)
        self._frame_index = 0
        self.frames_per_level: Dict[LadderLevel, int] = {
            level: 0 for level in LadderLevel
        }

    # ------------------------------------------------------------------
    # Rates (feed the ladder's nominal map)
    # ------------------------------------------------------------------

    def mean_frame_bytes(self, level: LadderLevel) -> float:
        """Mean pre-transport frame size on one rung (0 for audio-only)."""
        pool = {
            LadderLevel.TEXTURED_MESH: self._textured,
            LadderLevel.SIMPLIFIED_MESH: self._simplified,
            LadderLevel.KEYPOINTS: self._keypoints,
            LadderLevel.AUDIO_ONLY: None,
        }[level]
        if pool is None:
            return 0.0
        return float(np.mean([len(p) for p in pool]))

    def nominal_rates(self, audio_bps: float = 0.0
                      ) -> Dict[LadderLevel, float]:
        """Per-rung nominal wire rates for the ladder controller.

        Every rung includes the always-on audio stream's rate, so the
        controller's clean/dirty test sees the same aggregate the
        receiver-side goodput monitor measures.
        """
        return {
            level: _wire_bps(self.mean_frame_bytes(level), self.fps)
            + audio_bps
            for level in LadderLevel
        }

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------

    def _fec_wrap(self, datagrams: List[bytes], k: int) -> List[bytes]:
        """Wrap QUIC datagrams in XOR-FEC framing (re-keying k safely)."""
        encoder = self._fec_encoder
        if encoder is None or encoder.k != k:
            first_group = encoder.next_group if encoder is not None else 0
            encoder = self._fec_encoder = FecEncoder(k, first_group=first_group)
        framed: List[bytes] = []
        for datagram in datagrams:
            framed.extend(p.pack() for p in encoder.protect(datagram))
        return framed

    def attach(self, sim: Simulator, host: Host, target_address: str,
               target_port: int = MEDIA_PORT, until: Optional[float] = None,
               target: Optional[MediaTarget] = None) -> None:
        """Handshake, then emit the current rung's frame per tick."""
        conn = quic_connection_for(host.address, self._secret)
        target = target or MediaTarget(target_address, target_port)

        def send(payload: bytes, kind: str, frame: int) -> None:
            host.send(Packet(
                src=host.address, dst=target.address,
                src_port=MEDIA_PORT, dst_port=target.port,
                protocol=IPPROTO_UDP, payload=payload,
                meta={"kind": kind, "frame": frame,
                      "origin": host.address},
            ))

        def handshake() -> None:
            send(conn.initial_packet(), "quic-initial", -1)
            send(conn.handshake_packet(), "quic-handshake", -1)

        def send_frame() -> None:
            level = self._level()
            index = self._frame_index
            self._frame_index += 1
            self.frames_per_level[level] += 1
            if level is LadderLevel.AUDIO_ONLY:
                return
            if level is LadderLevel.KEYPOINTS:
                encoded = self._keypoints[index % len(self._keypoints)]
                datagrams = conn.protect_frame(encoded)
                k = (
                    self._fec_policy.k_for_loss(
                        min(1.0, max(0.0, float(self._loss())))
                    )
                    if self._loss is not None else None
                )
                if k is not None:
                    for payload in self._fec_wrap(datagrams, k):
                        send(payload, "semantic-fec", index)
                else:
                    for payload in datagrams:
                        send(payload, "semantic", index)
                return
            pool = (
                self._textured
                if level is LadderLevel.TEXTURED_MESH else self._simplified
            )
            blob = pool[index % len(pool)]
            for offset in range(0, len(blob), MEDIA_MTU_BYTES):
                send(blob[offset:offset + MEDIA_MTU_BYTES], "mesh", index)

        sim.schedule(0.0, handshake)
        sim.schedule_every(1.0 / self.fps, send_frame,
                           start=2.0 / self.fps, until=until)
