"""Media sources: 2D video, semantic keypoints, raw mesh streams, audio.

Each source attaches to a host in the simulated network and schedules its
frames; the wire throughput they produce is what the Fig. 4 capture
analysis measures at the APs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro import calibration
from repro.checks import at_least, positive
from repro.keypoints.codec import SemanticCodec
from repro.keypoints.motion import MotionSynthesizer
from repro.mesh.codec import DracoLikeCodec
from repro.mesh.generate import sketchfab_head_set
from repro.mesh.model import TriangleMesh
from repro.netsim.engine import Simulator
from repro.netsim.node import Host
from repro.netsim.packet import IPPROTO_UDP, Packet
from repro.transport.quic import CONNECTION_ID_BYTES, QuicConnection
from repro.transport.rtp import PayloadType, RtpPacketizer

#: Default media port clients listen on.
MEDIA_PORT = 40000

#: Source port audio streams send from (video/semantic use MEDIA_PORT), so
#: a passive observer can separate the flows by 5-tuple like Wireshark.
AUDIO_SRC_PORT = 40002

#: Overhead-corrected payload fraction: RTP(12)+UDP(8)+IP(20) on ~1.2 KB.
_PAYLOAD_FRACTION = 1188.0 / (1188.0 + 40.0)

#: Frames in a :class:`SemanticSource` pool.
SEMANTIC_POOL_FRAMES = 256


def build_semantic_pool(fps: float, seed: int, size: int) -> Tuple[bytes, ...]:
    """``size`` LZMA keypoint frames of one seeded capture, pre-QUIC.

    Production FaceTime profile: no extractor confidence channel (Fig. 4
    anchor: ~0.67 Mbps total uplink including audio).  A pure function of
    its arguments, so the pool can be shared.
    """
    codec = SemanticCodec(seed=seed)
    synth = MotionSynthesizer(fps=fps, seed=seed)
    return tuple(
        codec.encode(frame, include_confidence=False).payload
        for frame in synth.frames(size)
    )


#: Per-process pool cache.  A session's sources replay the same
#: (fps, seed, size) across a sweep's calls; a pool is ~0.2 MB.
semantic_pool = lru_cache(maxsize=16)(build_semantic_pool)


def quic_connection_for(sender_address: str, session_secret: bytes) -> QuicConnection:
    """Deterministic per-sender QUIC connection (dcid from the address)."""
    dcid = hashlib.sha256(sender_address.encode()).digest()[:CONNECTION_ID_BYTES]
    return QuicConnection(dcid, session_secret)


@dataclass
class MediaTarget:
    """Where a source sends: the SFU or the P2P peer.

    Mutable on purpose: sources resolve ``target.address`` at every frame,
    so the resilience layer can retarget live streams mid-session (server
    failover) by mutating one shared instance instead of rebuilding every
    source.
    """

    address: str
    port: int


#: Backward-compatible private alias (pre-failover code used ``_Target``).
_Target = MediaTarget


class VideoSource:
    """A 2D persona video stream (H.264-style GoP size pattern over RTP).

    Frame sizes follow an I/P group-of-pictures pattern with lognormal
    content jitter, normalized so the *wire* throughput (including RTP,
    UDP, and IP headers) matches ``target_mbps``.
    """

    GOP_FRAMES = 30
    I_FRAME_WEIGHT = 3.0

    def __init__(
        self,
        payload_type: PayloadType,
        target_mbps: float,
        fps: int = 30,
        seed: int = 0,
        jitter_sigma: float = 0.15,
        rate_scale: Optional[Callable[[], float]] = None,
    ) -> None:
        self.payload_type = payload_type
        self.target_mbps = positive(target_mbps, "target_mbps")
        self.fps = positive(fps, "fps")
        self.jitter_sigma = jitter_sigma
        self._rate_scale = rate_scale
        self._rng = np.random.default_rng(seed)
        self.ssrc = int(self._rng.integers(1, 2**32))
        self._packetizer = RtpPacketizer(payload_type, ssrc=self.ssrc)
        self._frame_index = 0
        self.packets_sent = 0
        self.payload_bytes_sent = 0
        # Mean payload bytes per frame after header overhead.
        wire_frame_bytes = target_mbps * 1e6 / 8.0 / fps
        self._mean_payload = wire_frame_bytes * _PAYLOAD_FRACTION
        # P-frame weight making the GoP average exactly 1.
        self._p_weight = (
            (self.GOP_FRAMES - self.I_FRAME_WEIGHT) / (self.GOP_FRAMES - 1)
        )

    def next_frame_payloads(self, scale: float = 1.0) -> List[bytes]:
        """Encoded RTP datagrams of the next video frame.

        ``scale`` multiplies the frame's payload budget — the degradation
        ladder's 2D analog (reduced-resolution encodes under disturbance).
        """
        in_gop = self._frame_index % self.GOP_FRAMES
        weight = self.I_FRAME_WEIGHT if in_gop == 0 else self._p_weight
        jitter = float(self._rng.lognormal(0.0, self.jitter_sigma))
        jitter /= float(np.exp(self.jitter_sigma**2 / 2.0))  # unit mean
        size = max(64, int(self._mean_payload * weight * jitter * scale))
        frame = bytes(self._rng.integers(0, 256, size, dtype=np.uint8))
        timestamp = int(self._frame_index * 90_000 / self.fps)
        self._frame_index += 1
        datagrams = self._packetizer.packetize(frame, timestamp)
        self.packets_sent += len(datagrams)
        self.payload_bytes_sent += sum(len(d) for d in datagrams)
        return datagrams

    @property
    def current_rtp_timestamp(self) -> int:
        """RTP timestamp of the next frame (90 kHz video clock)."""
        return int(self._frame_index * 90_000 / self.fps)

    def attach(self, sim: Simulator, host: Host, target_address: str,
               target_port: int = MEDIA_PORT, until: Optional[float] = None,
               meta_extra: Optional[dict] = None,
               target: Optional[MediaTarget] = None) -> None:
        """Schedule the stream on ``sim`` from ``host`` to the target.

        Pass a shared ``target`` to allow mid-session retargeting.
        """
        target = target or MediaTarget(target_address, target_port)

        def send_frame() -> None:
            scale = 1.0 if self._rate_scale is None else float(self._rate_scale())
            if scale <= 0.0:
                return  # audio-only rung: the video frame is not encoded
            index = self._frame_index
            for payload in self.next_frame_payloads(scale):
                packet = Packet(
                    src=host.address, dst=target.address,
                    src_port=MEDIA_PORT, dst_port=target.port,
                    protocol=IPPROTO_UDP, payload=payload,
                    meta={"kind": "video", "frame": index,
                          "origin": host.address, **(meta_extra or {})},
                )
                host.send(packet)

        sim.schedule_every(1.0 / self.fps, send_frame, until=until)


class SemanticSource:
    """The spatial persona stream: LZMA keypoint frames over QUIC, 90 FPS.

    Cycles a pre-encoded pool of captured frames (:func:`semantic_pool`),
    so long sessions do not pay LZMA per frame while every datagram still
    carries a decodable payload.
    """

    def __init__(
        self,
        session_secret: bytes,
        fps: float = float(calibration.TARGET_FPS),
        seed: int = 0,
        pool_size: int = SEMANTIC_POOL_FRAMES,
    ) -> None:
        at_least(pool_size, 1, "pool_size")
        self.fps = fps
        self._secret = session_secret
        self._pool = semantic_pool(fps, seed, pool_size)
        self._frame_index = 0

    @property
    def mean_frame_bytes(self) -> float:
        """Mean compressed semantic frame size (pre-QUIC)."""
        return float(np.mean([len(p) for p in self._pool]))

    def attach(self, sim: Simulator, host: Host, target_address: str,
               target_port: int = MEDIA_PORT, until: Optional[float] = None,
               meta_extra: Optional[dict] = None,
               target: Optional[MediaTarget] = None) -> None:
        """Handshake, then stream one protected frame per display tick."""
        conn = quic_connection_for(host.address, self._secret)
        target = target or MediaTarget(target_address, target_port)

        def send(payload: bytes, kind: str, frame: int) -> None:
            packet = Packet(
                src=host.address, dst=target.address,
                src_port=MEDIA_PORT, dst_port=target.port,
                protocol=IPPROTO_UDP, payload=payload,
                meta={"kind": kind, "frame": frame,
                      "origin": host.address, **(meta_extra or {})},
            )
            host.send(packet)

        def handshake() -> None:
            send(conn.initial_packet(), "quic-initial", -1)
            send(conn.handshake_packet(), "quic-handshake", -1)

        def send_frame() -> None:
            index = self._frame_index
            encoded = self._pool[index % len(self._pool)]
            for datagram in conn.protect_frame(encoded):
                send(datagram, "semantic", index)
            self._frame_index += 1

        sim.schedule(0.0, handshake)
        sim.schedule_every(1.0 / self.fps, send_frame,
                           start=2.0 / self.fps, until=until)


class LayeredSemanticSource:
    """A rate-adaptive semantic stream (ablation A4).

    Same transport shape as :class:`SemanticSource` but the payloads come
    from the layered codec at a fixed chosen layer — the sender a
    rate-adaptive FaceTime would run after its selector picks a layer.
    """

    def __init__(self, session_secret: bytes, layer,
                 fps: float = float(calibration.TARGET_FPS),
                 seed: int = 0, pool_size: int = 128) -> None:
        from repro.keypoints.layered import LayeredSemanticCodec

        at_least(pool_size, 1, "pool_size")
        self.fps = fps
        self.layer = layer
        self._secret = session_secret
        codec = LayeredSemanticCodec(seed=seed)
        synth = MotionSynthesizer(fps=fps, seed=seed)
        self._pool = [
            codec.encode(frame, layer).payload
            for frame in synth.frames(pool_size)
        ]
        self._frame_index = 0

    @property
    def mean_frame_bytes(self) -> float:
        """Mean compressed frame size at the chosen layer."""
        return float(np.mean([len(p) for p in self._pool]))

    def attach(self, sim: Simulator, host: Host, target_address: str,
               target_port: int = MEDIA_PORT,
               until: Optional[float] = None,
               target: Optional[MediaTarget] = None) -> None:
        """Stream one protected layered frame per display tick."""
        conn = quic_connection_for(host.address, self._secret)
        target = target or MediaTarget(target_address, target_port)

        def send_frame() -> None:
            index = self._frame_index
            encoded = self._pool[index % len(self._pool)]
            for datagram in conn.protect_frame(encoded):
                host.send(Packet(
                    src=host.address, dst=target.address,
                    src_port=MEDIA_PORT, dst_port=target.port,
                    protocol=IPPROTO_UDP, payload=datagram,
                    meta={"kind": "semantic-layered", "frame": index,
                          "layer": int(self.layer), "origin": host.address},
                ))
            self._frame_index += 1

        sim.schedule_every(1.0 / self.fps, send_frame, until=until)


class MeshSource:
    """Direct 3D streaming: Draco-like compressed meshes at 90 FPS.

    Used by the Sec. 4.3 what-if experiment; cycles a pool of encoded
    head meshes.
    """

    def __init__(self, meshes: Optional[Sequence[TriangleMesh]] = None,
                 fps: float = float(calibration.TARGET_FPS),
                 quantization_bits: int = 11, seed: int = 0) -> None:
        codec = DracoLikeCodec(quantization_bits=quantization_bits)
        source_meshes = list(meshes) if meshes else sketchfab_head_set(seed=seed)
        self._pool = [codec.encode(m).payload for m in source_meshes]
        self.fps = fps
        self._frame_index = 0

    @property
    def mean_frame_bytes(self) -> float:
        """Mean compressed mesh frame size."""
        return float(np.mean([len(p) for p in self._pool]))

    def attach(self, sim: Simulator, host: Host, target_address: str,
               target_port: int = MEDIA_PORT,
               until: Optional[float] = None,
               target: Optional[MediaTarget] = None) -> None:
        """Stream mesh frames, fragmented to the media MTU."""
        from repro.netsim.packet import MEDIA_MTU_BYTES
        target = target or MediaTarget(target_address, target_port)

        def send_frame() -> None:
            index = self._frame_index
            blob = self._pool[index % len(self._pool)]
            for offset in range(0, len(blob), MEDIA_MTU_BYTES):
                chunk = blob[offset:offset + MEDIA_MTU_BYTES]
                host.send(Packet(
                    src=host.address, dst=target.address,
                    src_port=MEDIA_PORT, dst_port=target.port,
                    protocol=IPPROTO_UDP, payload=chunk,
                    meta={"kind": "mesh", "frame": index,
                          "origin": host.address},
                ))
            self._frame_index += 1

        sim.schedule_every(1.0 / self.fps, send_frame, until=until)


class AudioSource:
    """A 20 ms-packetized audio stream (RTP or QUIC-protected)."""

    PACKETS_PER_SECOND = 50

    def __init__(self, bitrate_kbps: float = 32.0, seed: int = 0,
                 session_secret: Optional[bytes] = None) -> None:
        self.bitrate_kbps = positive(bitrate_kbps, "bitrate_kbps")
        self._secret = session_secret
        self._rng = np.random.default_rng(seed)
        self._packetizer = RtpPacketizer(
            PayloadType(97, "audio", 48_000),
            ssrc=int(self._rng.integers(1, 2**32)),
        )
        self._payload_bytes = max(
            16, int(bitrate_kbps * 1000 / 8 / self.PACKETS_PER_SECOND)
        )
        self._index = 0

    def attach(self, sim: Simulator, host: Host, target_address: str,
               target_port: int = MEDIA_PORT,
               until: Optional[float] = None,
               target: Optional[MediaTarget] = None) -> None:
        """Schedule the audio packets."""
        conn = (
            quic_connection_for(host.address, self._secret)
            if self._secret is not None else None
        )
        target = target or MediaTarget(target_address, target_port)

        def send_packet() -> None:
            body = bytes(
                self._rng.integers(0, 256, self._payload_bytes, dtype=np.uint8)
            )
            if conn is not None:
                payloads = conn.protect_frame(body)
            else:
                payloads = self._packetizer.packetize(
                    body, int(self._index * 48_000 / self.PACKETS_PER_SECOND)
                )
            for payload in payloads:
                host.send(Packet(
                    src=host.address, dst=target.address,
                    src_port=AUDIO_SRC_PORT, dst_port=target.port,
                    protocol=IPPROTO_UDP, payload=payload,
                    meta={"kind": "audio", "origin": host.address},
                ))
            self._index += 1

        sim.schedule_every(
            1.0 / self.PACKETS_PER_SECOND, send_packet, until=until
        )
