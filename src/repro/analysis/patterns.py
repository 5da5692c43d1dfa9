"""Encrypted-traffic inference from packet transmission patterns.

Sec. 5 of the paper notes that the spatial persona stream is end-to-end
encrypted (QUIC + TLS 1.3), so content decryption is off the table, and
suggests "analyzing IP headers and packet transmission patterns" instead.
This module implements that program against captures:

- burst segmentation by inter-arrival gap (media frames are sent as
  back-to-back packet trains once per frame tick),
- frame-rate and frame-size estimation from the burst train,
- a content-type classifier (semantic / 2D video / mesh) that needs only
  sizes and timing — it works identically on encrypted payloads, and
- RTP loss estimation from cleartext sequence numbers (the one header
  field a passive observer does get on non-QUIC sessions, as prior work
  on Zoom [52] exploits).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.checks import positive
from repro.netsim.capture import CapturedPacket
from repro.transport.rtp import RtpHeader, looks_like_rtp


def split_flows(records: Sequence[CapturedPacket]
                ) -> "dict[tuple, List[CapturedPacket]]":
    """Group capture records by 5-tuple, like Wireshark's conversations.

    Media applications put audio and video on distinct ports, so flow
    splitting is the first step of any pattern analysis.
    """
    flows: dict = {}
    for rec in records:
        flows.setdefault(rec.flow, []).append(rec)
    return flows


def largest_flow(records: Sequence[CapturedPacket]) -> List[CapturedPacket]:
    """The flow carrying the most bytes (usually the video/persona stream).

    Raises:
        ValueError: On an empty capture.
    """
    flows = split_flows(records)
    if not flows:
        raise ValueError("no records to split")
    return max(flows.values(), key=lambda rs: sum(r.wire_bytes for r in rs))


@dataclass(frozen=True)
class Burst:
    """One packet train, presumed to carry one media frame."""

    start: float
    end: float
    packets: int
    payload_bytes: int


def segment_bursts(records: Sequence[CapturedPacket],
                   gap_s: float = 0.004) -> List[Burst]:
    """Group records into bursts separated by more than ``gap_s``.

    Media sources emit each frame as a back-to-back train; consecutive
    frames at 30-90 FPS are >= 11 ms apart, so a few milliseconds of gap
    cleanly separates them.
    """
    positive(gap_s, "gap_s")
    bursts: List[Burst] = []
    start = end = None
    packets = 0
    size = 0
    for rec in records:
        if start is None:
            start, end, packets, size = rec.timestamp, rec.timestamp, 1, rec.wire_bytes
            continue
        if rec.timestamp - end > gap_s:
            bursts.append(Burst(start, end, packets, size))
            start, end, packets, size = rec.timestamp, rec.timestamp, 1, rec.wire_bytes
        else:
            end = rec.timestamp
            packets += 1
            size += rec.wire_bytes
    if start is not None:
        bursts.append(Burst(start, end, packets, size))
    return bursts


@dataclass(frozen=True)
class TrafficProfile:
    """Pattern-level description of one captured media stream."""

    burst_count: int
    estimated_fps: float
    mean_frame_bytes: float
    frame_size_cv: float       # coefficient of variation of burst sizes
    mean_packets_per_frame: float
    mean_mbps: float


def profile_records(records: Sequence[CapturedPacket],
                    gap_s: float = 0.004) -> TrafficProfile:
    """Estimate frame rate / frame sizes from sizes and timing alone.

    Raises:
        ValueError: With fewer than two bursts (nothing to rate).
    """
    bursts = segment_bursts(records, gap_s)
    if len(bursts) < 2:
        raise ValueError("need at least two bursts to profile a stream")
    span = bursts[-1].start - bursts[0].start
    sizes = np.array([b.payload_bytes for b in bursts], dtype=float)
    fps = (len(bursts) - 1) / span if span > 0 else 0.0
    return TrafficProfile(
        burst_count=len(bursts),
        estimated_fps=fps,
        mean_frame_bytes=float(sizes.mean()),
        frame_size_cv=float(sizes.std() / sizes.mean()) if sizes.mean() else 0.0,
        mean_packets_per_frame=float(np.mean([b.packets for b in bursts])),
        mean_mbps=float(sizes.sum() * 8.0 / span / 1e6) if span > 0 else 0.0,
    )


class InferredContent(enum.Enum):
    """What the pattern classifier believes a stream carries."""

    SEMANTIC_KEYPOINTS = "semantic"
    VIDEO_2D = "video"
    MESH_3D = "mesh"
    UNKNOWN = "unknown"


def classify_content(profile: TrafficProfile) -> InferredContent:
    """Classify a stream from its transmission pattern.

    The three delivery approaches of Sec. 4.3 have cleanly separable
    signatures:

    - **semantic**: ~90 bursts/s, single small packet, near-constant size;
    - **2D video**: ~24-60 bursts/s, a few packets per frame, bursty sizes
      (the I/P group-of-pictures pattern gives a high size CV);
    - **mesh**: ~90 bursts/s of *many* MTU-sized packets (>100 KB/frame).
    """
    if profile.mean_frame_bytes > 20_000 and profile.mean_packets_per_frame > 20:
        return InferredContent.MESH_3D
    if (
        profile.estimated_fps > 60
        and profile.mean_packets_per_frame < 3
        and profile.frame_size_cv < 0.2
    ):
        return InferredContent.SEMANTIC_KEYPOINTS
    if 10 <= profile.estimated_fps <= 65 and profile.frame_size_cv >= 0.15:
        return InferredContent.VIDEO_2D
    return InferredContent.UNKNOWN


@dataclass(frozen=True)
class RtpLossEstimate:
    """Loss inferred from cleartext RTP sequence numbers."""

    received: int
    expected: int

    @property
    def loss_rate(self) -> float:
        """Estimated fraction of packets lost in the network."""
        if self.expected <= 0:
            return 0.0
        return max(0.0, 1.0 - self.received / self.expected)


def estimate_rtp_loss(records: Sequence[CapturedPacket]) -> RtpLossEstimate:
    """Count sequence gaps across the RTP records of one direction.

    Only usable on RTP sessions — QUIC hides its packet numbers from a
    passive observer, which is exactly the paper's Sec. 5 point.
    """
    sequences = []
    for rec in records:
        if looks_like_rtp(rec.snap):
            try:
                sequences.append(RtpHeader.parse(rec.snap).sequence)
            except ValueError:
                continue
    if not sequences:
        return RtpLossEstimate(received=0, expected=0)
    # Unwrap the 16-bit counter.
    extended = [sequences[0]]
    for seq in sequences[1:]:
        prev = extended[-1]
        candidate = (prev & ~0xFFFF) | seq
        if candidate < prev - 0x8000:
            candidate += 0x10000
        extended.append(candidate)
    expected = max(extended) - min(extended) + 1
    return RtpLossEstimate(received=len(set(extended)), expected=expected)
