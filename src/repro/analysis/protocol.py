"""Passive protocol identification from captured bytes.

Sec. 4.1 identifies each session's transport by inspecting packets with
Wireshark: QUIC is recognizable by its header invariants, RTP by the
version bits and a stable Payload Type.  The classifier here does the same
against the snap bytes retained in captures — it never looks at the
simulator's metadata, so it sees exactly what a passive observer sees.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.netsim.capture import CapturedPacket, PacketCapture
from repro.transport.quic import is_quic_datagram
from repro.transport.rtp import RtpHeader, looks_like_rtp


@dataclass
class ProtocolReport:
    """What a passive observer concludes about a capture."""

    quic_packets: int = 0
    rtp_packets: int = 0
    other_packets: int = 0
    payload_types: Counter = field(default_factory=Counter)

    @property
    def total(self) -> int:
        """Total classified packets."""
        return self.quic_packets + self.rtp_packets + self.other_packets

    @property
    def dominant(self) -> str:
        """The majority protocol label: 'quic', 'rtp', or 'other'."""
        counts = {
            "quic": self.quic_packets,
            "rtp": self.rtp_packets,
            "other": self.other_packets,
        }
        return max(counts, key=counts.get)  # type: ignore[arg-type]

    def dominant_payload_type(self) -> Optional[int]:
        """Most frequent RTP payload type, if any RTP was seen."""
        if not self.payload_types:
            return None
        return self.payload_types.most_common(1)[0][0]


def classify_snaps(snaps: Iterable[bytes]) -> ProtocolReport:
    """Classify packets by their retained payload bytes, byte-first.

    RTP and QUIC first bytes are disjoint (RTP: version 2 -> 0b10xxxxxx
    with the QUIC fixed bit clear; QUIC: fixed bit 0x40 set), which is the
    same separation Wireshark's heuristic dissector uses.
    """
    report = ProtocolReport()
    for snap in snaps:
        if looks_like_rtp(snap) and not is_quic_datagram(snap):
            report.rtp_packets += 1
            try:
                report.payload_types[RtpHeader.parse(snap).payload_type] += 1
            except ValueError:
                pass
        elif is_quic_datagram(snap):
            report.quic_packets += 1
        else:
            report.other_packets += 1
    return report


def classify_records(records: Sequence[CapturedPacket]) -> ProtocolReport:
    """Classify a list of capture records by their snaps."""
    return classify_snaps(record.snap for record in records)


def classify_capture(capture: PacketCapture) -> ProtocolReport:
    """Classify every record of one AP capture (no record is built)."""
    return classify_snaps(capture.snaps())
