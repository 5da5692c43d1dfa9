"""Wireshark-style packet captures.

The paper runs Wireshark at each WiFi AP (Sec. 3.2).  A
:class:`PacketCapture` records the same observables: timestamp, direction
relative to the monitored host, wire size, the 5-tuple, and the first bytes
of the transport payload (enough for the protocol classifier in
:mod:`repro.analysis.protocol` to recognize RTP vs QUIC, exactly as a
passive observer of encrypted traffic would).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from repro.netsim.packet import Packet

#: How many payload bytes a capture retains (Wireshark snaplen analogue).
SNAP_BYTES = 64


class Direction(enum.Enum):
    """Packet direction relative to the monitored host."""

    UPLINK = "uplink"
    DOWNLINK = "downlink"


@dataclass(frozen=True, slots=True)
class CapturedPacket:
    """One record in a capture file."""

    timestamp: float
    direction: Direction
    wire_bytes: int
    src: str
    dst: str
    src_port: int
    dst_port: int
    protocol: int
    snap: bytes

    @property
    def flow(self) -> tuple:
        """The 5-tuple identifying the packet's flow."""
        return (self.src, self.dst, self.src_port, self.dst_port, self.protocol)


@dataclass
class PacketCapture:
    """An append-only capture attached to one host's point of attachment."""

    host_address: str
    records: List[CapturedPacket] = field(default_factory=list)

    def observe(self, timestamp: float, packet: Packet) -> None:
        """Record a packet crossing the monitored attachment point."""
        if packet.src == self.host_address:
            direction = Direction.UPLINK
        elif packet.dst == self.host_address:
            direction = Direction.DOWNLINK
        else:
            return  # not our host's traffic; a real AP capture filters too
        self.records.append(CapturedPacket(
            timestamp, direction, packet.wire_bytes, packet.src, packet.dst,
            packet.src_port, packet.dst_port, packet.protocol,
            packet.payload[:SNAP_BYTES],
        ))

    def filter(
        self,
        direction: Optional[Direction] = None,
        peer: Optional[str] = None,
        protocol: Optional[int] = None,
    ) -> List[CapturedPacket]:
        """Select records, Wireshark display-filter style."""
        out = []
        for rec in self.records:
            if direction is not None and rec.direction is not direction:
                continue
            if protocol is not None and rec.protocol != protocol:
                continue
            if peer is not None:
                other = rec.dst if rec.direction is Direction.UPLINK else rec.src
                if other != peer:
                    continue
            out.append(rec)
        return out

    def total_bytes(self, direction: Optional[Direction] = None) -> int:
        """Sum of wire bytes across (optionally filtered) records."""
        return sum(r.wire_bytes for r in self.filter(direction))

    def duration(self) -> float:
        """Time between first and last record, in seconds."""
        if len(self.records) < 2:
            return 0.0
        return self.records[-1].timestamp - self.records[0].timestamp

    def clear(self) -> None:
        """Drop all records (start a fresh capture)."""
        self.records.clear()
