"""Byte-accurate packets.

A packet carries an opaque payload (bytes produced by the transport layer in
:mod:`repro.transport`) plus addressing metadata.  On-the-wire size includes
IPv4 and UDP/TCP header overhead so that captured throughput matches what
Wireshark would report at the testbed APs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict

IPV4_HEADER_BYTES = 20
UDP_HEADER_BYTES = 8
TCP_HEADER_BYTES = 20

IPPROTO_UDP = 17
IPPROTO_TCP = 6

#: Conventional media MTU used by the VCAs in this study (payload budget).
MEDIA_MTU_BYTES = 1200

_packet_ids = itertools.count(1)


@dataclass
class Packet:
    """One IP datagram in flight.

    Attributes:
        src: Source IPv4 address (dotted quad string).
        dst: Destination IPv4 address.
        src_port: Source transport port.
        dst_port: Destination transport port.
        protocol: ``IPPROTO_UDP`` or ``IPPROTO_TCP``.
        payload: Transport-layer bytes (e.g. a full RTP or QUIC packet).
        created_at: Simulated send timestamp (seconds), stamped by the host.
        meta: Free-form annotations (stream id, frame index, media kind) that
            ride along for analysis; they do not contribute to wire size.
        wire_bytes: Total on-the-wire size: IP + transport headers +
            payload.  Fixed at construction (a packet's payload is never
            reassigned; forwarding and replies build new packets), so the
            forwarding path reads it instead of recomputing it per hop.
    """

    src: str
    dst: str
    src_port: int
    dst_port: int
    protocol: int
    payload: bytes
    created_at: float = 0.0
    meta: Dict[str, Any] = field(default_factory=dict)
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    wire_bytes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.protocol not in (IPPROTO_UDP, IPPROTO_TCP):
            raise ValueError(f"unsupported IP protocol {self.protocol}")
        for port in (self.src_port, self.dst_port):
            if not 0 < port < 65536:
                raise ValueError(f"port out of range: {port}")
        self.wire_bytes = (IPV4_HEADER_BYTES + self.transport_header_bytes
                           + len(self.payload))

    @property
    def transport_header_bytes(self) -> int:
        """UDP or TCP header size."""
        if self.protocol == IPPROTO_UDP:
            return UDP_HEADER_BYTES
        return TCP_HEADER_BYTES

    def reply_shell(self, payload: bytes = b"") -> "Packet":
        """A packet headed back to this packet's sender (ports swapped)."""
        return Packet(
            src=self.dst,
            dst=self.src,
            src_port=self.dst_port,
            dst_port=self.src_port,
            protocol=self.protocol,
            payload=payload,
        )

    def forward_to(self, dst: str, dst_port: int, src: str, src_port: int) -> "Packet":
        """A copy of this packet re-addressed by a forwarding server."""
        return Packet(
            src=src,
            dst=dst,
            src_port=src_port,
            dst_port=dst_port,
            protocol=self.protocol,
            payload=self.payload,
            meta=dict(self.meta),
        )
