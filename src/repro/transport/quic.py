"""Simplified QUIC (RFC 9000 framing, opaque protected payloads).

When every participant is on Vision Pro, FaceTime carries the spatial
persona over QUIC, end-to-end encrypted with TLS 1.3 (Sec. 4.1, Sec. 5).  A
passive observer — the position this reproduction puts its analysis layer
in — sees only header forms and ciphertext.  This module implements exactly
that surface:

- long-header Initial/Handshake packets for connection setup,
- short-header 1-RTT packets whose payload is ciphertext (a toy stream
  cipher keyed per connection: *not* cryptographically secure, but it makes
  the payload bytes opaque and incompressible like real TLS records), and
- the first-byte invariants (RFC 8999) the protocol classifier keys on.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional

#: RFC 9000: the "fixed bit" — set on every QUIC packet.
QUIC_FIXED_BIT = 0x40
#: RFC 9000: the header-form bit — set on long-header packets only.
QUIC_LONG_HEADER_BIT = 0x80

#: Connection ID length this implementation always uses.
CONNECTION_ID_BYTES = 8
#: Packet-number encoding width (we always use the 4-byte encoding).
PACKET_NUMBER_BYTES = 4

#: Short header: flags(1) + dcid(8) + packet number(4).
SHORT_HEADER_BYTES = 1 + CONNECTION_ID_BYTES + PACKET_NUMBER_BYTES
#: Long header: flags(1) + version(4) + dcid length(1) + dcid(8) +
#: packet number(4).
LONG_HEADER_BYTES = 6 + CONNECTION_ID_BYTES + PACKET_NUMBER_BYTES

#: Per-packet payload budget inside the media MTU.
QUIC_MAX_PAYLOAD = 1175

#: Long-header packet types (RFC 9000 Sec. 17.2).
TYPE_INITIAL = 0x0
TYPE_HANDSHAKE = 0x2


@dataclass(frozen=True)
class QuicPacketHeader:
    """Decoded view of a QUIC packet header (short or long form)."""

    long_form: bool
    packet_type: Optional[int]  # None for short-header packets
    dcid: bytes
    packet_number: int


def is_quic_datagram(data: bytes) -> bool:
    """First-byte check per the QUIC invariants (RFC 8999).

    The fixed bit must be set; RTP version-2 datagrams have first byte
    0b10xxxxxx with the 0x40 bit clear, so the two protocols are separable
    exactly the way Wireshark separates them.
    """
    return len(data) >= SHORT_HEADER_BYTES and bool(data[0] & QUIC_FIXED_BIT)


def parse_header(data: bytes) -> QuicPacketHeader:
    """Parse a short- or long-form header from the front of a datagram.

    Raises:
        ValueError: If the bytes violate the QUIC invariants.
    """
    if not is_quic_datagram(data):
        raise ValueError("not a QUIC datagram (fixed bit clear or too short)")
    first = data[0]
    if first & QUIC_LONG_HEADER_BIT:
        if len(data) < LONG_HEADER_BYTES:
            raise ValueError("truncated long header")
        packet_type = (first >> 4) & 0x3
        # version(4) | dcid_len(1) | dcid | ... ; we emit fixed-size fields.
        dcid = data[6:6 + CONNECTION_ID_BYTES]
        number = struct.unpack(
            "!I", data[6 + CONNECTION_ID_BYTES:10 + CONNECTION_ID_BYTES]
        )[0]
        return QuicPacketHeader(True, packet_type, dcid, number)
    dcid = data[1:1 + CONNECTION_ID_BYTES]
    number = struct.unpack("!I", data[1 + CONNECTION_ID_BYTES:SHORT_HEADER_BYTES])[0]
    return QuicPacketHeader(False, None, dcid, number)


def _keystream(key: bytes, nonce: int, length: int) -> bytes:
    """Deterministic pseudo-random keystream (toy cipher, not secure)."""
    out = bytearray()
    counter = 0
    while len(out) < length:
        block = hashlib.sha256(key + struct.pack("!QI", nonce, counter)).digest()
        out.extend(block)
        counter += 1
    return bytes(out[:length])


#: Keystream bytes cached per (secret, packet number): 37 SHA-256 blocks,
#: the fewest that cover the largest payload (``QUIC_MAX_PAYLOAD``).
_PAD_BYTES = 37 * 32


@lru_cache(maxsize=2048)
def _keystream_pad(key: bytes, nonce: int) -> int:
    """The first ``_PAD_BYTES`` of the keystream, as a big-endian int.

    Every connection in a session shares the secret and numbers its
    packets from 0, so one pad serves packet n of every sender and of
    every receiver that decrypts it.
    """
    return int.from_bytes(_keystream(key, nonce, _PAD_BYTES), "big")


class QuicConnection:
    """One end of a QUIC connection carrying a protected media stream."""

    def __init__(self, dcid: bytes, secret: bytes) -> None:
        if len(dcid) != CONNECTION_ID_BYTES:
            raise ValueError(f"dcid must be {CONNECTION_ID_BYTES} bytes")
        self.dcid = dcid
        self._secret = secret
        self._packet_number = 0
        self.handshake_complete = False

    # ------------------------------------------------------------------
    # Handshake (long-header packets)
    # ------------------------------------------------------------------

    def initial_packet(self, client_hello_bytes: int = 512) -> bytes:
        """The client Initial carrying a (padded) TLS ClientHello."""
        return self._long_packet(TYPE_INITIAL, bytes(client_hello_bytes))

    def handshake_packet(self, flight_bytes: int = 256) -> bytes:
        """A Handshake-space packet completing the TLS 1.3 exchange."""
        packet = self._long_packet(TYPE_HANDSHAKE, bytes(flight_bytes))
        self.handshake_complete = True
        return packet

    def _long_packet(self, packet_type: int, payload: bytes) -> bytes:
        first = QUIC_LONG_HEADER_BIT | QUIC_FIXED_BIT | (packet_type << 4)
        number = self._next_number()
        header = (
            bytes([first])
            + struct.pack("!I", 1)  # version
            + bytes([CONNECTION_ID_BYTES])
            + self.dcid
            + struct.pack("!I", number)
        )
        return header + self._protect(number, payload)

    # ------------------------------------------------------------------
    # 1-RTT data (short-header packets)
    # ------------------------------------------------------------------

    def protect_frame(self, frame: bytes) -> List[bytes]:
        """Encrypt one application frame into 1-RTT datagrams."""
        if not frame:
            raise ValueError("cannot send an empty frame")
        datagrams = []
        for i in range(0, len(frame), QUIC_MAX_PAYLOAD):
            chunk = frame[i:i + QUIC_MAX_PAYLOAD]
            number = self._next_number()
            header = (
                bytes([QUIC_FIXED_BIT])
                + self.dcid
                + struct.pack("!I", number)
            )
            datagrams.append(header + self._protect(number, chunk))
        return datagrams

    def unprotect(self, datagram: bytes) -> bytes:
        """Decrypt the payload of a datagram addressed to this connection.

        Raises:
            ValueError: On header-form violations or a connection-ID
                mismatch — the situations where real QUIC drops the packet.
        """
        header = parse_header(datagram)
        if header.dcid != self.dcid:
            raise ValueError("connection ID mismatch")
        offset = LONG_HEADER_BYTES if header.long_form else SHORT_HEADER_BYTES
        ciphertext = datagram[offset:]
        return self._xor(header.packet_number, ciphertext)

    def _protect(self, number: int, plaintext: bytes) -> bytes:
        return self._xor(number, plaintext)

    def _xor(self, nonce: int, data: bytes) -> bytes:
        # One big-int XOR instead of a per-byte loop; same bytes out.  The
        # keystream of length L is the first L bytes of the pad.
        length = len(data)
        if length <= _PAD_BYTES:
            stream = (_keystream_pad(self._secret, nonce)
                      >> (8 * (_PAD_BYTES - length)))
        else:
            stream = int.from_bytes(
                _keystream(self._secret, nonce, length), "big")
        return (int.from_bytes(data, "big") ^ stream).to_bytes(length, "big")

    def _next_number(self) -> int:
        number = self._packet_number
        self._packet_number += 1
        return number
