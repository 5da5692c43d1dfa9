"""Forward error correction for loss-fragile semantic streams.

Sec. 4.3's mechanism for the 700 Kbps cliff is that "missing certain parts
of semantic information can result in failed content reconstruction" — the
stream carries no redundancy.  This module provides the classic remedy:
XOR parity across groups of ``k`` source packets (a 1D interleaved parity
code, the shape RFC 5109 standardizes for RTP).  Any single loss within a
group is recoverable at the cost of ``1/k`` extra bandwidth.

Used by the A5 loss-resilience ablation.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.checks import at_least, fraction

#: Payload type discriminators inside the FEC framing.
_SOURCE = 0
_PARITY = 1

_HEADER = struct.Struct("<BIHH")  # kind, group id, index/k, payload length


def _xor_bytes(a: bytes, b: bytes) -> bytes:
    if len(a) < len(b):
        a, b = b, a
    out = bytearray(a)
    for i, byte in enumerate(b):
        out[i] ^= byte
    return bytes(out)


@dataclass(frozen=True)
class FecPacket:
    """One packet of the protected stream (source or parity)."""

    group: int
    index: int          # source index within the group; k for parity
    k: int
    payload: bytes
    is_parity: bool

    def pack(self) -> bytes:
        """Serialize with the FEC framing header."""
        kind = _PARITY if self.is_parity else _SOURCE
        return _HEADER.pack(kind, self.group, self.index, self.k) + \
            struct.pack("<I", len(self.payload)) + self.payload

    @classmethod
    def parse(cls, data: bytes) -> "FecPacket":
        """Parse a framed packet.

        Raises:
            ValueError: On truncation or unknown kind.
        """
        if len(data) < _HEADER.size + 4:
            raise ValueError("truncated FEC packet")
        kind, group, index, k = _HEADER.unpack_from(data)
        if kind not in (_SOURCE, _PARITY):
            raise ValueError(f"unknown FEC kind {kind}")
        (length,) = struct.unpack_from("<I", data, _HEADER.size)
        payload = data[_HEADER.size + 4:_HEADER.size + 4 + length]
        if len(payload) != length:
            raise ValueError("truncated FEC payload")
        return cls(group, index, k, payload, kind == _PARITY)


def _length_prefixed(payload: bytes) -> bytes:
    """Length-prefix a payload so XOR recovery restores exact lengths.

    RFC 5109 protects the length field the same way: the parity covers
    the 4-byte length plus the payload bytes (implicitly zero-padded to
    the group's longest).
    """
    return struct.pack("<I", len(payload)) + payload


def _strip_length(buffer: bytes) -> bytes:
    (length,) = struct.unpack_from("<I", buffer)
    if length > len(buffer) - 4:
        raise ValueError("recovered length exceeds buffer")
    return buffer[4:4 + length]


class FecEncoder:
    """Groups source payloads and emits XOR parity after every ``k``."""

    def __init__(self, k: int = 4, first_group: int = 0) -> None:
        at_least(first_group, 0, "first_group")
        self.k = at_least(k, 2, "k")
        self._group = first_group
        self._index = 0
        self._parity = b""
        self.parity_packets_sent = 0

    def protect(self, payload: bytes) -> List[FecPacket]:
        """Wrap one source payload; may append the group's parity packet."""
        packets = [FecPacket(self._group, self._index, self.k, payload, False)]
        self._parity = _xor_bytes(self._parity, _length_prefixed(payload))
        self._index += 1
        if self._index == self.k:
            packets.append(
                FecPacket(self._group, self.k, self.k, self._parity, True)
            )
            self.parity_packets_sent += 1
            self._group += 1
            self._index = 0
            self._parity = b""
        return packets

    @property
    def overhead_fraction(self) -> float:
        """Bandwidth overhead of the parity stream (1/k in packets)."""
        return 1.0 / self.k

    @property
    def next_group(self) -> int:
        """Group id the next full group will use (for encoder handover)."""
        return self._group + (1 if self._index else 0)


class AdaptiveFecPolicy:
    """Maps observed loss to an FEC group size — or None to disable.

    More loss buys more redundancy (smaller ``k``, larger parity share);
    clean links pay nothing.  The mapping is monotone non-increasing in
    ``k`` as loss grows, which the property tests check, and hysteresis is
    left to the caller's control interval (re-evaluating once per interval
    is damping enough for the simulated streams).
    """

    def __init__(self, enable_at: float = 0.005,
                 thresholds: Optional[List[tuple]] = None) -> None:
        self.enable_at = fraction(enable_at, "enable_at", "[)")
        # (loss at least, k) rungs, most aggressive first.
        self._thresholds = thresholds or [(0.15, 2), (0.05, 3), (0.0, 4)]

    def k_for_loss(self, loss: float) -> Optional[int]:
        """Group size for an observed loss fraction (None = FEC off).

        Raises:
            ValueError: For a loss outside [0, 1].
        """
        fraction(loss, "loss")
        if loss < self.enable_at:
            return None
        for min_loss, k in self._thresholds:
            if loss >= min_loss:
                return k
        return self._thresholds[-1][1]

    def overhead_for_loss(self, loss: float) -> float:
        """Parity bandwidth share the policy spends at this loss level."""
        k = self.k_for_loss(loss)
        return 0.0 if k is None else 1.0 / k


class FecDecoder:
    """Recovers up to one lost source packet per group."""

    def __init__(self) -> None:
        self._groups: Dict[int, Dict[int, bytes]] = {}
        self._parity: Dict[int, bytes] = {}
        self._k: Dict[int, int] = {}
        self.recovered = 0

    def receive(self, packet: FecPacket) -> List[bytes]:
        """Feed one arriving packet; returns newly available payloads.

        Source payloads are returned immediately; a recovered payload is
        returned once the parity plus ``k - 1`` sources are in hand.
        """
        group = self._groups.setdefault(packet.group, {})
        self._k[packet.group] = packet.k
        delivered: List[bytes] = []
        if packet.is_parity:
            self._parity[packet.group] = packet.payload
        else:
            if packet.index not in group:
                group[packet.index] = packet.payload
                delivered.append(packet.payload)
        recovered = self._try_recover(packet.group)
        if recovered is not None:
            delivered.append(recovered)
        self._garbage_collect(packet.group)
        return delivered

    def _try_recover(self, group_id: int) -> Optional[bytes]:
        parity = self._parity.get(group_id)
        group = self._groups.get(group_id, {})
        k = self._k.get(group_id, 0)
        if parity is None or len(group) != k - 1:
            return None
        missing = next(i for i in range(k) if i not in group)
        buffer = parity
        for source in group.values():
            buffer = _xor_bytes(buffer, _length_prefixed(source))
        try:
            payload = _strip_length(buffer)
        except (ValueError, struct.error):
            return None
        group[missing] = payload
        self.recovered += 1
        return payload

    def _garbage_collect(self, newest_group: int,
                         horizon: int = 64) -> None:
        stale = [g for g in self._groups if g < newest_group - horizon]
        for g in stale:
            self._groups.pop(g, None)
            self._parity.pop(g, None)
            self._k.pop(g, None)
