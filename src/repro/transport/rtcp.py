"""RTCP (RFC 3550): sender/receiver reports for the RTP sessions.

The paper collects telepresence statistics "using the tools provided by
Zoom, Webex, and Teams" (Sec. 3.2) — in-app panels whose loss, jitter, and
round-trip numbers come from RTCP.  This module implements the byte-level
Sender Report (SR) and Receiver Report (RR) packets plus the RFC 3550
receiver-side estimators (interarrival jitter, fraction lost, RTT from
LSR/DLSR), so :mod:`repro.vca.stats` can expose the same panel.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.checks import positive

#: RTCP packet types (RFC 3550 Sec. 12.1).
PT_SENDER_REPORT = 200
PT_RECEIVER_REPORT = 201

#: RTCP version, same two bits as RTP.
RTCP_VERSION = 2

_HEADER = struct.Struct("!BBH")          # V/P/RC, PT, length (32-bit words - 1)
_SENDER_INFO = struct.Struct("!IIIII")   # NTP hi, NTP lo, RTP ts, pkts, bytes
_REPORT_BLOCK = struct.Struct("!IBBHIIII")


def _to_ntp(seconds: float) -> Tuple[int, int]:
    """Split a float timestamp into 32.32 fixed-point NTP words."""
    hi = int(seconds)
    lo = int((seconds - hi) * (1 << 32)) & 0xFFFFFFFF
    return hi & 0xFFFFFFFF, lo


def _from_ntp(hi: int, lo: int) -> float:
    """Inverse of :func:`_to_ntp`."""
    return hi + lo / (1 << 32)


def to_ntp_middle(seconds: float) -> int:
    """The middle 32 bits of the NTP timestamp (the LSR/DLSR format)."""
    hi, lo = _to_ntp(seconds)
    return ((hi & 0xFFFF) << 16 | lo >> 16) & 0xFFFFFFFF


@dataclass(frozen=True)
class ReportBlock:
    """One reception report block (RFC 3550 Sec. 6.4.1).

    Attributes:
        ssrc: The reported-on sender's SSRC.
        fraction_lost: Loss fraction since the previous report, in 1/256.
        cumulative_lost: Total packets lost, 24-bit.
        highest_sequence: Extended highest sequence number received.
        jitter: Interarrival jitter in RTP timestamp units.
        last_sr: Middle 32 bits of the last SR's NTP timestamp (LSR).
        delay_since_last_sr: Delay since that SR in 1/65536 s (DLSR).
    """

    ssrc: int
    fraction_lost: int
    cumulative_lost: int
    highest_sequence: int
    jitter: int
    last_sr: int
    delay_since_last_sr: int

    def pack(self) -> bytes:
        """Serialize to the 24 report-block bytes."""
        return _REPORT_BLOCK.pack(
            self.ssrc & 0xFFFFFFFF,
            self.fraction_lost & 0xFF,
            (self.cumulative_lost >> 16) & 0xFF,
            self.cumulative_lost & 0xFFFF,
            self.highest_sequence & 0xFFFFFFFF,
            self.jitter & 0xFFFFFFFF,
            self.last_sr & 0xFFFFFFFF,
            self.delay_since_last_sr & 0xFFFFFFFF,
        )

    @classmethod
    def parse(cls, data: bytes) -> "ReportBlock":
        """Parse one 24-byte block."""
        ssrc, frac, lost_hi, lost_lo, seq, jitter, lsr, dlsr = (
            _REPORT_BLOCK.unpack(data[:24])
        )
        return cls(ssrc, frac, (lost_hi << 16) | lost_lo, seq, jitter, lsr, dlsr)

    @property
    def loss_rate(self) -> float:
        """Fraction lost as a float in [0, 1]."""
        return self.fraction_lost / 256.0


@dataclass(frozen=True)
class SenderReport:
    """An RTCP SR: sender info plus zero or more report blocks."""

    ssrc: int
    ntp_seconds: float
    rtp_timestamp: int
    packet_count: int
    byte_count: int
    blocks: Tuple[ReportBlock, ...] = ()

    def pack(self) -> bytes:
        """Serialize the full SR packet."""
        hi, lo = _to_ntp(self.ntp_seconds)
        body = (
            struct.pack("!I", self.ssrc)
            + _SENDER_INFO.pack(hi, lo, self.rtp_timestamp & 0xFFFFFFFF,
                                self.packet_count & 0xFFFFFFFF,
                                self.byte_count & 0xFFFFFFFF)
            + b"".join(b.pack() for b in self.blocks)
        )
        length_words = (len(body) + _HEADER.size) // 4 - 1
        first = (RTCP_VERSION << 6) | (len(self.blocks) & 0x1F)
        return _HEADER.pack(first, PT_SENDER_REPORT, length_words) + body


@dataclass(frozen=True)
class ReceiverReport:
    """An RTCP RR from a non-sending (or any) participant."""

    ssrc: int
    blocks: Tuple[ReportBlock, ...] = ()

    def pack(self) -> bytes:
        """Serialize the full RR packet."""
        body = struct.pack("!I", self.ssrc) + b"".join(
            b.pack() for b in self.blocks
        )
        length_words = (len(body) + _HEADER.size) // 4 - 1
        first = (RTCP_VERSION << 6) | (len(self.blocks) & 0x1F)
        return _HEADER.pack(first, PT_RECEIVER_REPORT, length_words) + body


def parse_rtcp(data: bytes):
    """Parse an SR or RR from packet bytes.

    Returns:
        A :class:`SenderReport` or :class:`ReceiverReport`.

    Raises:
        ValueError: If the bytes are not a version-2 SR/RR.
    """
    if len(data) < _HEADER.size + 4:
        raise ValueError("RTCP packet too short")
    first, packet_type, _length = _HEADER.unpack_from(data)
    if first >> 6 != RTCP_VERSION:
        raise ValueError("not RTCP version 2")
    count = first & 0x1F
    offset = _HEADER.size
    ssrc = struct.unpack_from("!I", data, offset)[0]
    offset += 4
    if packet_type == PT_SENDER_REPORT:
        hi, lo, rtp_ts, pkts, octets = _SENDER_INFO.unpack_from(data, offset)
        offset += _SENDER_INFO.size
        blocks = _parse_blocks(data, offset, count)
        return SenderReport(ssrc, _from_ntp(hi, lo), rtp_ts, pkts, octets,
                            blocks)
    if packet_type == PT_RECEIVER_REPORT:
        return ReceiverReport(ssrc, _parse_blocks(data, offset, count))
    raise ValueError(f"unsupported RTCP packet type {packet_type}")


def _parse_blocks(data: bytes, offset: int, count: int
                  ) -> Tuple[ReportBlock, ...]:
    blocks = []
    for i in range(count):
        start = offset + 24 * i
        if start + 24 > len(data):
            raise ValueError("truncated report block")
        blocks.append(ReportBlock.parse(data[start:start + 24]))
    return tuple(blocks)


class ReceptionEstimator:
    """Receiver-side statistics for one incoming RTP stream (RFC 3550 A.8).

    Feed it every received RTP packet; it maintains the extended highest
    sequence number, cumulative/interval loss, and the jitter estimate,
    and produces report blocks for outgoing RRs.
    """

    def __init__(self, ssrc: int, clock_rate_hz: int) -> None:
        self.ssrc = ssrc
        self.clock_rate_hz = positive(clock_rate_hz, "clock_rate_hz")
        self._base_seq: Optional[int] = None
        self._max_seq = 0
        self._cycles = 0
        self.packets_received = 0
        self._jitter = 0.0
        self._last_transit: Optional[float] = None
        self._expected_prior = 0
        self._received_prior = 0
        self._last_sr_ntp_middle = 0
        self._last_sr_arrival: Optional[float] = None

    def on_rtp(self, sequence: int, rtp_timestamp: int,
               arrival_s: float) -> None:
        """Register one received RTP packet."""
        if self._base_seq is None:
            self._base_seq = sequence
            self._max_seq = sequence
        elif sequence < self._max_seq and self._max_seq - sequence > 0x8000:
            self._cycles += 1 << 16
            self._max_seq = sequence
        elif sequence > self._max_seq:
            self._max_seq = sequence
        self.packets_received += 1
        # Interarrival jitter (RFC 3550 Sec. 6.4.1 / A.8), in ts units.
        transit = arrival_s * self.clock_rate_hz - rtp_timestamp
        if self._last_transit is not None:
            delta = abs(transit - self._last_transit)
            self._jitter += (delta - self._jitter) / 16.0
        self._last_transit = transit

    def on_sender_report(self, report: SenderReport, arrival_s: float) -> None:
        """Register an SR from this stream's sender (for RTT computation)."""
        self._last_sr_ntp_middle = to_ntp_middle(report.ntp_seconds)
        self._last_sr_arrival = arrival_s

    @property
    def extended_highest_sequence(self) -> int:
        """Cycles + highest sequence seen."""
        return self._cycles + self._max_seq

    @property
    def expected(self) -> int:
        """Packets expected given the sequence span."""
        if self._base_seq is None:
            return 0
        return self.extended_highest_sequence - self._base_seq + 1

    @property
    def cumulative_lost(self) -> int:
        """Total packets lost so far (floored at zero)."""
        return max(0, self.expected - self.packets_received)

    @property
    def jitter_seconds(self) -> float:
        """Current jitter estimate converted to seconds."""
        return self._jitter / self.clock_rate_hz

    def make_report_block(self, now_s: float) -> ReportBlock:
        """Produce a report block for the next outgoing RR/SR."""
        expected_interval = self.expected - self._expected_prior
        received_interval = self.packets_received - self._received_prior
        self._expected_prior = self.expected
        self._received_prior = self.packets_received
        lost_interval = max(0, expected_interval - received_interval)
        fraction = (
            (lost_interval << 8) // expected_interval
            if expected_interval > 0 else 0
        )
        dlsr = 0
        if self._last_sr_arrival is not None:
            dlsr = int((now_s - self._last_sr_arrival) * 65536)
        return ReportBlock(
            ssrc=self.ssrc,
            fraction_lost=min(255, fraction),
            cumulative_lost=self.cumulative_lost,
            highest_sequence=self.extended_highest_sequence,
            jitter=int(self._jitter),
            last_sr=self._last_sr_ntp_middle,
            delay_since_last_sr=dlsr,
        )


def rtt_from_report(block: ReportBlock, sr_send_time_middle: int,
                    rr_arrival_s: float) -> Optional[float]:
    """Sender-side RTT from a returned report block (RFC 3550 Sec. 6.4.1).

    ``rtt = arrival - LSR - DLSR`` in middle-32-bit NTP units; returns
    seconds, or None when the receiver has not yet seen an SR.
    """
    if block.last_sr == 0 or block.last_sr != sr_send_time_middle:
        return None
    arrival_middle = to_ntp_middle(rr_arrival_s)
    rtt_units = (arrival_middle - block.last_sr - block.delay_since_last_sr)
    rtt_units &= 0xFFFFFFFF
    return rtt_units / 65536.0
