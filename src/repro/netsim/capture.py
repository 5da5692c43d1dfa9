"""Wireshark-style packet captures, and the throughput windows they give.

The paper runs Wireshark at each WiFi AP (Sec. 3.2).  A
:class:`PacketCapture` records the same observables: timestamp, direction
relative to the monitored host, wire size, the 5-tuple, and the first bytes
of the transport payload (enough for the protocol classifier in
:mod:`repro.analysis.protocol` to recognize RTP vs QUIC, exactly as a
passive observer of encrypted traffic would).

A capture keeps them in typed columns and builds :class:`CapturedPacket`
records only on request.  Every Fig. 4-style throughput window (capture,
SFU fast-path observer, bench lane) comes from one kernel,
:func:`window_mbps`.
"""

from __future__ import annotations

import enum
import math
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.netsim.packet import Packet

#: How many payload bytes a capture retains (Wireshark snaplen analogue).
SNAP_BYTES = 64


class Direction(enum.Enum):
    """Packet direction relative to the monitored host."""

    UPLINK = "uplink"
    DOWNLINK = "downlink"


#: Direction by the capture's direction byte (1 = uplink).
_DIRECTIONS = (Direction.DOWNLINK, Direction.UPLINK)


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


class PacketCapture:
    """An append-only capture attached to one host's point of attachment."""

    __slots__ = ("host_address", "_time", "_up", "_wire", "_flow", "_snap",
                 "_flow_ids")

    def __init__(self, host_address: str) -> None:
        self.host_address = host_address
        self.clear()

    def observe(self, timestamp: float, packet: Packet) -> None:
        """Record a packet crossing the monitored attachment point."""
        src = packet.src
        if src == self.host_address:
            up = 1
        elif packet.dst == self.host_address:
            up = 0
        else:
            return  # not our host's traffic; a real AP capture filters too
        self._push(timestamp, up, packet.wire_bytes,
                   (src, packet.dst, packet.src_port, packet.dst_port,
                    packet.protocol),
                   packet.payload[:SNAP_BYTES])

    def append(self, record: CapturedPacket) -> None:
        """Add one record as it is (a loaded trace, a hand-built capture)."""
        self._push(record.timestamp,
                   1 if record.direction is Direction.UPLINK else 0,
                   record.wire_bytes, record.flow, record.snap)

    def _push(self, timestamp: float, up: int, wire_bytes: int, flow: tuple,
              snap: bytes) -> None:
        flow_id = self._flow_ids.get(flow)
        if flow_id is None:
            flow_id = self._flow_ids[flow] = len(self._flow_ids)
        self._time.append(timestamp)
        self._up.append(up)
        self._wire.append(wire_bytes)
        self._flow.append(flow_id)
        self._snap.append(snap)

    @property
    def records(self) -> Tuple[CapturedPacket, ...]:
        """Every record, in capture order, built from the columns."""
        return tuple(self.filter())

    def series(self, direction: Direction, peer: Optional[str] = None
               ) -> Tuple[np.ndarray, np.ndarray]:
        """Timestamps (float64) and wire bytes (int64) of one direction's
        records, in capture order, optionally only those with ``peer``."""
        up = 1 if direction is Direction.UPLINK else 0
        keep = np.array(self._up, dtype=np.uint8) == up
        if peer is not None:
            peer_flow = np.array([flow[up] == peer for flow in self._flow_ids],
                                 dtype=bool)
            keep &= peer_flow[np.array(self._flow, dtype=np.intp)]
        return (np.array(self._time, dtype=np.float64)[keep],
                np.array(self._wire, dtype=np.int64)[keep])

    def filter(
        self,
        direction: Optional[Direction] = None,
        peer: Optional[str] = None,
        protocol: Optional[int] = None,
    ) -> List[CapturedPacket]:
        """Select records, Wireshark display-filter style."""
        flows = list(self._flow_ids)
        keep = {
            (flow_id, up): (direction is None or _DIRECTIONS[up] is direction)
            and (protocol is None or flow[4] == protocol)
            and (peer is None or flow[up] == peer)
            for flow_id, flow in enumerate(flows) for up in (0, 1)}
        return [
            CapturedPacket(t, _DIRECTIONS[up], wire, *flows[flow_id], snap)
            for t, up, wire, flow_id, snap in zip(
                self._time, self._up, self._wire, self._flow, self._snap)
            if keep[flow_id, up]
        ]

    def total_bytes(self, direction: Optional[Direction] = None) -> int:
        """Sum of wire bytes across (optionally filtered) records."""
        if direction is None:
            return sum(self._wire)
        return int(self.series(direction)[1].sum())

    def duration(self) -> float:
        """Time between first and last record, in seconds."""
        if len(self._time) < 2:
            return 0.0
        return self._time[-1] - self._time[0]

    def clear(self) -> None:
        """Drop all records (start a fresh capture)."""
        self._time = array("d")
        self._up = array("B")
        self._wire = array("I")
        self._flow = array("I")
        self._snap: List[bytes] = []
        # Interned 5-tuples, in flow-id order.  A record's remote end is
        # flow[up]: dst for an uplink record, src for a downlink one.
        self._flow_ids: Dict[tuple, int] = {}


def window_mbps(timestamps: np.ndarray, wire_bytes: np.ndarray,
                window_s: float, skip_head_s: float) -> List[float]:
    """Throughput of one packet stream in whole windows, in Mbps.

    The Fig. 4 procedure: windows of ``window_s`` start ``skip_head_s``
    after the first packet (handshakes, ramp-up), and only windows that
    end before the last packet count.  ``timestamps`` are in capture
    order, so their first and last entries bound the stream.  Byte sums
    are integers far below 2**53, so the float64 ``bincount`` is exact:
    it equals a per-packet accumulation.

    Raises:
        ValueError: Unless ``window_s`` is finite and positive and
            ``skip_head_s`` finite and non-negative.
    """
    if not 0.0 < window_s < math.inf:
        raise ValueError(f"window_s must be finite and > 0: {window_s}")
    if not 0.0 <= skip_head_s < math.inf:
        raise ValueError(f"skip_head_s must be finite and >= 0: {skip_head_s}")
    if len(timestamps) == 0:
        return []
    start = timestamps[0] + skip_head_s
    end = timestamps[-1]
    if end <= start:
        return []
    n_windows = int((end - start) / window_s)
    if n_windows < 1:
        return []
    rel = timestamps - start
    index = (rel / window_s).astype(np.int64)
    valid = (rel >= 0) & (index < n_windows)
    sums = np.bincount(index[valid], weights=wire_bytes[valid],
                       minlength=n_windows)
    return list(sums * 8.0 / window_s / 1e6)
