"""Capture persistence: a pcap-like binary trace format.

The paper promises to "release the source code of our tools and the
collected data"; this is the collected-data half.  Traces serialize
:class:`~repro.netsim.capture.PacketCapture` records to a compact binary
file (magic, version, record count, then fixed-layout records with the
snap bytes) so captures can be archived and re-analyzed offline.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Union

from repro.netsim.capture import CapturedPacket, Direction, PacketCapture

PathLike = Union[str, Path]

_MAGIC = b"RPTR"
_VERSION = 1
_FILE_HEADER = struct.Struct("<4sHI")  # magic, version, record count
#: timestamp, direction flag, wire bytes, ports, protocol, snap length.
_RECORD = struct.Struct("<dBIHHBB")


def _pack_address(address: str) -> bytes:
    parts = address.split(".")
    if len(parts) != 4:
        raise ValueError(f"not an IPv4 address: {address!r}")
    return bytes(int(p) for p in parts)


def _unpack_address(blob: bytes) -> str:
    return ".".join(str(b) for b in blob)


def save_trace(capture: PacketCapture, path: PathLike) -> None:
    """Write a capture to ``path``."""
    out = bytearray()
    records = capture.records
    out += _FILE_HEADER.pack(_MAGIC, _VERSION, len(records))
    out += _pack_address(capture.host_address)
    for rec in records:
        snap = rec.snap[:255]
        out += _RECORD.pack(
            rec.timestamp,
            1 if rec.direction is Direction.UPLINK else 0,
            rec.wire_bytes,
            rec.src_port,
            rec.dst_port,
            rec.protocol,
            len(snap),
        )
        out += _pack_address(rec.src)
        out += _pack_address(rec.dst)
        out += snap
    Path(path).write_bytes(bytes(out))


def load_trace(path: PathLike) -> PacketCapture:
    """Read a capture written by :func:`save_trace`.

    Raises:
        ValueError: On bad magic, unsupported version, or truncation.
    """
    data = Path(path).read_bytes()
    if len(data) < _FILE_HEADER.size + 4:
        raise ValueError("trace file too short")
    magic, version, count = _FILE_HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise ValueError("not a repro trace file")
    if version != _VERSION:
        raise ValueError(f"unsupported trace version {version}")
    offset = _FILE_HEADER.size
    host = _unpack_address(data[offset:offset + 4])
    offset += 4
    capture = PacketCapture(host)
    for _ in range(count):
        if offset + _RECORD.size + 8 > len(data):
            raise ValueError("truncated trace record")
        (timestamp, up, wire, sport, dport, proto,
         snap_len) = _RECORD.unpack_from(data, offset)
        offset += _RECORD.size
        src = _unpack_address(data[offset:offset + 4])
        dst = _unpack_address(data[offset + 4:offset + 8])
        offset += 8
        if offset + snap_len > len(data):
            raise ValueError("truncated snap bytes")
        snap = data[offset:offset + snap_len]
        offset += snap_len
        capture.append(CapturedPacket(
            timestamp=timestamp,
            direction=Direction.UPLINK if up else Direction.DOWNLINK,
            wire_bytes=wire,
            src=src, dst=dst, src_port=sport, dst_port=dport,
            protocol=proto, snap=snap,
        ))
    return capture
