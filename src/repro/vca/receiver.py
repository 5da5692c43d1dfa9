"""Receiver-side semantic processing and availability tracking.

The receiving headset decodes each sender's semantic frames and attempts
reconstruction.  Because semantic communication carries no redundancy and
FaceTime does no rate adaptation (Sec. 4.3), sustained frame shortfall
makes the persona unavailable — the UI's "poor connection" state.  The
receiver tracks exactly that: per-sender delivered-frame rate against the
90 FPS expectation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, Optional

from repro import calibration
from repro.checks import positive
from repro.keypoints.codec import EncodedKeypointFrame, SemanticCodec
from repro.keypoints.reconstruct import frame_is_reconstructible
from repro.netsim.packet import Packet
from repro.transport.fec import FecDecoder, FecPacket
from repro.transport.quic import QuicConnection
from repro.vca.media import quic_connection_for

#: A persona is declared unavailable when fewer than this fraction of the
#: expected frames arrived and reconstructed over the evaluation window.
#: Semantic streams carry no redundancy or retransmission, so near-perfect
#: delivery is required; this threshold puts the collapse right where the
#: paper observes it (< 700 Kbps uplink -> "poor connection").
AVAILABILITY_THRESHOLD = 0.97

#: Decoding reads no codec state, so one codec serves every receiver.
_CODEC = SemanticCodec()


@lru_cache(maxsize=4096)
def _reconstructs(plaintext: bytes) -> bool:
    """Whether a semantic plaintext decodes to a reconstructible frame.

    A pure function of the bytes, cached per process: a sweep replays the
    same call, so most plaintexts arrive again, at every receiver.
    """
    try:
        decoded = _CODEC.decode(EncodedKeypointFrame(plaintext))
    except ValueError:
        return False
    return frame_is_reconstructible(decoded)


@dataclass
class PersonaAvailability:
    """Delivery bookkeeping for one remote sender's persona."""

    sender: str
    frames_received: int = 0
    frames_reconstructed: int = 0
    frames_failed: int = 0
    first_arrival_s: Optional[float] = None
    last_arrival_s: Optional[float] = None

    def delivered_fps(self) -> float:
        """Reconstructed frames per second over the observed span."""
        if (
            self.first_arrival_s is None
            or self.last_arrival_s is None
            or self.last_arrival_s <= self.first_arrival_s
        ):
            return 0.0
        span = self.last_arrival_s - self.first_arrival_s
        return self.frames_reconstructed / span

    def availability(self, expected_fps: float = float(calibration.TARGET_FPS)
                     ) -> float:
        """Fraction of the expected frame rate actually reconstructed."""
        positive(expected_fps, "expected_fps")
        return min(1.0, self.delivered_fps() / expected_fps)

    def poor_connection(self, expected_fps: float = float(calibration.TARGET_FPS)
                        ) -> bool:
        """Whether FaceTime would show "poor connection" for this persona."""
        return self.availability(expected_fps) < AVAILABILITY_THRESHOLD


class SemanticReceiver:
    """Decodes semantic streams of all remote senders at one participant.

    Bind :meth:`handle` to the participant's media port.  Non-semantic
    packets (audio, QUIC handshake) are counted but not decoded.
    """

    def __init__(self, session_secret: bytes,
                 clock: Callable[[], float]) -> None:
        self._secret = session_secret
        self._clock = clock
        self._connections: Dict[str, QuicConnection] = {}
        self._fec: Dict[str, FecDecoder] = {}
        self.stats: Dict[str, PersonaAvailability] = {}
        self.other_packets = 0

    def _connection(self, sender: str) -> QuicConnection:
        if sender not in self._connections:
            self._connections[sender] = quic_connection_for(sender, self._secret)
        return self._connections[sender]

    def _stats(self, sender: str) -> PersonaAvailability:
        if sender not in self.stats:
            self.stats[sender] = PersonaAvailability(sender)
        return self.stats[sender]

    def handle(self, packet: Packet) -> None:
        """Process one arriving media packet.

        Plain ``semantic`` datagrams decode directly.  ``semantic-fec``
        datagrams are unframed first and fed through the sender's FEC
        decoder; every payload it releases (source or recovered) is a QUIC
        datagram that then takes the same decode path — QUIC's stateless
        per-packet protection is what makes recovered packets decodable.
        """
        kind = packet.meta.get("kind")
        sender = packet.meta.get("origin", packet.src)
        if kind == "semantic":
            self._ingest(sender, packet.payload)
        elif kind == "semantic-fec":
            try:
                fec_packet = FecPacket.parse(packet.payload)
            except ValueError:
                self._stats(sender).frames_failed += 1
                return
            decoder = self._fec.setdefault(sender, FecDecoder())
            for datagram in decoder.receive(fec_packet):
                self._ingest(sender, datagram)
        else:
            self.other_packets += 1

    def _ingest(self, sender: str, datagram: bytes) -> None:
        """Decode one QUIC-protected semantic datagram from ``sender``."""
        record = self._stats(sender)
        now = self._clock()
        record.frames_received += 1
        if record.first_arrival_s is None:
            record.first_arrival_s = now
        record.last_arrival_s = now
        try:
            plaintext = self._connection(sender).unprotect(datagram)
        except ValueError:
            record.frames_failed += 1
            return
        if _reconstructs(plaintext):
            record.frames_reconstructed += 1
        else:
            record.frames_failed += 1

    def fec_recovered(self, sender: str) -> int:
        """Datagrams FEC recovered for one sender (0 when FEC is off)."""
        decoder = self._fec.get(sender)
        return decoder.recovered if decoder else 0

    def senders(self) -> List[str]:
        """Addresses of all senders seen so far."""
        return sorted(self.stats)

    def any_poor_connection(self) -> bool:
        """True when any remote persona dropped below the threshold."""
        return any(s.poor_connection() for s in self.stats.values())
