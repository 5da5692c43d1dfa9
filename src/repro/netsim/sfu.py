"""Selective forwarding unit (SFU) relay servers.

Sec. 4.2 of the paper finds the VCA servers are "primarily used for data
forwarding": each media packet a participant uploads is copied to every
other participant, which is why downlink throughput grows linearly with the
number of users (Fig. 6(c)).  This module implements exactly that relay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.checks import at_least
from repro.geo.coords import GeoPoint
from repro.netsim.node import Host
from repro.netsim.packet import Packet


@dataclass
class SfuStats:
    """Forwarding counters of one relay."""

    packets_received: int = 0
    packets_forwarded: int = 0
    bytes_forwarded: int = 0


class SelectiveForwardingUnit(Host):
    """A relay that fans each participant's media out to all the others."""

    #: Port the SFU listens on and forwards from.
    MEDIA_PORT = 3478

    def __init__(self, address: str, location: GeoPoint, name: str = "sfu") -> None:
        super().__init__(address, location, name=name)
        self.participants: Set[str] = set()
        self.sfu_stats = SfuStats()
        self._participant_ports: Dict[str, int] = {}
        #: ``(address, port)`` of every participant, sorted by address:
        #: the fan-out order, kept at (un)registration, not per packet.
        self._fanout: List[Tuple[str, int]] = []
        self.bind(self.MEDIA_PORT, self._on_media)

    def register(self, address: str, port: int) -> None:
        """Admit a participant; media will be forwarded to ``address:port``."""
        self.participants.add(address)
        self._participant_ports[address] = port
        self._fanout = sorted(self._participant_ports.items())

    def unregister(self, address: str) -> None:
        """Remove a participant from the fan-out set."""
        self.participants.discard(address)
        self._participant_ports.pop(address, None)
        self._fanout = sorted(self._participant_ports.items())

    def _on_media(self, packet: Packet) -> None:
        self.sfu_stats.packets_received += 1
        for address, port in self._fanout:
            if address == packet.src:
                continue
            # Keep the original source port so flows (audio vs. video)
            # remain separable by 5-tuple after the relay, as real SFUs
            # keep streams apart by SSRC/port.
            copy = packet.forward_to(
                dst=address,
                dst_port=port,
                src=self.address,
                src_port=packet.src_port,
            )
            # Preserve the origin so receivers know whose persona this is.
            copy.meta.setdefault("origin", packet.src)
            if self.send(copy):
                self.sfu_stats.packets_forwarded += 1
                self.sfu_stats.bytes_forwarded += copy.wire_bytes

    def fanout(self) -> int:
        """Copies made per received packet at the current occupancy."""
        return max(0, len(self.participants) - 1)


def forwarding_is_linear(num_users: int, per_stream_bps: float) -> float:
    """Expected per-client downlink rate under pure forwarding.

    Each client receives the streams of all other ``num_users - 1``
    participants — the mechanism behind Fig. 6(c)'s linear growth.
    """
    at_least(num_users, 1, "num_users")
    return (num_users - 1) * per_stream_bps
