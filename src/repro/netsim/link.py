"""Point-of-attachment link model: rate, queue, drop-tail.

A :class:`Link` models one transmission resource (an access uplink, a WiFi
radio, a server NIC).  Serialization occupies the link for
``wire_bytes * 8 / rate`` seconds; packets arriving while the link is busy
queue behind it, and the queue is drop-tail bounded in bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from repro.checks import positive
from repro.netsim.engine import Simulator
from repro.netsim.packet import Packet


@dataclass
class LinkStats:
    """Counters a link accumulates over its lifetime."""

    packets_sent: int = 0
    packets_dropped: int = 0
    bytes_sent: int = 0

    @property
    def drop_rate(self) -> float:
        """Fraction of offered packets that were dropped."""
        offered = self.packets_sent + self.packets_dropped
        return self.packets_dropped / offered if offered else 0.0


class Link:
    """A transmission resource with finite rate and a drop-tail queue."""

    def __init__(
        self,
        rate_bps: float,
        queue_bytes: int = 256 * 1024,
        name: str = "link",
    ) -> None:
        self.rate_bps = positive(rate_bps, "rate_bps")
        self.queue_bytes = positive(queue_bytes, "queue_bytes")
        self.name = name
        self.stats = LinkStats()
        self.up = True
        self._busy_until = 0.0
        self._queued_bytes = 0

    def set_rate(self, rate_bps: float) -> None:
        """Change the link rate mid-run (fault injection, modulation).

        Packets already accepted keep their original departure times; only
        packets offered after the change see the new rate.

        Raises:
            ValueError: For a non-positive or NaN rate.
        """
        self.rate_bps = positive(rate_bps, "rate_bps")

    def serialization_delay(self, packet: Packet) -> float:
        """Seconds needed to clock the packet onto the wire."""
        return packet.wire_bytes * 8.0 / self.rate_bps

    def backlog_bytes(self, now: float) -> int:
        """Bytes currently waiting (approximation from busy horizon)."""
        if self._busy_until <= now:
            return 0
        return int((self._busy_until - now) * self.rate_bps / 8.0)

    def admit(self, now: float, wire: int) -> Optional[float]:
        """Queue ``wire`` bytes offered at ``now``; return their departure.

        The departure is the instant the last bit leaves the link.  Every
        packet the link carries is admitted here, by :meth:`transmit` or
        by a caller that schedules the departure itself.

        Returns:
            None when the link is down or the drop-tail queue rejected the
            bytes (counted as a drop).
        """
        stats = self.stats
        if not self.up:
            stats.packets_dropped += 1
            return None
        # backlog_bytes and serialization_delay inlined, with the exact
        # same float expressions, so departures stay bit-identical to
        # repro.netsim.batch.drop_tail_departures.
        rate_bps = self.rate_bps
        busy = self._busy_until
        backlog = int((busy - now) * rate_bps / 8.0) if busy > now else 0
        if backlog + wire > self.queue_bytes:
            stats.packets_dropped += 1
            return None
        done = (busy if busy > now else now) + wire * 8.0 / rate_bps
        self._busy_until = done
        stats.packets_sent += 1
        stats.bytes_sent += wire
        return done

    def transmit(
        self,
        sim: Simulator,
        packet: Packet,
        on_transmitted: Callable[[Packet], None],
        extra_delay: float = 0.0,
    ) -> bool:
        """Enqueue ``packet``; invoke ``on_transmitted`` when it leaves.

        Args:
            sim: The event scheduler (provides the clock).
            packet: The datagram to send.
            on_transmitted: Called at the instant the last bit leaves the
                link (propagation is added by the caller).
            extra_delay: Additional fixed latency (e.g. a shaper's netem
                delay) applied after serialization.

        Returns:
            False when the drop-tail queue rejected the packet.
        """
        done = self.admit(sim.now, packet.wire_bytes)
        if done is None:
            return False
        sim.schedule_at(done + extra_delay, partial(on_transmitted, packet))
        return True

    def utilization(self, now: float) -> float:
        """Fraction of time the link has spent busy so far (approximate)."""
        if now <= 0:
            return 0.0
        busy = self.stats.bytes_sent * 8.0 / self.rate_bps
        return min(1.0, busy / now)
