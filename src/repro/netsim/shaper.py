"""Linux ``tc``-style traffic impairments.

The paper uses ``tc`` twice (Sec. 4.3): to inject 0-1000 ms of extra network
delay for the display-latency experiment, and to constrain uplink bandwidth
for the rate-adaptation experiment.  :class:`TrafficShaper` models both, plus
random loss, and can be installed on a host's uplink or downlink in
:class:`repro.netsim.network.Network`.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

import numpy as np

from repro.checks import fraction, non_negative, positive
from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.netsim.packet import Packet


class TrafficShaper:
    """netem/tbf-style shaper: fixed delay, rate limit, random loss.

    Args:
        rate_bps: Token-bucket rate limit; None leaves rate unconstrained
            (a rate of 0 raises, like :class:`Link`).
        delay_ms: Extra one-way delay added to every packet.
        loss: Independent per-packet drop probability in [0, 1).
        queue_bytes: Buffer in front of the rate limiter; packets beyond it
            are dropped (this is what starves the semantic stream below the
            700 Kbps cutoff).
        seed: Seed for the loss process.
    """

    def __init__(
        self,
        rate_bps: Optional[float] = None,
        delay_ms: float = 0.0,
        loss: float = 0.0,
        queue_bytes: int = 64 * 1024,
        seed: int = 0,
    ) -> None:
        self.delay_ms = non_negative(delay_ms, "delay_ms")
        self.loss = fraction(loss, "loss", "[)")
        self._limiter = (
            Link(rate_bps, queue_bytes=queue_bytes, name="shaper")
            if rate_bps is not None else None
        )
        self._rng = np.random.default_rng(seed)
        self.packets_dropped = 0
        self.packets_passed = 0
        self.bytes_dropped = 0
        self.bytes_passed = 0

    @property
    def rate_bps(self) -> Optional[float]:
        """Configured rate limit, or None when unconstrained."""
        return self._limiter.rate_bps if self._limiter else None

    def process(
        self,
        sim: Simulator,
        packet: Packet,
        deliver: Callable[[Packet], None],
    ) -> bool:
        """Push ``packet`` through the shaper.

        ``deliver`` fires once the packet has cleared the rate limiter and
        the extra delay.  Returns False when the packet was dropped (either
        by the loss process or by the limiter's queue).
        """
        if self.loss > 0.0 and self._rng.random() < self.loss:
            self.packets_dropped += 1
            self.bytes_dropped += packet.wire_bytes
            return False
        extra = self.delay_ms / 1000.0
        if self._limiter is None:
            self.packets_passed += 1
            self.bytes_passed += packet.wire_bytes
            sim.schedule(extra, partial(deliver, packet))
            return True
        accepted = self._limiter.transmit(sim, packet, deliver, extra_delay=extra)
        if accepted:
            self.packets_passed += 1
            self.bytes_passed += packet.wire_bytes
        else:
            self.packets_dropped += 1
            self.bytes_dropped += packet.wire_bytes
        return accepted

    @property
    def drop_rate(self) -> float:
        """Fraction of offered packets dropped so far."""
        offered = self.packets_passed + self.packets_dropped
        return self.packets_dropped / offered if offered else 0.0

    def offered_mbps(self, duration_s: float) -> float:
        """Rate the application *offered* (pre-drop) over ``duration_s``.

        A source with rate adaptation would lower this under a tight
        limit; the spatial persona stream does not (Sec. 4.3).
        """
        positive(duration_s, "duration_s")
        return (self.bytes_passed + self.bytes_dropped) * 8.0 / duration_s / 1e6
