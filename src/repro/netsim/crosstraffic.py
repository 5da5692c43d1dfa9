"""Background cross-traffic generators.

The paper's testbed APs are quiet (>300 Mbps free), but real deployments
share the access link with other devices.  Cross-traffic sources let
experiments study contention: a bulk TCP-like flow that ramps up and
backs off, and an on/off burst source (the classic web-browsing shape).
Both are open-loop enough to stay cheap, but react to drops the way their
real counterparts would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.checks import positive
from repro.netsim.engine import Simulator
from repro.netsim.node import Host
from repro.netsim.packet import IPPROTO_TCP, IPPROTO_UDP, Packet

#: Wire-size budget per cross-traffic packet.
_SEGMENT_BYTES = 1448


class BulkTransferSource:
    """An AIMD bulk flow (file sync, cloud backup) sharing the uplink.

    Sends at ``rate_mbps`` in 10 ms ticks; every dropped packet halves the
    rate, every clean second adds ``ramp_mbps`` back — a coarse TCP shape
    that responds to queue pressure without simulating real TCP.
    """

    def __init__(self, rate_mbps: float = 50.0, ramp_mbps: float = 5.0,
                 floor_mbps: float = 1.0, seed: int = 0) -> None:
        self.rate_mbps = positive(rate_mbps, "rate_mbps")
        self.initial_mbps = rate_mbps
        self.ramp_mbps = ramp_mbps
        self.floor_mbps = floor_mbps
        self._rng = np.random.default_rng(seed)
        self.packets_sent = 0
        self.packets_dropped = 0
        self._clean_ticks = 0

    def attach(self, sim: Simulator, host: Host, target_address: str,
               target_port: int = 58000,
               until: Optional[float] = None) -> None:
        """Schedule the flow from ``host`` toward the target.

        Congestion feedback comes from two places: an uplink shaper
        rejecting a send outright, and the AP uplink queue's drop counter
        (a coarse stand-in for loss-signal feedback a transport would get
        from missing ACKs).
        """
        ap_uplink = host.network.ap_of(host.address).uplink
        last_ap_drops = ap_uplink.stats.packets_dropped

        def tick() -> None:
            nonlocal last_ap_drops
            bytes_this_tick = self.rate_mbps * 1e6 / 8.0 * 0.010
            n_packets = max(1, int(bytes_this_tick / _SEGMENT_BYTES))
            dropped = False
            for _ in range(n_packets):
                ok = host.send(Packet(
                    src=host.address, dst=target_address,
                    src_port=58001, dst_port=target_port,
                    protocol=IPPROTO_TCP,
                    payload=b"\x00" * (_SEGMENT_BYTES - 40),
                    meta={"kind": "cross-bulk"},
                ))
                self.packets_sent += 1
                if not ok:
                    self.packets_dropped += 1
                    dropped = True
            ap_drops = ap_uplink.stats.packets_dropped
            if ap_drops > last_ap_drops:
                self.packets_dropped += ap_drops - last_ap_drops
                last_ap_drops = ap_drops
                dropped = True
            if dropped:
                self.rate_mbps = max(self.floor_mbps, self.rate_mbps / 2.0)
                self._clean_ticks = 0
            else:
                self._clean_ticks += 1
                if self._clean_ticks >= 100:  # one clean second
                    self.rate_mbps = min(
                        self.initial_mbps, self.rate_mbps + self.ramp_mbps
                    )
                    self._clean_ticks = 0

        sim.schedule_every(0.010, tick, until=until)


class OnOffBurstSource:
    """Web-browsing-shaped traffic: exponential on/off bursts.

    During an on period the source sends at ``burst_mbps``; off periods
    are silent.  Durations are exponential with the given means.
    """

    def __init__(self, burst_mbps: float = 20.0, mean_on_s: float = 0.5,
                 mean_off_s: float = 2.0, seed: int = 0) -> None:
        self.burst_mbps = positive(burst_mbps, "burst_mbps")
        self.mean_on_s = positive(mean_on_s, "mean_on_s")
        self.mean_off_s = positive(mean_off_s, "mean_off_s")
        self._rng = np.random.default_rng(seed)
        self.packets_sent = 0
        self._on = False
        self._phase_left = 0.0

    def attach(self, sim: Simulator, host: Host, target_address: str,
               target_port: int = 58100,
               until: Optional[float] = None) -> None:
        """Schedule the on/off process."""

        def tick() -> None:
            self._phase_left -= 0.010
            if self._phase_left <= 0.0:
                self._on = not self._on
                mean = self.mean_on_s if self._on else self.mean_off_s
                self._phase_left = float(self._rng.exponential(mean))
            if not self._on:
                return
            bytes_this_tick = self.burst_mbps * 1e6 / 8.0 * 0.010
            for _ in range(max(1, int(bytes_this_tick / _SEGMENT_BYTES))):
                host.send(Packet(
                    src=host.address, dst=target_address,
                    src_port=58101, dst_port=target_port,
                    protocol=IPPROTO_UDP,
                    payload=b"\x00" * (_SEGMENT_BYTES - 28),
                    meta={"kind": "cross-burst"},
                ))
                self.packets_sent += 1

        sim.schedule_every(0.010, tick, until=until)
