"""WiFi access points.

The testbed connects each user to their own AP with > 300 Mbps of measured
throughput (Sec. 3.2).  An AP here is a pair of directional links (uplink
toward the Internet, downlink toward the station) plus the attachment point
where the paper runs Wireshark.
"""

from __future__ import annotations

from typing import Optional

from repro import calibration
from repro.checks import fraction, positive
from repro.netsim.capture import PacketCapture
from repro.netsim.link import Link


class WiFiAccessPoint:
    """One AP of the testbed: two directional links and a capture point."""

    def __init__(
        self,
        name: str = "ap",
        throughput_mbps: float = calibration.WIFI_AP_MBPS,
        queue_bytes: int = 512 * 1024,
    ) -> None:
        positive(throughput_mbps, "throughput_mbps")
        rate_bps = throughput_mbps * 1e6
        self.name = name
        self.base_rate_bps = rate_bps
        self.uplink = Link(rate_bps, queue_bytes=queue_bytes, name=f"{name}-up")
        self.downlink = Link(rate_bps, queue_bytes=queue_bytes, name=f"{name}-down")
        self._capture: Optional[PacketCapture] = None
        self._degradation = 1.0

    @property
    def degradation(self) -> float:
        """Current rate factor relative to the clean radio (1.0 = clean)."""
        return self._degradation

    def degrade(self, factor: float) -> None:
        """Scale both directional links to ``factor`` of the base rate.

        Models radio degradation (interference, distance, rain fade for a
        fixed-wireless backhaul).  Calling again replaces — not stacks —
        the previous factor; :meth:`restore` sets it back to 1.0.

        Raises:
            ValueError: If ``factor`` is not in (0, 1].
        """
        fraction(factor, "factor", "(]")
        self._degradation = factor
        self.uplink.set_rate(self.base_rate_bps * factor)
        self.downlink.set_rate(self.base_rate_bps * factor)

    def restore(self) -> None:
        """Return both links to the clean base rate."""
        self.degrade(1.0)

    def start_capture(self, host_address: str) -> PacketCapture:
        """Begin a Wireshark-style capture for ``host_address`` at this AP."""
        self._capture = PacketCapture(host_address)
        return self._capture

    @property
    def capture(self) -> Optional[PacketCapture]:
        """The active capture, if any."""
        return self._capture
