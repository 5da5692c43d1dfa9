"""Hop-level path synthesis and TCP traceroute.

The paper's latency tooling is built on ``tcptraceroute`` [66] — TTL-limited
TCP SYNs that elicit ICMP Time-Exceeded from each router on the path.  The
wide-area core in :mod:`repro.netsim` is a single edge, so this module
synthesizes the hop structure that edge abstracts: IXP/backbone routers
placed along the inflated great-circle path (one every few hundred km, plus
access hops at both ends), each with its cumulative RTT.  A traceroute then
"probes" those hops the way the real tool walks TTLs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.checks import at_least
from repro.geo.coords import GeoPoint
from repro.geo.latency import PathModel, DEFAULT_PATH_MODEL

#: Mean spacing between backbone routers, km of great-circle distance.
BACKBONE_HOP_KM = 400.0

#: Fixed hops at each end: client gateway, access aggregation.
ACCESS_HOPS_PER_SIDE = 2


@dataclass(frozen=True)
class Hop:
    """One router on a synthesized path."""

    index: int
    name: str
    location: GeoPoint
    cumulative_rtt_ms: float


def synthesize_path(src: GeoPoint, dst: GeoPoint,
                    model: Optional[PathModel] = None) -> List[Hop]:
    """The hop list a traceroute between ``src`` and ``dst`` would reveal.

    Hops interpolate the great circle; cumulative RTTs follow the path
    model so the final hop's RTT equals the end-to-end base RTT.
    """
    model = model or DEFAULT_PATH_MODEL
    total_km = src.distance_km(dst)
    n_backbone = max(1, int(round(total_km / BACKBONE_HOP_KM)))
    total_rtt = model.base_rtt_ms(src, dst)
    access_each = model.access_rtt_ms / 2.0
    propagation = total_rtt - model.access_rtt_ms

    hops: List[Hop] = []
    index = 1
    # Source-side access hops: negligible distance, split access delay.
    for i in range(ACCESS_HOPS_PER_SIDE):
        rtt = access_each * (i + 1) / ACCESS_HOPS_PER_SIDE
        hops.append(Hop(index, f"src-access-{i + 1}", src, rtt))
        index += 1
    # Backbone hops along the great circle.
    for i in range(1, n_backbone + 1):
        fraction = i / n_backbone
        lat = src.lat + (dst.lat - src.lat) * fraction
        lon = src.lon + (dst.lon - src.lon) * fraction
        point = GeoPoint(f"backbone-{i}", lat, lon)
        rtt = access_each + propagation * fraction
        hops.append(Hop(index, point.name, point, rtt))
        index += 1
    # Destination-side access hops.
    for i in range(ACCESS_HOPS_PER_SIDE):
        rtt = (
            access_each + propagation
            + access_each * (i + 1) / ACCESS_HOPS_PER_SIDE
        )
        hops.append(Hop(index, f"dst-access-{i + 1}", dst, rtt))
        index += 1
    return hops


@dataclass(frozen=True)
class TracerouteHop:
    """One measured traceroute line: TTL, responder, RTT samples."""

    ttl: int
    name: str
    rtts_ms: List[float]

    @property
    def mean_rtt_ms(self) -> float:
        """Mean of the per-TTL probes."""
        return float(np.mean(self.rtts_ms))


@dataclass
class TcpTraceroute:
    """TTL-walking probe over a synthesized path.

    Args:
        model: RTT/jitter model shared with the rest of the geo layer.
        probes_per_ttl: Probes sent at each TTL (the tool default is 3).
        drop_prob: Probability a hop silently drops probes (the ``* * *``
            lines real traceroutes show), applied per hop deterministically
            from the seed.
    """

    model: PathModel = field(default_factory=PathModel)
    probes_per_ttl: int = 3
    drop_prob: float = 0.1

    def run(self, src: GeoPoint, dst: GeoPoint,
            seed: int = 0) -> List[TracerouteHop]:
        """Walk the path; silent hops yield empty RTT lists."""
        at_least(self.probes_per_ttl, 1, "probes_per_ttl")
        rng = np.random.default_rng(seed)
        result = []
        for hop in synthesize_path(src, dst, self.model):
            is_last = hop.index == len(synthesize_path(src, dst, self.model))
            if not is_last and rng.random() < self.drop_prob:
                result.append(TracerouteHop(hop.index, "*", []))
                continue
            jitter = rng.normal(0.0, self.model.jitter_std_ms,
                                self.probes_per_ttl)
            rtts = np.maximum(hop.cumulative_rtt_ms + jitter, 0.1)
            result.append(TracerouteHop(hop.index, hop.name, list(rtts)))
        return result

    @staticmethod
    def destination_rtt_ms(hops: List[TracerouteHop]) -> float:
        """Mean RTT of the final (destination) hop.

        Raises:
            ValueError: When the destination did not answer.
        """
        if not hops or not hops[-1].rtts_ms:
            raise ValueError("destination hop did not respond")
        return hops[-1].mean_rtt_ms

    @staticmethod
    def format_output(hops: List[TracerouteHop]) -> str:
        """Render like the command-line tool."""
        lines = []
        for hop in hops:
            if not hop.rtts_ms:
                lines.append(f"{hop.ttl:2d}  * * *")
            else:
                samples = "  ".join(f"{r:.1f} ms" for r in hop.rtts_ms)
                lines.append(f"{hop.ttl:2d}  {hop.name:16s} {samples}")
        return "\n".join(lines)
