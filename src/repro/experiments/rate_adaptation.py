"""Sec. 4.3: the spatial persona does not rate-adapt.

A token-bucket (``tc``) limit on U1's uplink sweeps from generous to
starved.  Because the semantic stream has a fixed ~0.67 Mbps operating
point and reconstruction fails on missing frames, persona availability
collapses once the limit crosses the stream's rate — the paper observes
the "poor connection" state below 700 Kbps, with no bitrate downscaling.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

from repro import calibration
from repro.checks import positive
from repro.core.parallel import CellTask, run_tasks
from repro.core.testbed import default_two_user_testbed
from repro.netsim.shaper import TrafficShaper
from repro.vca.profiles import PROFILES

#: The swept uplink limits, generous to starved, across the cutoff region.
LIMITS_KBPS: Tuple[float, ...] = (
    2000.0, 1500.0, 1000.0, 800.0, 700.0, 650.0, 600.0, 500.0, 400.0, 300.0
)


@dataclass(frozen=True)
class RatePoint:
    """Outcome at one uplink limit."""

    limit_kbps: float
    availability: float
    poor_connection: bool
    uplink_drop_rate: float
    offered_mbps: float


@dataclass
class RateAdaptationResult:
    """The full sweep."""

    points: List[RatePoint]

    def cutoff_kbps(self) -> Optional[float]:
        """Lowest limit at which the persona is still available.

        The paper's finding corresponds to a cutoff at ~700 Kbps.
        """
        working = [p.limit_kbps for p in self.points if not p.poor_connection]
        return min(working) if working else None

    def no_rate_adaptation(self, tolerance: float = 0.05) -> bool:
        """The sender never lowers its offered rate under constraint.

        A rate-adaptive encoder (what 2D VCAs do, Sec. 4.3) would reduce
        the *offered* bitrate once the shaper starts dropping; the
        semantic stream keeps pushing its fixed operating point, and the
        persona availability collapses instead.
        """
        offered = [p.offered_mbps for p in self.points]
        spread = max(offered) - min(offered)
        return spread <= tolerance * max(offered)

    def format_table(self) -> str:
        """Printable sweep."""
        lines = [
            "limit_kbps  offered_mbps  availability  poor_connection  drop_rate"
        ]
        for p in self.points:
            lines.append(
                f"{p.limit_kbps:10.0f}  {p.offered_mbps:12.3f}  "
                f"{p.availability:12.3f}  {str(p.poor_connection):15s}  "
                f"{p.uplink_drop_rate:9.3f}"
            )
        return "\n".join(lines)


def measure_at_limit(limit_kbps: float, duration_s: float = 20.0,
                     seed: int = 0) -> RatePoint:
    """Run one shaped spatial-persona session and read U2's receiver."""
    positive(limit_kbps, "limit_kbps")
    testbed = default_two_user_testbed()
    session = testbed.session(PROFILES["FaceTime"], seed=seed)
    shaper = TrafficShaper(rate_bps=limit_kbps * 1000.0, seed=seed)
    session.shape_uplink("U1", shaper)
    result = session.run(duration_s)
    receiver = result.receiver_of("U2")
    u1_address = result.addresses["U1"]
    stats = receiver.stats.get(u1_address)
    availability = stats.availability() if stats else 0.0
    poor = stats.poor_connection() if stats else True
    return RatePoint(
        limit_kbps=limit_kbps,
        availability=availability,
        poor_connection=poor,
        uplink_drop_rate=shaper.drop_rate,
        offered_mbps=shaper.offered_mbps(duration_s),
    )


def _unpack_point(payload: Dict[str, object]) -> RatePoint:
    return RatePoint(**payload)


def sweep_tasks(duration_s: float, seed: int,
                limits_kbps: Tuple[float, ...] = LIMITS_KBPS
                ) -> List[CellTask]:
    """One shaped-session cell per uplink limit."""
    return [
        CellTask(
            name=f"rate/{limit:g}",
            fn=measure_at_limit,
            kwargs={"limit_kbps": limit, "duration_s": duration_s,
                    "seed": seed},
            pack=asdict,
            unpack=_unpack_point,
        )
        for limit in limits_kbps
    ]


def run(
    limits_kbps: Tuple[float, ...] = LIMITS_KBPS,
    duration_s: float = 20.0,
    seed: int = 0,
) -> RateAdaptationResult:
    """Sweep the uplink limit across the cutoff region."""
    return RateAdaptationResult(
        run_tasks(sweep_tasks(duration_s, seed, limits_kbps))
    )
