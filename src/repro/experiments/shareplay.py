"""SharePlay measurement: shared content next to spatial personas.

The paper defers SharePlay use cases to future work (Sec. 5).  This
experiment runs them: a spatial FaceTime session where the host also
shares a movie, a whiteboard, or a game view, measuring (a) how the
shared stream dominates the session's bandwidth, and (b) whether the
persona survives when the host's uplink gets tight — the interaction
the fixed-rate semantic stream makes dangerous.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro import calibration
from repro.core.testbed import multi_user_testbed
from repro.netsim.capture import Direction
from repro.netsim.shaper import TrafficShaper
from repro.vca.profiles import PROFILES
from repro.vca.shareplay import SharedContentProfile, SharedContentSource


@dataclass(frozen=True)
class SharePlayOutcome:
    """Measured effect of one shared-content kind."""

    content: str
    host_uplink_mbps: float
    viewer_downlink_mbps: float
    persona_availability: float
    shaped_persona_availability: float

    @property
    def persona_survives_unconstrained(self) -> bool:
        """On a fast AP the persona must be unaffected."""
        return self.persona_availability > 0.97


def measure_content(
    profile: SharedContentProfile,
    n_users: int = 3,
    duration_s: float = 10.0,
    constrained_uplink_mbps: Optional[float] = None,
    seed: int = 0,
) -> SharePlayOutcome:
    """Run a spatial session with U1 sharing ``profile`` content.

    ``constrained_uplink_mbps`` reruns the session with the host's uplink
    shaped (a hotel-WiFi scenario) to measure the persona's fate when the
    shared stream competes with it.
    """
    def run(shape_mbps: Optional[float]) -> "tuple[float, float, float]":
        testbed = multi_user_testbed(n_users)
        session = testbed.session(PROFILES["FaceTime"], seed=seed,
                                  captures=("U1", "U2"))
        if shape_mbps is not None:
            session.shape_uplink(
                "U1", TrafficShaper(rate_bps=shape_mbps * 1e6, seed=seed)
            )
        source = SharedContentSource(profile, seed=seed)
        sfu_address, sfu_port = session._media_target(0)
        source.attach(session.sim, session.host_of("U1"),
                      sfu_address, sfu_port)
        result = session.run(duration_s)
        host_up = result.capture_of("U1").total_bytes(
            Direction.UPLINK
        ) * 8 / duration_s / 1e6
        viewer_down = result.capture_of("U2").total_bytes(
            Direction.DOWNLINK
        ) * 8 / duration_s / 1e6
        receiver = result.receiver_of("U2")
        stats = receiver.stats.get(result.addresses["U1"])
        availability = stats.availability() if stats else 0.0
        return host_up, viewer_down, availability

    host_up, viewer_down, availability = run(None)
    shaped_availability = availability
    if constrained_uplink_mbps is not None:
        _, _, shaped_availability = run(constrained_uplink_mbps)
    return SharePlayOutcome(
        content=profile.kind.value,
        host_uplink_mbps=host_up,
        viewer_downlink_mbps=viewer_down,
        persona_availability=availability,
        shaped_persona_availability=shaped_availability,
    )


def run(duration_s: float = 10.0, seed: int = 0,
        constrained_uplink_mbps: float = 2.0) -> Dict[str, SharePlayOutcome]:
    """Measure all three content kinds (plus the constrained what-if)."""
    outcomes = {}
    for profile in (SharedContentProfile.movie(),
                    SharedContentProfile.whiteboard(),
                    SharedContentProfile.game()):
        outcomes[profile.kind.value] = measure_content(
            profile, duration_s=duration_s,
            constrained_uplink_mbps=constrained_uplink_mbps, seed=seed,
        )
    return outcomes


def format_table(outcomes: Dict[str, SharePlayOutcome]) -> str:
    """Printable study."""
    lines = [
        "content     host_up  viewer_down  persona_avail  "
        "persona_avail@2Mbps"
    ]
    for name, o in outcomes.items():
        lines.append(
            f"{name:10s}  {o.host_uplink_mbps:6.2f}  "
            f"{o.viewer_downlink_mbps:11.2f}  {o.persona_availability:13.3f}  "
            f"{o.shaped_persona_availability:19.3f}"
        )
    return "\n".join(lines)
