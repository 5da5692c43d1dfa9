"""Session feasibility planner: will a call fit a given access link?

A downstream-facing utility built from the paper's measured rates: given a
provider, a device mix, a participant count, and per-user up/down
capacity, predict the bandwidth each user needs and whether the session is
feasible — including the spatial persona's hard floor (no rate
adaptation: Sec. 4.3) and the SFU's linear downlink growth (Fig. 6(c)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro import calibration
from repro.checks import at_least, fraction, positive
from repro.devices.models import Device
from repro.vca.profiles import PersonaKind, VcaProfile


@dataclass(frozen=True)
class BandwidthPlan:
    """Predicted per-user bandwidth needs for one session."""

    vca: str
    n_users: int
    persona_kind: PersonaKind
    uplink_mbps: float
    downlink_mbps: float
    uplink_floor_mbps: float  # below this the session fails outright

    def fits(self, uplink_capacity_mbps: float,
             downlink_capacity_mbps: float,
             headroom: float = 0.85) -> bool:
        """Whether the plan fits the given capacities with headroom."""
        fraction(headroom, "headroom", "(]")
        return (
            self.uplink_mbps <= uplink_capacity_mbps * headroom
            and self.downlink_mbps <= downlink_capacity_mbps * headroom
        )


def plan_session(profile: VcaProfile, devices: Sequence[Device]
                 ) -> BandwidthPlan:
    """Predict bandwidth needs for a session of ``devices``.

    Raises:
        ValueError: For fewer than two devices, or a FaceTime spatial
            session beyond the five-persona cap.
    """
    n = len(devices)
    at_least(n, 2, "n")
    persona_kind = profile.persona_kind(devices)
    if (persona_kind is PersonaKind.SPATIAL
            and n > calibration.MAX_SPATIAL_PERSONAS):
        raise ValueError(
            f"FaceTime caps spatial sessions at "
            f"{calibration.MAX_SPATIAL_PERSONAS} users"
        )
    if persona_kind is PersonaKind.SPATIAL:
        per_stream = calibration.SPATIAL_PERSONA_MBPS
        # No rate adaptation: the stream needs its full operating point.
        floor = calibration.RATE_ADAPTATION_CUTOFF_KBPS / 1000.0
    else:
        per_stream = profile.video_bitrate_mbps
        # 2D encoders adapt down to roughly a quarter of their target.
        floor = per_stream / 4.0
    uplink = per_stream
    # Every participant receives all other streams (SFU forwarding); a
    # two-party P2P call is the same arithmetic with n - 1 = 1.
    downlink = per_stream * (n - 1)
    return BandwidthPlan(
        vca=profile.name,
        n_users=n,
        persona_kind=persona_kind,
        uplink_mbps=uplink,
        downlink_mbps=downlink,
        uplink_floor_mbps=floor,
    )


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Planner output for one capacity scenario."""

    plan: BandwidthPlan
    feasible: bool
    limiting_direction: Optional[str]  # "uplink" / "downlink" / None

    def explanation(self) -> str:
        """Human-readable verdict."""
        if self.feasible:
            return (
                f"{self.plan.vca} with {self.plan.n_users} users fits: "
                f"needs {self.plan.uplink_mbps:.2f} up / "
                f"{self.plan.downlink_mbps:.2f} down Mbps"
            )
        return (
            f"{self.plan.vca} with {self.plan.n_users} users does NOT fit: "
            f"{self.limiting_direction} needs exceed capacity"
        )


def check_feasibility(profile: VcaProfile, devices: Sequence[Device],
                      uplink_capacity_mbps: float,
                      downlink_capacity_mbps: float,
                      headroom: float = 0.85) -> FeasibilityVerdict:
    """Plan and check one session against an access link.

    Each direction is checked through :meth:`BandwidthPlan.fits` with the
    opposite capacity unconstrained, so ``headroom`` obeys the same
    ``(0, 1]`` contract in both entry points.  When both directions fail,
    ``limiting_direction`` reports ``"uplink"`` — the uplink is the
    binding constraint for the spatial persona (no rate adaptation), so
    it wins ties.

    Raises:
        ValueError: For non-positive capacities or ``headroom`` outside
            ``(0, 1]``.
    """
    positive(uplink_capacity_mbps, "uplink_capacity_mbps")
    positive(downlink_capacity_mbps, "downlink_capacity_mbps")
    plan = plan_session(profile, devices)
    unconstrained = float("inf")
    up_ok = plan.fits(uplink_capacity_mbps, unconstrained, headroom)
    down_ok = plan.fits(unconstrained, downlink_capacity_mbps, headroom)
    limiting = None
    if not up_ok:
        limiting = "uplink"
    elif not down_ok:
        limiting = "downlink"
    return FeasibilityVerdict(plan, up_ok and down_ok, limiting)


def max_users_for_capacity(profile: VcaProfile, device_factory,
                           uplink_capacity_mbps: float,
                           downlink_capacity_mbps: float,
                           headroom: float = 0.85,
                           hard_cap: int = 50) -> int:
    """Largest session the capacities support (0 if even two users fail).

    Raises:
        ValueError: For ``headroom`` outside ``(0, 1]`` — validated
            eagerly so the spatial-cap ``ValueError`` handler below
            cannot swallow a bad argument as "zero users fit".
    """
    fraction(headroom, "headroom", "(]")
    best = 0
    for n in range(2, hard_cap + 1):
        devices: List[Device] = [device_factory() for _ in range(n)]
        try:
            verdict = check_feasibility(
                profile, devices, uplink_capacity_mbps,
                downlink_capacity_mbps, headroom,
            )
        except ValueError:
            break  # spatial cap reached
        if verdict.feasible:
            best = n
        else:
            break
    return best
