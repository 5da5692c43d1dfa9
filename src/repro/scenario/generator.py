"""Seeded generative workloads: distributions over :class:`ScenarioSpec`.

A :class:`ScenarioGenerator` turns ``(seed, distribution)`` into an
unbounded indexed family of scenarios.  Determinism follows the fault
scheduler's salt-chain rule (:func:`repro.faults.schedule.derive_seed`):
every sampled field of scenario ``index`` draws from its own
``derive_seed(seed, "scenario", index, field)`` stream, so

- the same ``(seed, distribution, index)`` always yields the same spec,
  byte-identical through :meth:`ScenarioSpec.to_json`, on any process or
  host; and
- adding a field to one scenario, or generating indices out of order,
  never perturbs any other scenario's draws.

The :data:`DISTRIBUTIONS` library names the shapes the experiments use:
paper-faithful 2–5-persona calls, large-cohort SFU fan-outs, churn-heavy
arrivals/departures, and storm-heavy cross-traffic mixes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.checks import at_least, fraction
from repro.faults.schedule import derive_seed
from repro.scenario.spec import (
    CITIES,
    CROSS_TRAFFIC_KINDS,
    DEVICES,
    CrossTrafficSpec,
    FaultSpec,
    ParticipantSpec,
    ScenarioSpec,
)
from repro.vca.profiles import PROFILES


@dataclass(frozen=True)
class ScenarioDistribution:
    """A named shape for generated scenarios.

    ``fault_scenarios`` weights by repetition: ``("none", "none",
    "brownout")`` attaches a brownout to roughly one scenario in three.
    A ``fanout_range`` switches the distribution to the multi-SFU fast
    path (participants are then counted, not enumerated).
    """

    name: str
    profiles: Tuple[str, ...]
    participants_range: Tuple[int, int]
    devices: Tuple[str, ...]
    spatial_bias: float
    churn_probability: float
    storm_probability: float
    max_storm_flows: int
    fault_scenarios: Tuple[str, ...]
    duration_range: Tuple[float, float]
    fanout_range: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a distribution needs a name")
        for profile in self.profiles:
            if profile not in PROFILES:
                raise ValueError(f"unknown profile {profile!r}")
        for device in self.devices:
            if device not in DEVICES:
                raise ValueError(f"unknown device {device!r}")
        lo, hi = self.participants_range
        if not 2 <= lo <= hi:
            raise ValueError("participants_range must satisfy 2 <= lo <= hi")
        for prob_name in ("spatial_bias", "churn_probability",
                          "storm_probability"):
            fraction(getattr(self, prob_name), prob_name)
        at_least(self.max_storm_flows, 0, "max_storm_flows")
        if not self.fault_scenarios:
            raise ValueError("fault_scenarios cannot be empty")
        d_lo, d_hi = self.duration_range
        if not 0 < d_lo <= d_hi:
            raise ValueError("duration_range must satisfy 0 < lo <= hi")
        if self.fanout_range is not None:
            f_lo, f_hi = self.fanout_range
            if not 2 <= f_lo <= f_hi:
                raise ValueError("fanout_range must satisfy 2 <= lo <= hi")


#: The named distribution library.
DISTRIBUTIONS: Dict[str, ScenarioDistribution] = {
    # The paper's measurement campaign: small calls, every provider,
    # heavy Vision Pro representation, occasional access-link storms and
    # the scripted standard disturbance.
    "paper-calls": ScenarioDistribution(
        name="paper-calls",
        profiles=("FaceTime", "Zoom", "Webex", "Teams"),
        participants_range=(2, 5),
        devices=("vision-pro", "macbook", "ipad", "iphone"),
        spatial_bias=0.5,
        churn_probability=0.0,
        storm_probability=0.15,
        max_storm_flows=1,
        fault_scenarios=("none", "none", "standard"),
        duration_range=(12.0, 20.0),
    ),
    # Large-cohort SFU fan-outs on the vectorized fast path.
    "large-sfu": ScenarioDistribution(
        name="large-sfu",
        profiles=("FaceTime",),
        participants_range=(2, 2),   # unused: fanout drives the count
        devices=("vision-pro",),
        spatial_bias=1.0,
        churn_probability=0.0,
        storm_probability=0.0,
        max_storm_flows=0,
        fault_scenarios=("none",),
        duration_range=(6.0, 10.0),
        fanout_range=(8, 48),
    ),
    # Mobility churn: most non-initiators arrive late or leave early.
    "churn-heavy": ScenarioDistribution(
        name="churn-heavy",
        profiles=("FaceTime", "Zoom", "Webex", "Teams"),
        participants_range=(3, 5),
        devices=("vision-pro", "macbook", "iphone"),
        spatial_bias=0.3,
        churn_probability=0.85,
        storm_probability=0.0,
        max_storm_flows=0,
        fault_scenarios=("none", "brownout"),
        duration_range=(15.0, 25.0),
    ),
    # Every scenario fights cross-traffic, often alongside a fault.
    "storm-heavy": ScenarioDistribution(
        name="storm-heavy",
        profiles=("FaceTime", "Zoom", "Webex", "Teams"),
        participants_range=(2, 4),
        devices=("vision-pro", "macbook", "ipad", "iphone"),
        spatial_bias=0.4,
        churn_probability=0.0,
        storm_probability=1.0,
        max_storm_flows=3,
        fault_scenarios=("none", "ap-storm", "brownout"),
        duration_range=(12.0, 18.0),
    ),
}


class ScenarioGenerator:
    """Deterministic spec factory over one distribution.

    ``generate(index)`` is a pure function of ``(seed, distribution,
    index)``; ``batch(count)`` is just indices ``0..count-1``.
    """

    def __init__(self, seed: int,
                 distribution: ScenarioDistribution) -> None:
        self.seed = at_least(seed, 0, "seed")
        self.distribution = distribution

    def _rng(self, index: int, fieldname: str) -> np.random.Generator:
        """One independent stream per (scenario, field)."""
        return np.random.default_rng(
            derive_seed(self.seed, "scenario", index, fieldname))

    def generate(self, index: int) -> ScenarioSpec:
        """The scenario at ``index`` (index >= 0)."""
        at_least(index, 0, "index")
        dist = self.distribution
        name = f"{dist.name}-{index:05d}"
        session_seed = derive_seed(self.seed, "scenario", index, "session")
        duration_s = self._draw_duration(index)
        if dist.fanout_range is not None:
            fanout = int(self._rng(index, "fanout").integers(
                dist.fanout_range[0], dist.fanout_range[1] + 1))
            return ScenarioSpec(
                name=name, profile=dist.profiles[0], topology="multi-sfu",
                duration_s=duration_s, seed=session_seed, fanout=fanout,
            )
        profile = self._draw_profile(index)
        participants = self._draw_participants(index, profile, duration_s)
        cross_traffic = self._draw_storm(index, len(participants),
                                         duration_s)
        faults = self._draw_faults(index, duration_s)
        devices = [DEVICES[p.device]() for p in participants]
        topology = ("p2p" if PROFILES[profile].uses_p2p(devices)
                    else "sfu")
        return ScenarioSpec(
            name=name, profile=profile, topology=topology,
            duration_s=duration_s, seed=session_seed,
            participants=participants, cross_traffic=cross_traffic,
            faults=faults,
        )

    def batch(self, count: int, start: int = 0) -> List[ScenarioSpec]:
        """Scenarios ``start..start+count-1`` in order."""
        at_least(count, 0, "count")
        return [self.generate(start + i) for i in range(count)]

    # ------------------------------------------------------------------
    # Per-field draws (each on its own RNG stream)
    # ------------------------------------------------------------------

    def _draw_duration(self, index: int) -> float:
        lo, hi = self.distribution.duration_range
        # Half-second grid keeps the JSON float representation short and
        # stable across platforms.
        steps = int(round((hi - lo) / 0.5))
        draw = int(self._rng(index, "duration").integers(0, steps + 1))
        return lo + 0.5 * draw

    def _draw_profile(self, index: int) -> str:
        profiles = self.distribution.profiles
        return profiles[int(self._rng(index, "profile").integers(
            0, len(profiles)))]

    def _draw_participants(self, index: int, profile: str,
                           duration_s: float
                           ) -> Tuple[ParticipantSpec, ...]:
        dist = self.distribution
        rng = self._rng(index, "members")
        lo, hi = dist.participants_range
        n = int(rng.integers(lo, hi + 1))
        spatial = (profile == "FaceTime"
                   and bool(rng.random() < dist.spatial_bias)
                   and "vision-pro" in dist.devices)
        members: List[ParticipantSpec] = []
        for i in range(n):
            if i == 0 or spatial:
                # The paper measures from a Vision Pro; the initiator
                # always wears one, and spatial calls are all headsets.
                device = "vision-pro"
            else:
                device = dist.devices[int(rng.integers(0,
                                                       len(dist.devices)))]
            city = CITIES[int(rng.integers(0, len(CITIES)))]
            members.append(ParticipantSpec(device=device, city=city))
        return tuple(self._apply_churn(index, members, duration_s))

    def _apply_churn(self, index: int, members: List[ParticipantSpec],
                     duration_s: float) -> List[ParticipantSpec]:
        """Rewrite non-initiators with arrival/departure windows."""
        probability = self.distribution.churn_probability
        if probability <= 0.0:
            return members
        rng = self._rng(index, "churn")
        churned = [members[0]]
        for member in members[1:]:
            if rng.random() >= probability:
                churned.append(member)
                continue
            late = bool(rng.random() < 0.5)
            if late:
                # Join within the first 40% of the call, leave at end.
                arrives = round(float(rng.uniform(0.05, 0.4))
                                * duration_s, 3)
                churned.append(ParticipantSpec(
                    device=member.device, city=member.city,
                    arrives_s=arrives))
            else:
                # Present at start, leave in the last 40%.
                departs = round(float(rng.uniform(0.6, 0.95))
                                * duration_s, 3)
                churned.append(ParticipantSpec(
                    device=member.device, city=member.city,
                    departs_s=departs))
        return churned

    def _draw_storm(self, index: int, n_participants: int,
                    duration_s: float) -> Tuple[CrossTrafficSpec, ...]:
        dist = self.distribution
        if dist.storm_probability <= 0.0 or dist.max_storm_flows == 0:
            return ()
        rng = self._rng(index, "storm")
        if rng.random() >= dist.storm_probability:
            return ()
        n_flows = int(rng.integers(1, dist.max_storm_flows + 1))
        flows: List[CrossTrafficSpec] = []
        for salt in range(n_flows):
            kind = CROSS_TRAFFIC_KINDS[int(rng.integers(
                0, len(CROSS_TRAFFIC_KINDS)))]
            source = int(rng.integers(0, n_participants))
            rate = round(float(rng.uniform(20.0, 120.0)), 1)
            start = round(float(rng.uniform(0.0, 0.4)) * duration_s, 3)
            whole_call = bool(rng.random() < 0.5)
            stop = (None if whole_call else
                    round(float(rng.uniform(0.6, 1.0)) * duration_s, 3))
            flows.append(CrossTrafficSpec(
                kind=kind, source=source, rate_mbps=rate,
                start_s=start, stop_s=stop, seed_salt=salt))
        return tuple(flows)

    def _draw_faults(self, index: int, duration_s: float) -> FaultSpec:
        choices = self.distribution.fault_scenarios
        rng = self._rng(index, "faults")
        scenario = choices[int(rng.integers(0, len(choices)))]
        if scenario == "none":
            return FaultSpec()
        n_regions = 3
        region_index = int(rng.integers(0, n_regions))
        return FaultSpec(scenario=scenario, region_index=region_index,
                         n_regions=n_regions)


def to_jsonl(specs: Iterable[ScenarioSpec]) -> str:
    """One canonical-JSON spec per line; the batch artifact the
    determinism CI job byte-compares across runs."""
    return "".join(spec.to_json() + "\n" for spec in specs)


__all__ = [
    "DISTRIBUTIONS",
    "ScenarioDistribution",
    "ScenarioGenerator",
    "to_jsonl",
]
