"""The declarative scenario specification and its JSON round trip.

A :class:`ScenarioSpec` is the complete, validated description of one
telepresence workload: who joins (device + home city), when they arrive
and leave, which provider carries the call, which topology the session
takes (P2P relay-free, SFU-relayed, or the vectorized multi-SFU fan-out
fast path), what shares the access links (cross-traffic storms), and
which fault-gauntlet scenario rides along.

Specs are frozen dataclasses with eager validation, and round-trip
losslessly through plain dicts and canonical JSON
(``sort_keys + compact separators``), so a generated batch serialized to
JSONL is byte-identical across runs and processes — the determinism
contract the scenario CI job ``cmp``'s.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro import calibration
from repro.checks import at_least, non_negative, positive
from repro.devices.models import IPad, IPhone, MacBook, VisionPro
from repro.faults.domains import SCENARIOS
from repro.faults.schedule import STANDARD_DISTURBANCE_MIN_S
from repro.vca.profiles import PROFILES, PersonaKind

#: Device-kind slug -> factory, the spec's device vocabulary.
DEVICES = {
    "vision-pro": VisionPro,
    "macbook": MacBook,
    "ipad": IPad,
    "iphone": IPhone,
}

#: City slugs resolvable by :func:`repro.geo.regions.city` — the
#: paper's eight US vantage points.
CITIES: Tuple[str, ...] = (
    "san jose", "seattle", "dallas", "chicago", "kansas city",
    "washington", "new york", "miami",
)

#: Session topologies the compiler understands.
TOPOLOGIES: Tuple[str, ...] = ("p2p", "sfu", "multi-sfu")

#: Cross-traffic flavors (:mod:`repro.netsim.crosstraffic`).
CROSS_TRAFFIC_KINDS: Tuple[str, ...] = ("bulk", "burst")

#: Attachable fault scenarios: the correlated-domain catalog plus the
#: scalar resilience study's scripted five-fault ``standard`` gauntlet.
FAULT_SCENARIOS: Tuple[str, ...] = tuple(SCENARIOS) + ("standard",)


def _require_keys(payload: Dict[str, object], allowed: Tuple[str, ...],
                  label: str) -> None:
    """Strict dict schema: unknown keys are an error, not a shrug."""
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise ValueError(f"{label} has unknown keys: {unknown} "
                         f"(allowed: {sorted(allowed)})")


@dataclass(frozen=True)
class ParticipantSpec:
    """One user: a device, a home city, and an optional churn window.

    ``arrives_s`` / ``departs_s`` model mobility churn: outside the
    ``[arrives_s, departs_s)`` window the participant's attachment is
    blacked out (the compiler realizes this as
    :class:`~repro.faults.schedule.FaultKind.LINK_BLACKOUT` events), so
    a late joiner contributes no media before arriving and a leaver
    goes dark after departing.
    """

    device: str
    city: str
    arrives_s: float = 0.0
    departs_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.device not in DEVICES:
            raise ValueError(f"unknown device {self.device!r} "
                             f"(known: {sorted(DEVICES)})")
        if self.city not in CITIES:
            raise ValueError(f"unknown city {self.city!r} "
                             f"(known: {list(CITIES)})")
        non_negative(self.arrives_s, "arrives_s")
        if self.departs_s is not None and not self.departs_s > self.arrives_s:
            raise ValueError("departs_s must be after arrives_s")

    def to_dict(self) -> Dict[str, object]:
        return {"device": self.device, "city": self.city,
                "arrives_s": self.arrives_s, "departs_s": self.departs_s}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ParticipantSpec":
        _require_keys(payload, ("device", "city", "arrives_s", "departs_s"),
                      "participant")
        return cls(
            device=str(payload["device"]),
            city=str(payload["city"]),
            arrives_s=float(payload.get("arrives_s", 0.0)),
            departs_s=(None if payload.get("departs_s") is None
                       else float(payload["departs_s"])),
        )


@dataclass(frozen=True)
class CrossTrafficSpec:
    """One background flow sharing a participant's access link.

    ``source`` is the participant index hosting the flow; ``seed_salt``
    feeds the flow's own RNG stream so two storms in one scenario stay
    independent.
    """

    kind: str
    source: int
    rate_mbps: float
    start_s: float = 0.0
    stop_s: Optional[float] = None
    seed_salt: int = 0

    def __post_init__(self) -> None:
        if self.kind not in CROSS_TRAFFIC_KINDS:
            raise ValueError(f"unknown cross-traffic kind {self.kind!r} "
                             f"(known: {list(CROSS_TRAFFIC_KINDS)})")
        at_least(self.source, 0, "source")
        positive(self.rate_mbps, "rate_mbps")
        non_negative(self.start_s, "start_s")
        if self.stop_s is not None and not self.stop_s > self.start_s:
            raise ValueError("stop_s must be after start_s")
        at_least(self.seed_salt, 0, "seed_salt")

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "source": self.source,
                "rate_mbps": self.rate_mbps, "start_s": self.start_s,
                "stop_s": self.stop_s, "seed_salt": self.seed_salt}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CrossTrafficSpec":
        _require_keys(payload, ("kind", "source", "rate_mbps", "start_s",
                                "stop_s", "seed_salt"), "cross_traffic")
        return cls(
            kind=str(payload["kind"]),
            source=int(payload["source"]),
            rate_mbps=float(payload["rate_mbps"]),
            start_s=float(payload.get("start_s", 0.0)),
            stop_s=(None if payload.get("stop_s") is None
                    else float(payload["stop_s"])),
            seed_salt=int(payload.get("seed_salt", 0)),
        )


@dataclass(frozen=True)
class FaultSpec:
    """The fault-gauntlet attachment of one scenario.

    ``scenario`` names either a correlated-domain catalog entry
    (:data:`repro.faults.domains.SCENARIOS`) sampled for the session's
    home ``region_index`` out of ``n_regions``, or ``"standard"`` — the
    scalar resilience study's scripted five-fault disturbance.
    """

    scenario: str = "none"
    region_index: int = 0
    n_regions: int = 3

    def __post_init__(self) -> None:
        if self.scenario not in FAULT_SCENARIOS:
            raise ValueError(f"unknown fault scenario {self.scenario!r} "
                             f"(known: {list(FAULT_SCENARIOS)})")
        at_least(self.n_regions, 1, "n_regions")
        if not 0 <= self.region_index < self.n_regions:
            raise ValueError("region_index must be in [0, n_regions)")

    def to_dict(self) -> Dict[str, object]:
        return {"scenario": self.scenario,
                "region_index": self.region_index,
                "n_regions": self.n_regions}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultSpec":
        _require_keys(payload, ("scenario", "region_index", "n_regions"),
                      "faults")
        return cls(
            scenario=str(payload.get("scenario", "none")),
            region_index=int(payload.get("region_index", 0)),
            n_regions=int(payload.get("n_regions", 3)),
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete, validated telepresence workload.

    Topology is not a free choice: for ``p2p``/``sfu`` it must agree
    with what the chosen profile actually does for the device mix
    (:meth:`~repro.vca.profiles.VcaProfile.uses_p2p`), so a spec can
    never describe a session the engine would build differently.
    ``multi-sfu`` selects the vectorized
    :func:`~repro.vca.cohort.sfu_cohort_downlink` fast path instead of
    full sessions: it takes a ``fanout`` participant count, is
    FaceTime-only, and supports neither churn, cross-traffic, nor fault
    attachments (the fast path has no per-lane injector).
    """

    name: str
    profile: str
    topology: str
    duration_s: float
    seed: int
    participants: Tuple[ParticipantSpec, ...] = ()
    cross_traffic: Tuple[CrossTrafficSpec, ...] = ()
    faults: FaultSpec = field(default_factory=FaultSpec)
    fanout: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError("a scenario needs a non-empty name")
        if self.profile not in PROFILES:
            raise ValueError(f"unknown profile {self.profile!r} "
                             f"(known: {sorted(PROFILES)})")
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology {self.topology!r} "
                             f"(known: {list(TOPOLOGIES)})")
        positive(self.duration_s, "duration_s")
        at_least(self.seed, 0, "seed")
        object.__setattr__(self, "participants", tuple(self.participants))
        object.__setattr__(self, "cross_traffic", tuple(self.cross_traffic))
        if self.topology == "multi-sfu":
            self._validate_multi_sfu()
        else:
            self._validate_session()

    def _validate_multi_sfu(self) -> None:
        if self.fanout is None or not self.fanout >= 2:
            raise ValueError("multi-sfu needs fanout >= 2")
        if self.profile != "FaceTime":
            raise ValueError("the multi-sfu fast path models FaceTime only")
        if self.participants:
            raise ValueError("multi-sfu enumerates users by fanout, not by "
                             "participant list")
        if self.cross_traffic:
            raise ValueError("the multi-sfu fast path carries no "
                             "cross-traffic")
        if self.faults.scenario != "none":
            raise ValueError("the multi-sfu fast path has no fault injector")

    def _validate_session(self) -> None:
        if self.fanout is not None:
            raise ValueError("fanout is only meaningful for multi-sfu")
        if len(self.participants) < 2:
            raise ValueError("a session scenario needs >= 2 participants")
        profile = PROFILES[self.profile]
        devices = [DEVICES[p.device]() for p in self.participants]
        p2p = profile.uses_p2p(devices)
        if self.topology == "p2p" and not p2p:
            raise ValueError(
                f"{self.profile} does not run this device mix "
                f"peer-to-peer; declare topology 'sfu'")
        if self.topology == "sfu" and p2p:
            raise ValueError(
                f"{self.profile} runs this two-party device mix "
                f"peer-to-peer; declare topology 'p2p'")
        if (profile.persona_kind(devices) is PersonaKind.SPATIAL
                and len(devices) > calibration.MAX_SPATIAL_PERSONAS):
            raise ValueError(
                f"FaceTime caps spatial sessions at "
                f"{calibration.MAX_SPATIAL_PERSONAS} users")
        first = self.participants[0]
        if first.arrives_s != 0.0 or first.departs_s is not None:
            raise ValueError("the initiator (participant 0) anchors the "
                             "call and cannot churn")
        for index, p in enumerate(self.participants):
            if p.arrives_s >= self.duration_s:
                raise ValueError(f"participant {index} arrives after the "
                                 f"session ends")
            if p.departs_s is not None and p.departs_s > self.duration_s:
                raise ValueError(f"participant {index} departs after the "
                                 f"session ends")
        for index, flow in enumerate(self.cross_traffic):
            if flow.source >= len(self.participants):
                raise ValueError(f"cross-traffic flow {index} names "
                                 f"participant {flow.source}, but the "
                                 f"scenario has {len(self.participants)}")
            if flow.start_s >= self.duration_s:
                raise ValueError(f"cross-traffic flow {index} starts after "
                                 f"the session ends")
            if flow.stop_s is not None and flow.stop_s > self.duration_s:
                raise ValueError(f"cross-traffic flow {index} stops after "
                                 f"the session ends")
        if (self.faults.scenario == "standard"
                and self.duration_s < STANDARD_DISTURBANCE_MIN_S):
            raise ValueError(f"the standard disturbance needs >= "
                             f"{STANDARD_DISTURBANCE_MIN_S:g} s of session")

    # ------------------------------------------------------------------
    # Round trip
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (JSON-safe, lossless)."""
        return {
            "name": self.name,
            "profile": self.profile,
            "topology": self.topology,
            "duration_s": self.duration_s,
            "seed": self.seed,
            "participants": [p.to_dict() for p in self.participants],
            "cross_traffic": [f.to_dict() for f in self.cross_traffic],
            "faults": self.faults.to_dict(),
            "fanout": self.fanout,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ScenarioSpec":
        """Strict inverse of :meth:`to_dict` (unknown keys raise)."""
        _require_keys(payload, ("name", "profile", "topology", "duration_s",
                                "seed", "participants", "cross_traffic",
                                "faults", "fanout"), "scenario")
        return cls(
            name=str(payload["name"]),
            profile=str(payload["profile"]),
            topology=str(payload["topology"]),
            duration_s=float(payload["duration_s"]),
            seed=int(payload["seed"]),
            participants=tuple(
                ParticipantSpec.from_dict(p)
                for p in payload.get("participants", [])
            ),
            cross_traffic=tuple(
                CrossTrafficSpec.from_dict(f)
                for f in payload.get("cross_traffic", [])
            ),
            faults=FaultSpec.from_dict(
                dict(payload.get("faults") or {})),
            fanout=(None if payload.get("fanout") is None
                    else int(payload["fanout"])),
        )

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, compact separators.

        Byte-identical across runs and processes for equal specs — the
        representation the determinism CI job compares.
        """
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    @property
    def n_users(self) -> int:
        """Participant count regardless of topology."""
        return self.fanout if self.topology == "multi-sfu" else len(
            self.participants)


__all__ = [
    "CITIES",
    "CROSS_TRAFFIC_KINDS",
    "DEVICES",
    "FAULT_SCENARIOS",
    "TOPOLOGIES",
    "CrossTrafficSpec",
    "FaultSpec",
    "ParticipantSpec",
    "ScenarioSpec",
]
