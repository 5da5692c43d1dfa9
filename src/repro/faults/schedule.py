"""Fault schedules: what breaks, when, for how long.

The paper's interesting behaviour happens under disturbance — FaceTime's
throughput collapse under shaping (Sec. 4.3), server reselection, persona
degradation at scale.  A :class:`FaultSchedule` is the scripted (or
seeded-random) description of such disturbances; the
:class:`~repro.faults.injector.FaultInjector` realizes it on a running
session.

All randomness derives from an explicit seed, so a fault run is exactly
reproducible: the same schedule, seed, and session seed give bit-identical
traces.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.checks import at_least, non_negative, positive

#: Pseudo-target addressing the session's currently selected relay server.
SERVER_TARGET = "@server"


def derive_seed(base_seed: int, *salts: object) -> int:
    """Derive an independent RNG seed from ``base_seed`` and salts.

    The seed-derivation rule of the whole fault subsystem (the
    ``RetryPolicy`` idiom): the salted string
    ``"faults:{base_seed}:{salt}:{salt}..."`` is sha256-hashed and the
    first four digest bytes read little-endian.  ``hash()`` would not do —
    string hashing is salted per process, and gauntlet cells must produce
    bit-identical schedules whether they run serially, under ``--jobs 8``,
    or on a distributed worker.

    Conventions used across the gauntlet:

    - **lanes**: lane 0 of a cohort keeps ``base_seed`` verbatim (so a
      cohort of one is seed-compatible with the scalar path); lane ``i > 0``
      uses ``derive_seed(base_seed, "lane", i)``.
    - **domains**: each domain-event generator draws from
      ``derive_seed(base_seed, "domain", kind)``; per-event lane fan-out
      subsampling uses ``derive_seed(base_seed, "fanout", index)``.
    """
    text = ":".join(["faults", str(base_seed), *(str(s) for s in salts)])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:4], "little")


class FaultKind(enum.Enum):
    """The disturbance classes the injector understands."""

    #: Total connectivity loss at a participant's attachment.
    LINK_BLACKOUT = "link-blackout"
    #: AP rate collapses to ``magnitude`` × the base rate (0 < m < 1).
    BANDWIDTH_COLLAPSE = "bandwidth-collapse"
    #: Extra independent packet loss of probability ``magnitude``.
    LOSS_BURST = "loss-burst"
    #: Extra uniform one-way delay with amplitude ``magnitude`` ms.
    JITTER_BURST = "jitter-burst"
    #: Radio degradation: rate × ``magnitude`` plus mild loss and jitter.
    WIFI_DEGRADATION = "wifi-degradation"
    #: The selected relay server goes dark (blackout at its attachment).
    SERVER_OUTAGE = "server-outage"


#: Magnitude ranges :meth:`FaultSchedule.random` draws from, per kind.
#: Kinds without an entry (blackouts, server outages) take magnitude 0.0
#: and consume no draw.
_MAGNITUDE_RANGES = {
    FaultKind.BANDWIDTH_COLLAPSE: (0.02, 0.3),
    FaultKind.LOSS_BURST: (0.02, 0.25),
    FaultKind.JITTER_BURST: (5.0, 80.0),
    FaultKind.WIFI_DEGRADATION: (0.1, 0.6),
}


def _draw_magnitude(rng: np.random.Generator, kind: "FaultKind") -> float:
    """Exactly one uniform draw for magnitude kinds, zero otherwise."""
    bounds = _MAGNITUDE_RANGES.get(kind)
    if bounds is None:
        return 0.0
    return float(rng.uniform(*bounds))


#: Validation bounds for each kind's magnitude (inclusive).
_MAGNITUDE_BOUNDS = {
    FaultKind.LINK_BLACKOUT: (0.0, 1.0),        # magnitude unused
    FaultKind.BANDWIDTH_COLLAPSE: (1e-6, 1.0),  # rate factor
    FaultKind.LOSS_BURST: (0.0, 1.0),           # drop probability
    FaultKind.JITTER_BURST: (0.0, 10_000.0),    # amplitude in ms
    FaultKind.WIFI_DEGRADATION: (1e-6, 1.0),    # rate factor
    FaultKind.SERVER_OUTAGE: (0.0, 1.0),        # magnitude unused
}


@dataclass(frozen=True)
class FaultEvent:
    """One disturbance: a kind, a target, an interval, a magnitude.

    Attributes:
        kind: What breaks.
        target: A participant ``user_id``, or :data:`SERVER_TARGET` for
            the session's currently selected relay.
        start_s: Onset time in session seconds.
        duration_s: How long the fault persists.
        magnitude: Kind-specific severity (see :class:`FaultKind`).
    """

    kind: FaultKind
    target: str
    start_s: float
    duration_s: float
    magnitude: float = 0.0

    def __post_init__(self) -> None:
        non_negative(self.start_s, "start_s")
        positive(self.duration_s, "duration_s")
        low, high = _MAGNITUDE_BOUNDS[self.kind]
        if not low <= self.magnitude <= high:
            raise ValueError(
                f"{self.kind.value} magnitude {self.magnitude} outside "
                f"[{low}, {high}]"
            )
        if self.kind is FaultKind.SERVER_OUTAGE and self.target != SERVER_TARGET:
            raise ValueError(
                f"server outages target {SERVER_TARGET!r}, got {self.target!r}"
            )

    @property
    def end_s(self) -> float:
        """Instant the fault clears."""
        return self.start_s + self.duration_s

    def active_at(self, time_s: float) -> bool:
        """Whether the fault covers ``time_s`` (half-open interval)."""
        return self.start_s <= time_s < self.end_s


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable, time-ordered collection of fault events."""

    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=lambda e: (e.start_s, e.end_s)))
        object.__setattr__(self, "events", ordered)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    @property
    def horizon_s(self) -> float:
        """Time the last fault clears (0.0 for an empty schedule)."""
        return max((e.end_s for e in self.events), default=0.0)

    def active_at(self, time_s: float) -> List[FaultEvent]:
        """Every fault covering ``time_s``."""
        return [e for e in self.events if e.active_at(time_s)]

    def for_target(self, target: str) -> List[FaultEvent]:
        """Every fault aimed at one target."""
        return [e for e in self.events if e.target == target]

    def targets(self) -> List[str]:
        """Distinct targets, sorted (``@server`` sorts first)."""
        return sorted({e.target for e in self.events})

    @classmethod
    def scripted(cls, events: Iterable[FaultEvent]) -> "FaultSchedule":
        """Build from an explicit event list."""
        return cls(tuple(events))

    @classmethod
    def random(
        cls,
        seed: int,
        duration_s: float,
        targets: Sequence[str],
        events_per_minute: float = 4.0,
        kinds: Optional[Sequence[FaultKind]] = None,
        mean_fault_s: float = 1.5,
        include_server: bool = True,
    ) -> "FaultSchedule":
        """A seeded-random schedule: Poisson onsets, exponential durations.

        Every draw comes from one ``numpy`` generator seeded with ``seed``,
        so the schedule — and therefore the whole fault run — is exactly
        reproducible.  The per-event draw order is part of the contract
        (``tests/test_fault_domains.py`` replays it against a reference):
        inter-arrival gap, kind, duration, target (skipped for server
        outages), then exactly one magnitude draw for kinds with a range
        in ``_MAGNITUDE_RANGES`` and none otherwise.  An earlier version
        eagerly evaluated a dict of all four magnitude draws per event,
        which burned generator state on kinds that were never selected.

        Args:
            seed: Master seed for the schedule.
            duration_s: Session length the faults must fit into.
            targets: Participant user-ids eligible as targets.
            events_per_minute: Mean fault arrival rate.
            kinds: Allowed kinds (default: all).
            mean_fault_s: Mean fault duration.
            include_server: Whether server outages may be drawn.

        Raises:
            ValueError: For an empty target list or non-positive duration.
        """
        positive(duration_s, "duration_s")
        if not targets:
            raise ValueError("need at least one target")
        rng = np.random.default_rng(seed)
        allowed = list(kinds) if kinds is not None else [
            k for k in FaultKind
            if include_server or k is not FaultKind.SERVER_OUTAGE
        ]
        if not include_server:
            allowed = [k for k in allowed if k is not FaultKind.SERVER_OUTAGE]
        events: List[FaultEvent] = []
        time_s = float(rng.exponential(60.0 / events_per_minute))
        while time_s < duration_s:
            kind = allowed[int(rng.integers(len(allowed)))]
            duration = float(
                np.clip(rng.exponential(mean_fault_s), 0.25,
                        max(0.5, duration_s - time_s))
            )
            if kind is FaultKind.SERVER_OUTAGE:
                target = SERVER_TARGET
            else:
                target = targets[int(rng.integers(len(targets)))]
            magnitude = _draw_magnitude(rng, kind)
            events.append(FaultEvent(kind, target, time_s, duration, magnitude))
            time_s += float(rng.exponential(60.0 / events_per_minute))
        return cls(tuple(events))


#: Shortest session the standard disturbance's five faults fit into.
STANDARD_DISTURBANCE_MIN_S = 10.0


def standard_disturbance(duration_s: float,
                         victim: str = "U2") -> FaultSchedule:
    """The canonical scripted disturbance used by the resilience experiment.

    Five faults — one of each recoverable class — placed at fixed fractions
    of the session, so every profile faces the identical gauntlet: a link
    blackout, a server outage (ignored by P2P sessions), a loss burst, a
    bandwidth collapse, and a WiFi degradation.
    """
    at_least(duration_s, STANDARD_DISTURBANCE_MIN_S, "duration_s")
    f = duration_s  # event placement scales with the session length
    return FaultSchedule.scripted([
        FaultEvent(FaultKind.LINK_BLACKOUT, victim, 0.10 * f, 0.06 * f),
        FaultEvent(FaultKind.SERVER_OUTAGE, SERVER_TARGET, 0.28 * f, 0.10 * f),
        FaultEvent(FaultKind.LOSS_BURST, victim, 0.50 * f, 0.08 * f, 0.10),
        FaultEvent(FaultKind.BANDWIDTH_COLLAPSE, victim, 0.68 * f, 0.08 * f,
                   0.004),
        FaultEvent(FaultKind.WIFI_DEGRADATION, victim, 0.86 * f, 0.06 * f,
                   0.30),
    ])
