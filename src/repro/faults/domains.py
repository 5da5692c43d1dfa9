"""Correlated fault domains: population-scale failures, one event each.

PR 1's fault schedules impair one session at a time — realistic for a
netem testbed, wrong for a fleet.  Real incidents are *correlated*: a
cloud region goes dark and every session relayed there fails over at
once; a metro's last mile degrades in a storm and a third of its users
drop to audio-only together; a backbone path browns out and adds tens of
milliseconds to everything crossing it; a flash crowd overloads the
servers of one geography.  This module samples such **domain events**
from seeded generators and maps each one onto every cohort lane / fleet
session it covers, so one event fans out to its whole blast radius.

The catalog (see :data:`SCENARIOS`):

- ``region-outage`` — the servers of one demand region go dark
  (server-side: forces failover / shedding, never touches client APs);
- ``ap-storm`` — a seeded fraction of one region's lanes suffer WiFi
  degradation (client-side rate collapse, magnitude = rate factor);
- ``brownout`` — a backbone path through one region adds one-way delay
  (magnitude = extra ms) to every session relayed there;
- ``flash-crowd`` — demand in one region multiplies (magnitude = load
  factor), squeezing server admission capacity;
- ``mixed`` — the union of all four (per-kind generators draw from
  independent sha256-derived streams, so ``mixed`` contains *exactly*
  the events of the four singles combined);
- ``none`` — the fault-free twin.

Two consumers:

- the **cohort engine**: :func:`lane_schedules` projects a plan onto
  per-lane scalar :class:`~repro.faults.schedule.FaultSchedule` objects
  (region outage → server outage, AP storm → WiFi degradation, brownout
  → jitter burst), armed in one cohort event per domain edge by
  :class:`~repro.faults.cohort.CohortInjector`.
  :func:`scenario_schedules` wraps it as the one scenario-to-schedules
  step of the gauntlet's cohort engine and the scenario compiler;
- the **fleet engine**: :func:`impairment_timeline` and
  :func:`server_down_timeline` expand a plan into per-(tick, lane) /
  per-(tick, server) arrays with a handful of array ops per event — the
  vectorized fan-out the benchmark gates at >= 10x the per-lane loop
  (:func:`impairment_timeline_scalar` is the differential oracle).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.checks import at_least, fraction, non_negative, positive
from repro.faults.schedule import (
    SERVER_TARGET,
    FaultEvent,
    FaultKind,
    FaultSchedule,
    derive_seed,
    standard_disturbance,
)


class DomainKind(enum.Enum):
    """The correlated-failure classes the gauntlet understands."""

    REGION_OUTAGE = "region-outage"
    AP_STORM = "ap-storm"
    BACKBONE_BROWNOUT = "brownout"
    FLASH_CROWD = "flash-crowd"


#: Per-kind sampling parameters: Poisson arrival rate, mean duration,
#: lane-coverage fraction range, and the kind-specific magnitude range.
_KIND_PARAMS: Dict[DomainKind, Dict[str, Tuple[float, float]]] = {
    DomainKind.REGION_OUTAGE: dict(
        rate_per_min=(1.2, 0.0), mean_duration_s=(8.0, 0.0),
        coverage=(1.0, 1.0), magnitude=(0.0, 0.0)),
    DomainKind.AP_STORM: dict(
        rate_per_min=(2.0, 0.0), mean_duration_s=(5.0, 0.0),
        coverage=(0.2, 0.7), magnitude=(0.1, 0.5)),
    DomainKind.BACKBONE_BROWNOUT: dict(
        rate_per_min=(1.5, 0.0), mean_duration_s=(6.0, 0.0),
        coverage=(1.0, 1.0), magnitude=(15.0, 60.0)),
    DomainKind.FLASH_CROWD: dict(
        rate_per_min=(1.2, 0.0), mean_duration_s=(8.0, 0.0),
        coverage=(1.0, 1.0), magnitude=(2.0, 6.0)),
}

#: Scenario catalog: which domain kinds a gauntlet scenario samples.
SCENARIOS: Dict[str, Tuple[DomainKind, ...]] = {
    "region-outage": (DomainKind.REGION_OUTAGE,),
    "ap-storm": (DomainKind.AP_STORM,),
    "brownout": (DomainKind.BACKBONE_BROWNOUT,),
    "flash-crowd": (DomainKind.FLASH_CROWD,),
    "mixed": tuple(DomainKind),
    "none": (),
}

#: The resilience study's scripted disturbance, beside the catalog.
STANDARD_SCENARIO = "standard"


def scenario_names() -> Tuple[str, ...]:
    """Every scenario the catalog knows, catalog order."""
    return tuple(SCENARIOS)


@dataclass(frozen=True)
class DomainEvent:
    """One correlated failure: a kind, a region, an interval, a severity.

    Attributes:
        kind: What breaks.
        region_index: Index into the demand model's region tuple.
        start_s / duration_s: The outage window in campaign seconds.
        magnitude: Kind-specific severity — rate factor for AP storms,
            extra one-way ms for brownouts, load multiplier for flash
            crowds, unused for region outages.
        coverage: Fraction of the region's lanes the event hits (region
            outages / brownouts / flash crowds always cover the region).
    """

    kind: DomainKind
    region_index: int
    start_s: float
    duration_s: float
    magnitude: float
    coverage: float

    def __post_init__(self) -> None:
        non_negative(self.start_s, "start_s")
        positive(self.duration_s, "duration_s")
        fraction(self.coverage, "coverage", "(]")
        at_least(self.region_index, 0, "region_index")

    @property
    def end_s(self) -> float:
        """Instant the event clears."""
        return self.start_s + self.duration_s


def sample_domain_events(
    scenario: str,
    seed: int,
    duration_s: float,
    n_regions: int,
) -> Tuple[DomainEvent, ...]:
    """Seeded domain events for one scenario over ``duration_s`` seconds.

    Each kind draws from its own generator seeded with
    ``derive_seed(seed, "domain", kind.value)`` — the documented
    sha256-salted rule — so a kind's event stream is identical whether it
    runs alone or inside ``mixed``, and identical across serial, pooled,
    and distributed execution.  Per-event draw order: inter-arrival gap,
    region, duration, coverage, magnitude.
    """
    if scenario not in SCENARIOS:
        raise KeyError(
            f"unknown scenario {scenario!r} (known: {scenario_names()})")
    positive(duration_s, "duration_s")
    at_least(n_regions, 1, "n_regions")
    events: List[DomainEvent] = []
    for kind in SCENARIOS[scenario]:
        params = _KIND_PARAMS[kind]
        rate = params["rate_per_min"][0]
        mean_s = params["mean_duration_s"][0]
        rng = np.random.default_rng(derive_seed(seed, "domain", kind.value))
        time_s = float(rng.exponential(60.0 / rate))
        # Events last >= 1 s, so none may start in the final second:
        # every sampled event fits entirely inside the horizon.
        while time_s < duration_s - 1.0:
            region = int(rng.integers(n_regions))
            length = float(np.clip(rng.exponential(mean_s), 1.0,
                                   duration_s - time_s))
            lo, hi = params["coverage"]
            coverage = float(rng.uniform(lo, hi)) if lo < hi else lo
            lo, hi = params["magnitude"]
            magnitude = float(rng.uniform(lo, hi)) if lo < hi else lo
            events.append(DomainEvent(kind, region, time_s, length,
                                      magnitude, coverage))
            time_s += float(rng.exponential(60.0 / rate))
    events.sort(key=lambda e: (e.start_s, e.kind.value, e.region_index))
    return tuple(events)


@dataclass(frozen=True)
class DomainPlan:
    """A sampled scenario mapped onto a concrete cohort/fleet.

    ``lane_events[i]`` holds the sorted, duplicate-free lane indices
    event ``events[i]`` covers.
    """

    scenario: str
    seed: int
    duration_s: float
    n_lanes: int
    events: Tuple[DomainEvent, ...]
    lane_events: Tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.events) != len(self.lane_events):
            raise ValueError("events and lane_events must align")

    def __len__(self) -> int:
        return len(self.events)


def fan_out(event: DomainEvent, index: int, seed: int,
            lane_regions: np.ndarray) -> np.ndarray:
    """The sorted lane indices one domain event covers — array ops only.

    Region membership is one vectorized comparison; partial coverage
    (AP storms) subsamples members without replacement from a generator
    seeded by ``derive_seed(seed, "fanout", index)``, so no lane is ever
    hit twice by one event and the pick is independent of lane count
    elsewhere.  A region outage covers *every* lane homed in the region:
    those sessions lose their relay (the cohort engine realizes this as
    a ``@server`` outage per covered lane; the fleet engine blacks out
    the region's servers via :func:`server_down_timeline` instead and
    ignores the lane list for this kind).
    """
    members = np.flatnonzero(
        np.asarray(lane_regions) == event.region_index).astype(np.int64)
    if len(members) == 0 or event.coverage >= 1.0:
        return members
    count = max(1, int(np.ceil(event.coverage * len(members))))
    rng = np.random.default_rng(derive_seed(seed, "fanout", index))
    picks = rng.choice(len(members), size=count, replace=False)
    return members[np.sort(picks)]


def build_plan(scenario: str, seed: int, duration_s: float,
               lane_regions: np.ndarray,
               n_regions: Optional[int] = None) -> DomainPlan:
    """Sample a scenario and fan every event out onto the given lanes.

    ``lane_regions`` maps each lane (session) to its demand-region index;
    ``n_regions`` defaults to the observed maximum + 1.
    """
    lane_regions = np.asarray(lane_regions, dtype=np.int64)
    if n_regions is None:
        n_regions = int(lane_regions.max()) + 1 if len(lane_regions) else 1
    events = sample_domain_events(scenario, seed, duration_s, n_regions)
    lanes = tuple(fan_out(event, index, seed, lane_regions)
                  for index, event in enumerate(events))
    return DomainPlan(scenario=scenario, seed=seed, duration_s=duration_s,
                      n_lanes=len(lane_regions), events=events,
                      lane_events=lanes)


# ----------------------------------------------------------------------
# Projection onto the cohort engine (scalar fault schedules per lane)
# ----------------------------------------------------------------------


def _to_fault_event(event: DomainEvent, victim: str) -> Optional[FaultEvent]:
    """One lane's scalar realization of a domain event (None = no analog)."""
    if event.kind is DomainKind.REGION_OUTAGE:
        return FaultEvent(FaultKind.SERVER_OUTAGE, SERVER_TARGET,
                          event.start_s, event.duration_s)
    if event.kind is DomainKind.AP_STORM:
        return FaultEvent(FaultKind.WIFI_DEGRADATION, victim,
                          event.start_s, event.duration_s, event.magnitude)
    if event.kind is DomainKind.BACKBONE_BROWNOUT:
        return FaultEvent(FaultKind.JITTER_BURST, victim,
                          event.start_s, event.duration_s, event.magnitude)
    return None  # flash crowds act on server load, not on a lane's links


def lane_schedules(plan: DomainPlan, victim: str) -> List[FaultSchedule]:
    """Per-lane scalar fault schedules realizing a domain plan.

    Every covered lane receives the *same* frozen event values, which is
    what lets :meth:`~repro.faults.cohort.CohortInjector.seal` group them
    into one cohort apply per domain edge.
    """
    per_lane: List[List[FaultEvent]] = [[] for _ in range(plan.n_lanes)]
    for event, lanes in zip(plan.events, plan.lane_events):
        fault = _to_fault_event(event, victim)
        if fault is None:
            continue
        for lane in lanes.tolist():
            per_lane[lane].append(fault)
    return [FaultSchedule.scripted(events) for events in per_lane]


def scenario_schedules(scenario: str, seed: int, duration_s: float,
                       lane_regions: Sequence[int], n_regions: int,
                       victim: str) -> List[FaultSchedule]:
    """Each lane's fault schedule under one named scenario.

    :data:`STANDARD_SCENARIO` gives every lane the scripted
    :func:`~repro.faults.schedule.standard_disturbance`; a catalog
    scenario samples one plan over the lanes' regions (out of
    ``n_regions``) and realizes it with :func:`lane_schedules` (``none``
    yields empty schedules).
    """
    if scenario == STANDARD_SCENARIO:
        return [standard_disturbance(duration_s, victim)
                for _ in lane_regions]
    plan = build_plan(scenario, seed, duration_s, np.asarray(lane_regions),
                      n_regions=n_regions)
    return lane_schedules(plan, victim)


# ----------------------------------------------------------------------
# Projection onto the fleet engine (per-tick impairment arrays)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DomainImpairments:
    """Per-(tick, lane) client-side impairment surfaces of one plan.

    Attributes:
        delay_ms: Extra one-way delay (brownouts sum).
        wifi_rate: Access rate factor in (0, 1] (AP storms take the min).
        load: Demand multiplier >= 1 (flash crowds multiply).
    """

    delay_ms: np.ndarray
    wifi_rate: np.ndarray
    load: np.ndarray


def impairment_timeline(plan: DomainPlan,
                        ticks: np.ndarray) -> DomainImpairments:
    """Expand a plan into dense impairment arrays — one fan-out per event.

    Each event costs O(1) array ops (an active-tick mask outer-indexed
    with its covered lanes) regardless of how many lanes it hits; this is
    the vectorized fan-out ``benchmarks/bench_gauntlet.py`` gates at
    >= 10x :func:`impairment_timeline_scalar`.
    """
    ticks = np.asarray(ticks, dtype=np.float64)
    shape = (len(ticks), plan.n_lanes)
    delay_ms = np.zeros(shape)
    wifi_rate = np.ones(shape)
    load = np.ones(shape)
    for event, lanes in zip(plan.events, plan.lane_events):
        if len(lanes) == 0:
            continue
        rows = np.flatnonzero((ticks >= event.start_s)
                              & (ticks < event.end_s))
        if len(rows) == 0:
            continue
        window = np.ix_(rows, lanes)
        if event.kind is DomainKind.BACKBONE_BROWNOUT:
            delay_ms[window] += event.magnitude
        elif event.kind is DomainKind.AP_STORM:
            wifi_rate[window] = np.minimum(wifi_rate[window],
                                           event.magnitude)
        elif event.kind is DomainKind.FLASH_CROWD:
            load[window] *= event.magnitude
    return DomainImpairments(delay_ms=delay_ms, wifi_rate=wifi_rate,
                             load=load)


def impairment_timeline_scalar(plan: DomainPlan,
                               ticks: np.ndarray) -> DomainImpairments:
    """The per-lane Python-loop reference — the differential oracle.

    Same outputs as :func:`impairment_timeline`, computed the way a
    naive per-lane injector would: for every tick, for every lane, scan
    the events.  Exists for the equivalence test and the benchmark's
    speedup denominator; never use it for real fleets.
    """
    ticks = np.asarray(ticks, dtype=np.float64)
    shape = (len(ticks), plan.n_lanes)
    delay_ms = np.zeros(shape)
    wifi_rate = np.ones(shape)
    load = np.ones(shape)
    covered = [set(lanes.tolist()) for lanes in plan.lane_events]
    for t_index, t in enumerate(ticks.tolist()):
        for lane in range(plan.n_lanes):
            for e_index, event in enumerate(plan.events):
                if lane not in covered[e_index]:
                    continue
                if not event.start_s <= t < event.end_s:
                    continue
                if event.kind is DomainKind.BACKBONE_BROWNOUT:
                    delay_ms[t_index, lane] += event.magnitude
                elif event.kind is DomainKind.AP_STORM:
                    wifi_rate[t_index, lane] = min(
                        wifi_rate[t_index, lane], event.magnitude)
                elif event.kind is DomainKind.FLASH_CROWD:
                    load[t_index, lane] *= event.magnitude
    return DomainImpairments(delay_ms=delay_ms, wifi_rate=wifi_rate,
                             load=load)


def server_down_timeline(events: Sequence[DomainEvent],
                         server_regions: np.ndarray,
                         ticks: np.ndarray) -> np.ndarray:
    """``(ticks, servers)`` outage mask from the plan's region outages.

    A region outage blacks out every server homed in its region for its
    whole window — the server-side fan-out of the correlated domain.
    """
    ticks = np.asarray(ticks, dtype=np.float64)
    server_regions = np.asarray(server_regions, dtype=np.int64)
    down = np.zeros((len(ticks), len(server_regions)), dtype=bool)
    for event in events:
        if event.kind is not DomainKind.REGION_OUTAGE:
            continue
        servers = np.flatnonzero(server_regions == event.region_index)
        if len(servers) == 0:
            continue
        rows = np.flatnonzero((ticks >= event.start_s)
                              & (ticks < event.end_s))
        if len(rows) == 0:
            continue
        down[np.ix_(rows, servers)] = True
    return down


__all__ = [
    "SCENARIOS",
    "STANDARD_SCENARIO",
    "DomainEvent",
    "DomainImpairments",
    "DomainKind",
    "DomainPlan",
    "build_plan",
    "fan_out",
    "impairment_timeline",
    "impairment_timeline_scalar",
    "lane_schedules",
    "sample_domain_events",
    "scenario_names",
    "scenario_schedules",
    "server_down_timeline",
]
