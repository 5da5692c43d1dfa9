"""Compile a :class:`ScenarioSpec` into cohort execution, score with QoE.

:func:`run_scenario_cell` is the module-level cell function the campaign
runner dispatches (it must be importable by worker processes and take
JSON-canonicalizable kwargs, hence the plain-dict spec argument).  One
call realizes one scenario end to end:

- session topologies (``p2p`` / ``sfu``) build a real
  :class:`~repro.vca.session.TelepresenceSession` on a
  :class:`~repro.vca.cohort.CohortRunner` lane, with churn windows
  realized as link blackouts, fault attachments turned into a schedule
  by :func:`~repro.faults.domains.scenario_schedules` (armed, like every
  lane's, when the cohort runs), and cross-traffic storms attached to
  the declared participants' uplinks;
- ``multi-sfu`` dispatches to the vectorized
  :func:`~repro.vca.cohort.sfu_cohort_downlink` fast path.

Either way the record carries the multi-dimensional
:class:`~repro.vca.qoe.QoeVector` (whose aggregate is bit-identical to
the legacy scalar :func:`~repro.vca.qoe.score`) from the initiator's
vantage — the paper's measurement seat.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.core.testbed import Testbed
from repro.faults.domains import scenario_schedules
from repro.faults.ladder import LEVEL_QUALITY
from repro.faults.schedule import (
    FaultEvent,
    FaultKind,
    FaultSchedule,
    derive_seed,
)
from repro.geo.regions import city
from repro.netsim.crosstraffic import BulkTransferSource, OnOffBurstSource
from repro.netsim.node import Host
from repro.scenario.spec import DEVICES, ScenarioSpec
from repro.vca.cohort import (
    CohortRunner,
    sfu_cohort_downlink,
    sfu_observer_one_way_ms,
)
from repro.vca.profiles import PROFILES
from repro.vca.qoe import QoeFactors, QoeVector
from repro.vca.session import Participant, SessionResult

#: Sink ports matching the cross-traffic sources' defaults.
_SINK_PORTS = {"bulk": 58000, "burst": 58100}


def _user_id(index: int) -> str:
    return f"U{index + 1}"


def _churn_events(spec: ScenarioSpec) -> List[FaultEvent]:
    """Arrival/departure windows as link blackouts at the attachment.

    A participant arriving at ``t`` is dark over ``[0, t)``; one
    departing at ``t`` is dark over ``[t, duration)`` — the closest the
    static session topology comes to membership churn, and exactly what
    an AP-side observer of a late join or early leave records.
    """
    events: List[FaultEvent] = []
    for index, member in enumerate(spec.participants):
        target = _user_id(index)
        if member.arrives_s > 0:
            events.append(FaultEvent(FaultKind.LINK_BLACKOUT, target,
                                     0.0, member.arrives_s))
        if (member.departs_s is not None
                and member.departs_s < spec.duration_s):
            events.append(FaultEvent(
                FaultKind.LINK_BLACKOUT, target, member.departs_s,
                spec.duration_s - member.departs_s))
    return events


def _scenario_schedule(spec: ScenarioSpec) -> Optional[FaultSchedule]:
    """The merged churn + fault-attachment schedule (None when empty)."""
    events = _churn_events(spec)
    faults = spec.faults
    events.extend(scenario_schedules(
        faults.scenario, spec.seed, spec.duration_s, [faults.region_index],
        faults.n_regions, _user_id(len(spec.participants) - 1))[0])
    return FaultSchedule.scripted(events) if events else None


def _attach_storm(spec: ScenarioSpec, session) -> None:
    """Wire the declared cross-traffic flows onto the session network.

    Each flow gets its own sink host (bound on the source kind's default
    port) and an RNG stream salted by the flow's ``seed_salt``, and is
    scheduled to start/stop inside the session window.
    """
    for index, flow in enumerate(spec.cross_traffic):
        sink = Host(f"10.9.{index}.2", city("dallas"),
                    name=f"storm-sink-{index}")
        session.network.attach(sink)
        port = _SINK_PORTS[flow.kind]
        sink.bind(port, lambda packet: None)
        seed = derive_seed(spec.seed, "storm", flow.seed_salt)
        if flow.kind == "bulk":
            source = BulkTransferSource(rate_mbps=flow.rate_mbps, seed=seed)
        else:
            source = OnOffBurstSource(burst_mbps=flow.rate_mbps, seed=seed)
        host = session.host_of(_user_id(flow.source))

        def start(source=source, host=host, address=sink.address,
                  port=port, until=flow.stop_s) -> None:
            source.attach(session.sim, host, address, port, until=until)

        session.sim.schedule_at(flow.start_s, start)


def _triangle_fraction(result: SessionResult, sender: str) -> float:
    """Time-weighted rung quality of the sender's degradation ladder."""
    if result.resilience is None:
        return 1.0
    ladder = result.resilience.ladders.get(sender)
    if ladder is None:
        return 1.0
    occupancy = ladder.occupancy(result.duration_s)
    total = sum(occupancy.values())
    if total <= 0:
        return 1.0
    quality = sum(LEVEL_QUALITY[level] * seconds
                  for level, seconds in occupancy.items())
    return min(1.0, quality / total)


def _one_way_ms(session, result: SessionResult,
                observer_index: int, sender_index: int) -> float:
    """Conversational one-way delay between two participants.

    P2P sessions take the direct path; relayed sessions go sender →
    server → observer on the wide-area model the session was built with.
    """
    path = session.network.path_model
    observer = session.participants[observer_index].location
    sender = session.participants[sender_index].location
    if result.p2p or result.server is None:
        return path.one_way_ms(sender, observer)
    relay = result.server.location
    return path.one_way_ms(sender, relay) + path.one_way_ms(relay, observer)


def _observer_vectors(spec: ScenarioSpec, session,
                      result: SessionResult) -> Dict[str, QoeVector]:
    """The initiator's QoE toward every remote sender."""
    observer_index = 0
    observer = _user_id(observer_index)
    vectors: Dict[str, QoeVector] = {}
    profile = PROFILES[spec.profile]
    spatial = observer in result.receivers
    for index in range(1, len(spec.participants)):
        sender = _user_id(index)
        address = result.addresses[sender]
        if spatial:
            stat = result.receiver_of(observer).stats.get(address)
            availability = stat.availability() if stat is not None else 0.0
            fps = stat.delivered_fps() if stat is not None else 0.0
        else:
            try:
                snap = result.stats_of(observer).snapshot(address)
                fps = snap.frame_rate_fps
            except KeyError:
                fps = 0.0
            availability = (min(1.0, fps / profile.video_fps)
                            if profile.video_fps else 0.0)
        factors = QoeFactors(
            one_way_delay_ms=_one_way_ms(session, result,
                                         observer_index, index),
            persona_availability=float(np.clip(availability, 0.0, 1.0)),
            displayed_fps=max(0.0, fps),
            triangle_fraction=_triangle_fraction(result, sender),
        )
        vectors[sender] = QoeVector.from_factors(factors)
    return vectors


def _qoe_record(vectors: List[QoeVector]) -> Dict[str, object]:
    """Aggregate a set of per-stream vectors into the record's QoE block."""
    if not vectors:
        zero = {"interactivity": 0.0, "presence": 0.0, "fidelity": 0.0,
                "comfort": 0.0}
        return {"qoe": 0.0, "qoe_min": 0.0, "worst_dimension": "presence",
                **{f"qoe_{k}": v for k, v in zero.items()}}
    means = QoeVector(
        interactivity=float(np.mean([v.interactivity for v in vectors])),
        presence=float(np.mean([v.presence for v in vectors])),
        fidelity=float(np.mean([v.fidelity for v in vectors])),
        comfort=float(np.mean([v.comfort for v in vectors])),
    )
    aggregates = [v.aggregate() for v in vectors]
    return {
        "qoe": float(np.mean(aggregates)),
        "qoe_min": float(min(aggregates)),
        "worst_dimension": means.worst_dimension(),
        "qoe_interactivity": means.interactivity,
        "qoe_presence": means.presence,
        "qoe_fidelity": means.fidelity,
        "qoe_comfort": means.comfort,
    }


def _run_session_scenario(spec: ScenarioSpec) -> Dict[str, object]:
    participants = [
        Participant(_user_id(index), DEVICES[member.device](),
                    city(member.city))
        for index, member in enumerate(spec.participants)
    ]
    testbed = Testbed(participants)
    schedule = _scenario_schedule(spec)
    runner = CohortRunner()
    session = runner.add(lambda lane: testbed.session(
        PROFILES[spec.profile], seed=spec.seed, faults=schedule, sim=lane))
    _attach_storm(spec, session)
    result = runner.run(spec.duration_s)[0]

    vectors = _observer_vectors(spec, session, result)
    availabilities = [v.presence for v in vectors.values()]
    record: Dict[str, object] = {
        "name": spec.name,
        "profile": spec.profile,
        "topology": spec.topology,
        "persona": result.persona_kind.value,
        "protocol": result.protocol.value,
        "p2p": result.p2p,
        "n_participants": len(spec.participants),
        "duration_s": spec.duration_s,
        "seed": spec.seed,
        "fault_scenario": spec.faults.scenario,
        "fault_events": len(schedule) if schedule is not None else 0,
        "cross_traffic_flows": len(spec.cross_traffic),
        "availability_mean": (float(np.mean(availabilities))
                              if availabilities else 0.0),
        "reconnects": (result.resilience.reconnects
                       if result.resilience is not None else 0),
    }
    record.update(_qoe_record(list(vectors.values())))
    return record


def _run_multi_sfu_scenario(spec: ScenarioSpec) -> Dict[str, object]:
    cohort = sfu_cohort_downlink(spec.fanout, spec.duration_s,
                                 seed=spec.seed)
    one_way = sfu_observer_one_way_ms(spec.fanout)
    vectors = [
        cohort.observer_qoe_vector(obs, float(one_way[obs]))
        for obs in sorted(cohort.observer_windows_mbps)
    ]
    record: Dict[str, object] = {
        "name": spec.name,
        "profile": spec.profile,
        "topology": spec.topology,
        "persona": "spatial",
        "protocol": "quic",
        "p2p": False,
        "n_participants": spec.fanout,
        "duration_s": spec.duration_s,
        "seed": spec.seed,
        "fault_scenario": "none",
        "fault_events": 0,
        "cross_traffic_flows": 0,
        "availability_mean": (float(np.mean([v.presence for v in vectors]))
                              if vectors else 0.0),
        "reconnects": 0,
        "delivered_egress_mbps": cohort.delivered_egress_mbps,
        "ingress_drop_rate": cohort.ingress_drop_rate,
        "egress_drop_rate": cohort.egress_drop_rate,
        "saturated": cohort.saturated,
    }
    record.update(_qoe_record(vectors))
    return record


def run_scenario_cell(spec: Dict[str, object]) -> Dict[str, object]:
    """Execute one scenario; the campaign cell function.

    Takes the spec in plain-dict form (the cache key must canonicalize
    to JSON) and returns a flat JSON-safe record.  Deterministic: equal
    specs yield equal records on any host or process.
    """
    parsed = ScenarioSpec.from_dict(dict(spec))
    if parsed.topology == "multi-sfu":
        return _run_multi_sfu_scenario(parsed)
    return _run_session_scenario(parsed)


__all__ = ["run_scenario_cell"]
