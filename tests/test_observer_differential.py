"""Captures change what a run records, never how it runs.

A network nothing observes (no capture, no fault seeding) schedules each
packet's core arrival when the sender's AP uplink admits it; an observed
network keeps a departure event in between, where captures stamp the
packet (``repro.netsim.network``).  Each case below runs one call with
``captures=()`` and with ``captures=("U1",)``, on a scalar engine and on a
batch lane, and requires equal receiver statistics, fabric counters and
QoE records.

The Teams case is the ``calls`` benchmark's: U1 and U3 both sit in New
York, so their synchronized media ticks make exact arrival-time ties at
the relay, broken by when each crossing was scheduled.  Folding only the
senders nothing captures reorders those ties and moves the call's QoE;
folding per network does not.

The guards are pinned too: arming an observer on a network that already
forwarded unobserved packets raises ``RuntimeError``, and reading a vantage
the session did not capture raises a ``KeyError`` that names
``captures=``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import testbed as testbeds
from repro.geo.regions import city
from repro.netsim.batch import BatchSimulator
from repro.netsim.engine import Simulator
from repro.netsim.network import LinkFault, Network
from repro.netsim.node import Host
from repro.netsim.packet import IPPROTO_UDP, Packet
from repro.netsim.shaper import TrafficShaper
from repro.scenario import compiler
from repro.scenario.compiler import run_scenario_cell
from repro.scenario.spec import (
    DEVICES,
    CrossTrafficSpec,
    ParticipantSpec,
    ScenarioSpec,
)
from repro.vca.cohort import CohortRunner
from repro.vca.profiles import FACETIME, PROFILES
from repro.vca.session import Participant


def call(name, profile, members, *, duration_s=6.0, seed=0, storm=None):
    """A scenario call of ``profile`` between ``members`` (device, city)."""
    devices = [DEVICES[device]() for device, _ in members]
    return ScenarioSpec(
        name=name, profile=profile,
        topology="p2p" if PROFILES[profile].uses_p2p(devices) else "sfu",
        duration_s=duration_s, seed=seed,
        participants=tuple(ParticipantSpec(device=d, city=c)
                           for d, c in members),
        cross_traffic=(storm,) if storm is not None else ())


def shape_u1_up_u2_down(session):
    """An uplink rate limiter on U1 and downlink netem on U2."""
    session.shape_uplink("U1", TrafficShaper(rate_bps=0.5e6, seed=3))
    session.shape_downlink("U2", TrafficShaper(delay_ms=35.0, seed=4))


#: (spec, extra wiring, whether the call must drop packets).
CASES = {
    "teams-colocated": (call(
        "teams-colocated", "Teams",
        [("vision-pro", "new york"), ("ipad", "san jose"),
         ("macbook", "new york")],
        duration_s=16.0, seed=3047023334), None, False),
    "zoom-p2p": (call(
        "zoom-p2p", "Zoom", [("vision-pro", "seattle"),
                             ("macbook", "dallas")], seed=5), None, False),
    "facetime-sfu": (call(
        "facetime-sfu", "FaceTime",
        [("vision-pro", "san jose"), ("vision-pro", "chicago"),
         ("vision-pro", "new york")], seed=2), None, False),
    "facetime-shaped": (call(
        "facetime-shaped", "FaceTime",
        [("vision-pro", "san jose"), ("vision-pro", "dallas")], seed=1),
        shape_u1_up_u2_down, True),
    "webex-storm": (call(
        "webex-storm", "Webex", [("vision-pro", "new york"),
                                 ("macbook", "chicago")], seed=9,
        storm=CrossTrafficSpec(kind="bulk", source=1, rate_mbps=600.0,
                               start_s=2.0, stop_s=3.0)), None, True),
}


def outcome(session, result) -> dict:
    """What the call's receivers and fabric report, captures aside."""
    network = session.network
    addresses = list(result.addresses.values())
    if result.server is not None:
        addresses.append(result.server.address)
    links = []
    for address in addresses:
        ap = network.ap_of(address)
        links.append((dataclasses.astuple(ap.uplink.stats),
                      dataclasses.astuple(ap.downlink.stats)))
    return {
        "personas": {
            user: {sender: dataclasses.astuple(stat)
                   for sender, stat in receiver.stats.items()}
            for user, receiver in result.receivers.items()},
        "panels": {
            user: [collector.snapshot(origin)
                   for origin in collector.origins()]
            for user, collector in result.stats_collectors.items()},
        "video": result.video_packets_received,
        "fabric": dataclasses.astuple(network.stats),
        "links": links,
    }


def run_call(spec, captures, engine, wire=None):
    """The scenario cell's session, capturing ``captures``, on ``engine``.

    Returns:
        (outcome, QoE record, events the call's engine fired).
    """
    testbed = testbeds.Testbed([
        Participant(f"U{index + 1}", DEVICES[member.device](),
                    city(member.city))
        for index, member in enumerate(spec.participants)])

    def build(sim=None):
        return testbed.session(PROFILES[spec.profile], seed=spec.seed,
                               faults=compiler._scenario_schedule(spec),
                               sim=sim, captures=captures)

    runner = CohortRunner() if engine == "lane" else None
    session = runner.add(build) if runner is not None else build()
    compiler._attach_storm(spec, session)
    if wire is not None:
        wire(session)
    result = (runner.run(spec.duration_s)[0] if runner is not None
              else session.run(spec.duration_s))
    assert sorted(result.captures) == sorted(captures)
    vectors = compiler._observer_vectors(spec, session, result)
    return (outcome(session, result),
            compiler._qoe_record(list(vectors.values())),
            session.sim.events_fired)


@pytest.mark.parametrize("engine", ["scalar", "lane"])
@pytest.mark.parametrize("case", list(CASES))
def test_a_capture_leaves_the_call_unchanged(case, engine):
    spec, wire, drops = CASES[case]
    bare, bare_qoe, bare_events = run_call(spec, (), engine, wire)
    seen, seen_qoe, seen_events = run_call(spec, ("U1",), engine, wire)
    assert bare == seen
    assert bare_qoe == seen_qoe
    # The unobserved call folded every AP-uplink departure away.
    assert bare_events < seen_events
    assert (bare["fabric"][2] > 0) == drops  # packets_dropped


@pytest.mark.parametrize("case", [c for c in CASES if CASES[c][1] is None])
def test_the_differential_runs_the_scenario_cell(case):
    """The lane run above is the compiler's own call, record for record."""
    spec = CASES[case][0]
    record = run_scenario_cell(spec.to_dict())
    _, qoe, _ = run_call(spec, (), "lane")
    assert {key: record[key] for key in qoe} == qoe


# ----------------------------------------------------------------------
# Guards
# ----------------------------------------------------------------------


ENGINES = pytest.mark.parametrize(
    "make_sim", [Simulator, lambda: BatchSimulator(n_lanes=2).lane(1)],
    ids=["scalar", "lane"])

#: Every way to observe a network, by name.
ARMS = {
    "start_capture": lambda network, a: network.start_capture(a.address),
    "seed_faults": lambda network, a: network.seed_faults(3),
    "set_fault": lambda network, a: network.set_fault(
        a.address, LinkFault(loss=0.5)),
    "drop_inflight": lambda network, a: network.drop_inflight(a.address),
}


def pair(sim):
    network = Network(sim)
    a = Host("10.0.0.2", city("san jose"), name="A")
    b = Host("10.0.1.2", city("washington"), name="B")
    network.attach(a)
    network.attach(b)
    b.bind(5000, lambda packet: None)
    return network, a, b


def send(a, b):
    assert a.send(Packet(a.address, b.address, 4000, 5000, IPPROTO_UDP,
                         bytes(200)))


@ENGINES
@pytest.mark.parametrize("arm", list(ARMS))
def test_an_observer_after_unobserved_packets_raises(make_sim, arm):
    sim = make_sim()
    network, a, b = pair(sim)
    send(a, b)
    with pytest.raises(RuntimeError, match="already forwarded unobserved"):
        ARMS[arm](network, a)
    sim.run()
    with pytest.raises(RuntimeError, match=arm):
        ARMS[arm](network, a)
    assert network.stats.packets_delivered == 1


@ENGINES
@pytest.mark.parametrize("first", list(ARMS))
def test_observers_armed_before_the_first_send_may_keep_arming(make_sim,
                                                              first):
    sim = make_sim()
    network, a, b = pair(sim)
    ARMS[first](network, a)
    if first == "set_fault":
        network.set_fault(a.address, None)  # let the first packet through
    send(a, b)
    for arm in ARMS.values():  # an observed network takes late observers
        arm(network, a)
    network.set_fault(a.address, None)
    send(a, b)
    sim.run()
    assert network.stats.packets_sent == 2


def test_capture_of_an_uncaptured_participant_names_captures():
    result = testbeds.default_two_user_testbed().session(
        FACETIME, seed=0, captures=("U2",)).run(2.0)
    assert result.capture_of("U2").total_bytes() > 0
    with pytest.raises(KeyError, match="captures="):
        result.capture_of("U1")
    bare = testbeds.default_two_user_testbed().session(
        FACETIME, seed=0).run(2.0)
    assert bare.captures == {}
    with pytest.raises(KeyError, match="captures="):
        bare.capture_of("U2")


@pytest.mark.parametrize("captures", [("U3",), ("U1", "nobody"), "U1"])
def test_capturing_an_unknown_participant_raises(captures):
    with pytest.raises(ValueError, match="unknown participants"):
        testbeds.default_two_user_testbed().session(FACETIME,
                                                    captures=captures)
