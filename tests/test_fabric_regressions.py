"""The packet fabric's per-packet contract, and three latent bugs.

The forwarding path (``Network``/``Link``/``TrafficShaper``/
``PacketCapture``) is tuned per hop, so these tests pin what it must keep:

* a clean packet costs exactly three engine events (AP uplink, core
  crossing, AP downlink), plus one for each shaper on its path;
* ``Packet.wire_bytes`` is IP + transport header + payload, fixed at
  construction (copies included) and outside ``==`` and ``repr``;
* a capture's records, built from its columns, are frozen and slotted
  and equal field for field to keyword-built ones.

The bit-exactness of ``Link.transmit`` against the vectorized
``drop_tail_departures`` kernel is a hypothesis test in
``test_batch_equivalence.py``.

Each regression below fails on the code before its fix:

1. **NaN event times** — both engines checked ``time < now``, which is
   False for NaN, so a NaN event was queued: the scalar clock ended the
   run at NaN, and a batch lane fired it between 1.0 and 2.0.  NaN also
   passed the fabric constructors (``Link``, ``TrafficShaper``,
   ``WiFiAccessPoint``, ``LinkFault``) and failed packets later, deep in
   ``Link.backlog_bytes``.  Every check is now ``not time >= now`` style.
2. **A zero-rate shaper meant unlimited** — ``TrafficShaper`` skipped its
   limiter on ``if rate_bps``, so ``rate_bps=0.0`` shaped nothing (and
   ``shareplay`` reported the unshaped availability as the shaped one)
   while ``Link(rate_bps=0)`` raises.  Now 0 raises too.
3. **Finished calls' captures outlived their cell** — a call's capture
   records stayed alive as cyclic garbage until a full collection, so a
   campaign's peak memory held several calls.  The scenario cell now
   clears its captures when its record is built.
"""

from __future__ import annotations

import dataclasses
import gc
import math

import pytest
from hypothesis import given, strategies as st

from repro.experiments.shareplay import measure_content
from repro.geo.regions import city
from repro.netsim.batch import BatchSimulator
from repro.netsim.capture import (
    SNAP_BYTES,
    CapturedPacket,
    Direction,
    PacketCapture,
)
from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.netsim.network import LinkFault, Network
from repro.netsim.node import Host
from repro.netsim.packet import (
    IPPROTO_TCP,
    IPPROTO_UDP,
    IPV4_HEADER_BYTES,
    TCP_HEADER_BYTES,
    UDP_HEADER_BYTES,
    Packet,
)
from repro.netsim.shaper import TrafficShaper
from repro.netsim.wifi import WiFiAccessPoint
from repro.scenario.compiler import run_scenario_cell
from repro.scenario.spec import FaultSpec, ParticipantSpec, ScenarioSpec
from repro.vca.shareplay import SharedContentProfile


def scalar_sim():
    """A session's own scalar engine."""
    return Simulator()


def lane_sim():
    """Lane 1 of a two-lane cohort engine."""
    return BatchSimulator(n_lanes=2).lane(1)


ENGINES = pytest.mark.parametrize("make_sim", [scalar_sim, lane_sim],
                                  ids=["scalar", "lane"])


# ----------------------------------------------------------------------
# What one packet costs
# ----------------------------------------------------------------------


def build_pair(sim, uplink=None, downlink=None):
    """A -> B across the core; A's uplink and B's downlink may be shaped."""
    network = Network(sim)
    a = Host("10.0.0.2", city("san jose"), name="A")
    b = Host("10.0.1.2", city("washington"), name="B")
    network.attach(a, uplink_shaper=uplink and TrafficShaper(**uplink))
    network.attach(b, downlink_shaper=downlink and TrafficShaper(**downlink))
    return network, a, b


@ENGINES
@pytest.mark.parametrize("uplink,downlink,events", [
    (None, None, 3),
    (dict(rate_bps=5e6), None, 4),
    (None, dict(delay_ms=20.0), 4),
    (dict(delay_ms=5.0), dict(rate_bps=5e6, delay_ms=5.0), 5),
], ids=["clean", "uplink-limiter", "downlink-netem", "both"])
def test_a_packet_costs_three_events_plus_one_per_shaper(
        make_sim, uplink, downlink, events):
    sim = make_sim()
    network, a, b = build_pair(sim, uplink, downlink)
    arrivals = []
    b.bind(5000, arrivals.append)
    for _ in range(4):
        assert a.send(Packet(a.address, b.address, 4000, 5000,
                             IPPROTO_UDP, bytes(300)))
    sim.run()
    assert len(arrivals) == 4
    assert network.stats.packets_delivered == 4
    assert sim.events_scheduled == 4 * events
    assert sim.events_fired == 4 * events


@given(payload=st.binary(max_size=1600),
       protocol=st.sampled_from([IPPROTO_UDP, IPPROTO_TCP]))
def test_wire_bytes_is_headers_plus_payload_on_copies_too(payload, protocol):
    header = UDP_HEADER_BYTES if protocol == IPPROTO_UDP else TCP_HEADER_BYTES
    packet = Packet("10.0.0.2", "10.0.1.2", 4000, 5000, protocol, payload)
    assert packet.wire_bytes == IPV4_HEADER_BYTES + header + len(payload)
    forwarded = packet.forward_to("10.0.2.2", 6000, "10.9.0.1", 3478)
    assert forwarded.wire_bytes == packet.wire_bytes
    reply = packet.reply_shell(payload[:7])
    assert reply.wire_bytes == IPV4_HEADER_BYTES + header + len(payload[:7])


def test_wire_bytes_is_outside_equality_and_repr():
    field = {f.name: f for f in dataclasses.fields(Packet)}["wire_bytes"]
    assert not (field.init or field.compare or field.repr)
    packet = Packet("10.0.0.2", "10.0.1.2", 4000, 5000, IPPROTO_UDP,
                    b"persona", packet_id=7)
    twin = Packet("10.0.0.2", "10.0.1.2", 4000, 5000, IPPROTO_UDP,
                  b"persona", packet_id=7)
    twin.wire_bytes = 0
    assert packet == twin
    assert "wire_bytes" not in repr(packet)


def test_observed_records_equal_keyword_built_ones():
    capture = PacketCapture("10.0.0.2")
    up = Packet("10.0.0.2", "10.0.1.2", 4000, 5000, IPPROTO_UDP,
                bytes(range(100)))
    down = Packet("10.0.1.2", "10.0.0.2", 5000, 4000, IPPROTO_TCP, b"ack")
    elsewhere = Packet("10.0.3.2", "10.0.1.2", 4000, 5000, IPPROTO_UDP, b"")
    capture.observe(0.25, up)
    capture.observe(0.5, down)
    capture.observe(0.75, elsewhere)
    expected = tuple(
        CapturedPacket(timestamp=t, direction=direction,
                       wire_bytes=p.wire_bytes, src=p.src, dst=p.dst,
                       src_port=p.src_port, dst_port=p.dst_port,
                       protocol=p.protocol, snap=p.payload[:SNAP_BYTES])
        for t, direction, p in ((0.25, Direction.UPLINK, up),
                                (0.5, Direction.DOWNLINK, down))
    )
    assert capture.records == expected
    for got, want in zip(capture.records, expected):
        for field in dataclasses.fields(CapturedPacket):
            value = getattr(got, field.name)
            assert value == getattr(want, field.name)
            assert type(value) is type(getattr(want, field.name))
    record = capture.records[0]
    assert len(record.snap) == SNAP_BYTES
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.wire_bytes = 1
    assert not hasattr(record, "__dict__")


# ----------------------------------------------------------------------
# 1. NaN event times and fabric parameters
# ----------------------------------------------------------------------


@ENGINES
def test_nan_event_time_is_rejected(make_sim):
    sim = make_sim()
    fired = []
    sim.schedule_at(2.0, lambda: fired.append(sim.now))
    with pytest.raises(ValueError):
        sim.schedule_at(math.nan, lambda: fired.append(sim.now))
    sim.schedule_at(1.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [1.0, 2.0]
    assert sim.now == 2.0


@ENGINES
def test_nan_delay_is_rejected(make_sim):
    sim = make_sim()
    with pytest.raises(ValueError):
        sim.schedule(math.nan, lambda: None)
    assert sim.pending_events() == 0


@ENGINES
def test_nan_horizon_and_interval_are_rejected(make_sim):
    sim = make_sim()
    with pytest.raises(ValueError):
        sim.run(until=math.nan)
    with pytest.raises(ValueError):
        sim.schedule_every(math.nan, lambda: None)
    assert sim.pending_events() == 0
    sim.run(until=1.0)  # the engine is still usable
    assert sim.now == 1.0


def test_nan_cohort_delay_is_rejected():
    batch = BatchSimulator(n_lanes=2)
    with pytest.raises(ValueError):
        batch.schedule_cohort(math.nan, [0, 1], lambda: None)
    assert batch.pending_events() == 0


@pytest.mark.parametrize("build", [
    lambda: Link(rate_bps=math.nan),
    lambda: Link(1e6).set_rate(math.nan),
    lambda: TrafficShaper(delay_ms=math.nan),
    lambda: TrafficShaper(rate_bps=math.nan),
    lambda: WiFiAccessPoint(throughput_mbps=math.nan),
    lambda: LinkFault(jitter_ms=math.nan),
], ids=["link-rate", "link-set-rate", "shaper-delay", "shaper-rate",
        "ap-throughput", "fault-jitter"])
def test_nan_fabric_parameters_fail_at_construction(build):
    with pytest.raises(ValueError):
        build()


# ----------------------------------------------------------------------
# 2. zero-rate shapers
# ----------------------------------------------------------------------


def test_zero_rate_shaper_raises_like_a_zero_rate_link():
    with pytest.raises(ValueError):
        Link(rate_bps=0.0)
    with pytest.raises(ValueError):
        TrafficShaper(rate_bps=0.0)
    assert TrafficShaper(rate_bps=None).rate_bps is None
    assert TrafficShaper(rate_bps=700e3).rate_bps == 700e3


def test_shareplay_rejects_a_zero_rate_constrained_uplink():
    with pytest.raises(ValueError):
        measure_content(SharedContentProfile.whiteboard(), duration_s=1.0,
                        constrained_uplink_mbps=0.0)


# ----------------------------------------------------------------------
# 3. capture records freed at teardown
# ----------------------------------------------------------------------


def test_finished_call_frees_its_capture_records():
    spec = ScenarioSpec(
        name="teardown", profile="FaceTime", topology="sfu",
        duration_s=2.0, seed=0,
        participants=(ParticipantSpec(device="vision-pro", city="san jose"),
                      ParticipantSpec(device="vision-pro", city="dallas"),
                      ParticipantSpec(device="vision-pro", city="chicago")),
        faults=FaultSpec(scenario="brownout", region_index=1),
    ).to_dict()
    gc.collect()
    gc.disable()
    try:
        known = {id(o) for o in gc.get_objects() if type(o) is PacketCapture}
        run_scenario_cell(spec)
        # The finished call is uncollected garbage here; its captures
        # must hold no records.
        captures = [o for o in gc.get_objects()
                    if type(o) is PacketCapture and id(o) not in known]
    finally:
        gc.enable()
    assert len(captures) == 3
    assert [c.records for c in captures] == [()] * 3
