"""Discrete-event network simulator.

This package replaces the paper's physical testbed (two WiFi APs, Wireshark
captures, Linux ``tc``) with a deterministic discrete-event simulation:

- :mod:`repro.netsim.engine` — event scheduler and simulated clock.
- :mod:`repro.netsim.packet` — byte-accurate packets (IP/UDP/TCP framing).
- :mod:`repro.netsim.link` — rate/propagation/queue link model.
- :mod:`repro.netsim.node` — hosts with port bindings.
- :mod:`repro.netsim.network` — wires hosts together using the geographic
  path model for core propagation delays.
- :mod:`repro.netsim.wifi` — the testbed's WiFi access points.
- :mod:`repro.netsim.shaper` — ``tc``-style impairments (delay, rate, loss).
- :mod:`repro.netsim.capture` — Wireshark-style packet captures.
- :mod:`repro.netsim.sfu` — selective-forwarding relay servers.
- :mod:`repro.netsim.batch` — cohort engine advancing many independent
  sessions, one lane each, on the scalar engine's event heap.
"""

from repro.netsim.batch import BatchSimulator, LaneSimulator
from repro.netsim.engine import Simulator
from repro.netsim.packet import Packet, IPPROTO_UDP, IPPROTO_TCP
from repro.netsim.link import Link
from repro.netsim.node import Host
from repro.netsim.network import Network
from repro.netsim.wifi import WiFiAccessPoint
from repro.netsim.shaper import TrafficShaper
from repro.netsim.capture import PacketCapture, CapturedPacket, Direction
from repro.netsim.sfu import SelectiveForwardingUnit
from repro.netsim.trace import save_trace, load_trace
from repro.netsim.crosstraffic import BulkTransferSource, OnOffBurstSource

__all__ = [
    "Simulator",
    "BatchSimulator",
    "LaneSimulator",
    "Packet",
    "IPPROTO_UDP",
    "IPPROTO_TCP",
    "Link",
    "Host",
    "Network",
    "WiFiAccessPoint",
    "TrafficShaper",
    "PacketCapture",
    "CapturedPacket",
    "Direction",
    "SelectiveForwardingUnit",
    "save_trace",
    "load_trace",
    "BulkTransferSource",
    "OnOffBurstSource",
]
