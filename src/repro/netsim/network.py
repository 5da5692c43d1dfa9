"""The network fabric: hosts, APs, shapers, and the wide-area core.

Packets traverse, in order:

1. the sender's uplink shaper (if installed — this is where ``tc`` lives),
2. the sender's AP uplink (serialization + queueing),
3. the wide-area core, modeled as the one-way delay of the geographic
   :class:`~repro.geo.latency.PathModel` between the two hosts,
4. the receiver's downlink shaper (if installed),
5. the receiver's AP downlink, then delivery to the host.

Captures observe uplink packets as they clear the sender's AP and downlink
packets as they arrive at the receiver's AP — the same vantage Wireshark has
in the paper's testbed.

On a network nothing observes (no capture, no fault seeding) steps 2 and 3
are one engine event: the packet is admitted on the AP uplink and its core
arrival is scheduled at ``departure + core delay`` directly.  An observed
network keeps a departure event between them, where captures stamp the
packet and fault jitter is drawn.  The mode is fixed per network by its
first packet, never per sender: arrival times are equal either way, but
exact arrival-time ties (co-located senders on synchronized media ticks)
are broken by when each crossing was scheduled, so mixing the two modes in
one network would reorder them.

Fault injection hooks: every attachment can carry a :class:`LinkFault`
(blackout, burst loss, burst jitter) installed by
:class:`repro.faults.injector.FaultInjector`.  Sender-side faults act before
the AP uplink (the sender's capture never sees the packet, like a radio
drop); receiver-side faults act before the receiver's AP capture (the loss
happened upstream of the Wireshark vantage).  In-flight core crossings are
tracked per destination so a blackout can revoke them via the simulator's
cancellable event handles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.checks import fraction, non_negative
from repro.geo.latency import PathModel, DEFAULT_PATH_MODEL
from repro.netsim.capture import PacketCapture
from repro.netsim.engine import EventHandle, Simulator
from repro.netsim.node import Host
from repro.netsim.packet import Packet
from repro.netsim.shaper import TrafficShaper
from repro.netsim.wifi import WiFiAccessPoint


@dataclass
class LinkFault:
    """Transient impairment of one host's point of attachment.

    Attributes:
        blackout: Drop every packet to or from the host.
        loss: Extra independent per-packet drop probability in [0, 1].
        jitter_ms: Amplitude of extra uniform random one-way delay.
        packets_dropped: Packets this fault has destroyed so far.
    """

    blackout: bool = False
    loss: float = 0.0
    jitter_ms: float = 0.0
    packets_dropped: int = 0

    def __post_init__(self) -> None:
        fraction(self.loss, "loss")
        non_negative(self.jitter_ms, "jitter_ms")


@dataclass
class _Attachment:
    """Everything the network knows about one attached host."""

    host: Host
    ap: WiFiAccessPoint
    uplink_shaper: Optional[TrafficShaper] = None
    downlink_shaper: Optional[TrafficShaper] = None
    capture: Optional[PacketCapture] = None
    fault: Optional[LinkFault] = None
    #: Pending core crossings headed here, by crossing token.
    inflight: Dict[int, EventHandle] = field(default_factory=dict)


#: An AP-uplink hop: forwards a packet from the sender's attachment.
_UplinkHop = Callable[[_Attachment, _Attachment, Packet], None]


@dataclass
class NetworkStats:
    """Fabric-wide counters."""

    packets_sent: int = 0
    packets_delivered: int = 0
    packets_dropped: int = 0


class Network:
    """Wires hosts together over a geographic wide-area core."""

    def __init__(self, sim: Simulator, path_model: Optional[PathModel] = None) -> None:
        self.sim = sim
        self.path_model = path_model or DEFAULT_PATH_MODEL
        self.stats = NetworkStats()
        self._attachments: Dict[str, _Attachment] = {}
        self._core_delay_s: Dict[Tuple[str, str], float] = {}
        self._fault_rng: Optional[np.random.Generator] = None
        self._crossings = itertools.count()
        #: Whether a capture or the fault layer was armed.
        self._observed = False
        #: The AP-uplink hop, fixed by the first packet sent.
        self._uplink_hop: Optional[_UplinkHop] = None

    def attach(
        self,
        host: Host,
        ap: Optional[WiFiAccessPoint] = None,
        uplink_shaper: Optional[TrafficShaper] = None,
        downlink_shaper: Optional[TrafficShaper] = None,
    ) -> _Attachment:
        """Join ``host`` to the fabric behind ``ap`` (a fresh AP by default)."""
        if host.address in self._attachments:
            raise ValueError(f"address {host.address} already attached")
        attachment = _Attachment(
            host=host,
            ap=ap or WiFiAccessPoint(name=f"ap-{host.name}"),
            uplink_shaper=uplink_shaper,
            downlink_shaper=downlink_shaper,
        )
        self._attachments[host.address] = attachment
        host.attach(self)
        return attachment

    def host(self, address: str) -> Host:
        """Look up an attached host by address."""
        return self._attachments[address].host

    def ap_of(self, address: str) -> WiFiAccessPoint:
        """The access point a host sits behind (for congestion feedback)."""
        return self._attachments[address].ap

    def set_uplink_shaper(self, address: str, shaper: Optional[TrafficShaper]) -> None:
        """Install (or remove) a ``tc`` shaper on a host's uplink."""
        self._attachments[address].uplink_shaper = shaper

    def set_downlink_shaper(self, address: str, shaper: Optional[TrafficShaper]) -> None:
        """Install (or remove) a ``tc`` shaper on a host's downlink."""
        self._attachments[address].downlink_shaper = shaper

    def start_capture(self, address: str) -> PacketCapture:
        """Start a Wireshark-style capture at the host's AP.

        Raises:
            RuntimeError: The network already forwarded unobserved packets.
        """
        self._arm("start_capture")
        attachment = self._attachments[address]
        attachment.capture = attachment.ap.start_capture(address)
        return attachment.capture

    def one_way_delay_s(self, src_address: str, dst_address: str) -> float:
        """Core one-way delay between two attached hosts, in seconds.

        Memoized per address pair: attachments are only ever added and
        hosts never move, so a pair's noise-free delay never changes.
        """
        key = (src_address, dst_address)
        delay = self._core_delay_s.get(key)
        if delay is None:
            src = self._attachments[src_address].host
            dst = self._attachments[dst_address].host
            delay = self.path_model.one_way_ms(src.location,
                                               dst.location) / 1000.0
            self._core_delay_s[key] = delay
        return delay

    def _arm(self, what: str) -> None:
        """Mark the network observed, before its first packet only.

        An unobserved network folds each AP-uplink departure into its core
        crossing, so a capture or fault armed later would see a departure
        history that never happened.
        """
        if self._uplink_hop is not None and not self._observed:
            raise RuntimeError(
                f"{what}: this network already forwarded unobserved "
                "packets; start captures and arm faults before the first "
                "send")
        self._observed = True

    # ------------------------------------------------------------------
    # Fault-injection surface
    # ------------------------------------------------------------------

    def seed_faults(self, seed: int) -> None:
        """(Re)seed the RNG behind fault loss/jitter processes.

        The fault layer calls this with a seed derived from the session
        seed so fault runs are exactly reproducible.  Without faults this
        RNG is never drawn from, keeping clean runs byte-identical.

        Raises:
            RuntimeError: The network already forwarded unobserved packets.
        """
        self._arm("seed_faults")
        self._fault_rng = np.random.default_rng(seed)

    def _rng(self) -> np.random.Generator:
        if self._fault_rng is None:
            self._fault_rng = np.random.default_rng(0)
        return self._fault_rng

    def set_fault(self, address: str, fault: Optional[LinkFault]) -> None:
        """Install (or clear, with None) a fault on a host's attachment.

        Raises:
            RuntimeError: The network already forwarded unobserved packets.
        """
        self._arm("set_fault")
        self._attachments[address].fault = fault

    def fault_of(self, address: str) -> Optional[LinkFault]:
        """The currently installed fault of an attachment, if any."""
        return self._attachments[address].fault

    def is_blacked_out(self, address: str) -> bool:
        """Whether the attachment currently drops all traffic."""
        fault = self._attachments[address].fault
        return fault is not None and fault.blackout

    def drop_inflight(self, address: str) -> int:
        """Revoke every core crossing currently headed to ``address``.

        Uses the simulator's cancellable handles — this is what makes a
        blackout instantaneous instead of "no *new* packets".  Returns the
        number of deliveries revoked.

        Raises:
            RuntimeError: The network already forwarded unobserved packets
                (their crossings are not tracked).
        """
        self._arm("drop_inflight")
        attachment = self._attachments[address]
        dropped = 0
        for handle in attachment.inflight.values():
            if self.sim.cancel(handle):
                dropped += 1
        attachment.inflight.clear()
        self.stats.packets_dropped += dropped
        if attachment.fault is not None:
            attachment.fault.packets_dropped += dropped
        return dropped

    def _fault_drops(self, fault: LinkFault) -> bool:
        """Whether ``fault`` destroys the next packet (draws RNG on loss)."""
        if fault.blackout:
            fault.packets_dropped += 1
            return True
        if fault.loss > 0.0 and self._rng().random() < fault.loss:
            fault.packets_dropped += 1
            return True
        return False

    def _fault_jitter_s(self, *faults: Optional[LinkFault]) -> float:
        """Extra one-way delay contributed by active jitter faults."""
        amplitude_ms = sum(f.jitter_ms for f in faults if f is not None)
        if amplitude_ms <= 0.0:
            return 0.0
        return float(self._rng().uniform(0.0, amplitude_ms)) / 1000.0

    # ------------------------------------------------------------------
    # The forwarding path
    # ------------------------------------------------------------------

    def send(self, packet: Packet) -> bool:
        """Inject a packet at its source host's uplink.

        Each hop is a ``functools.partial`` of a bound method, which
        :meth:`Link.transmit` extends with the packet (``partial``
        flattens nested partials), so a hop costs one Python frame.  A
        clean packet costs two engine events on a network nothing
        observes (AP uplink and core crossing in one, then AP downlink)
        and three on an observed one (AP uplink, core crossing, AP
        downlink), plus one per shaper on its path.
        """
        sender = self._attachments.get(packet.src)
        receiver = self._attachments.get(packet.dst)
        if sender is None:
            raise KeyError(f"unknown source address {packet.src}")
        if receiver is None:
            raise KeyError(f"unknown destination address {packet.dst}")
        sim = self.sim
        packet.created_at = sim.now
        stats = self.stats
        stats.packets_sent += 1

        if sender.fault is not None and self._fault_drops(sender.fault):
            stats.packets_dropped += 1
            return False

        hop = self._uplink_hop or self._fix_uplink_hop()
        shaper = sender.uplink_shaper
        if shaper is None:
            hop(sender, receiver, packet)
            return True
        accepted = shaper.process(sim, packet, partial(hop, sender, receiver))
        if not accepted:
            stats.packets_dropped += 1
        return accepted

    def _fix_uplink_hop(self) -> _UplinkHop:
        """Choose the AP-uplink hop once, for the whole network."""
        self._uplink_hop = (self._enter_ap_uplink if self._observed
                            else self._cross_ap_uplink_and_core)
        return self._uplink_hop

    def _enter_ap_uplink(self, sender: _Attachment, receiver: _Attachment,
                         packet: Packet) -> None:
        if not sender.ap.uplink.transmit(
                self.sim, packet, partial(self._cross_core, sender, receiver)):
            self.stats.packets_dropped += 1

    def _cross_ap_uplink_and_core(self, sender: _Attachment,
                                  receiver: _Attachment,
                                  packet: Packet) -> None:
        # The unobserved hop: no capture stamps the departure and no
        # fault can draw jitter or revoke the crossing, so the core
        # arrival is scheduled now, at the time the departure event
        # would have scheduled it.
        sim = self.sim
        departure = sender.ap.uplink.admit(sim.now, packet.wire_bytes)
        if departure is None:
            self.stats.packets_dropped += 1
            return
        delay = self._core_delay_s.get((packet.src, packet.dst))
        if delay is None:
            delay = self.one_way_delay_s(packet.src, packet.dst)
        sim.schedule_at(departure + delay,
                        partial(self._arrive_at_receiver, receiver, packet))

    def _cross_core(self, sender: _Attachment, receiver: _Attachment,
                    packet: Packet) -> None:
        sim = self.sim
        if sender.capture is not None:
            sender.capture.observe(sim.now, packet)
        delay = self._core_delay_s.get((packet.src, packet.dst))
        if delay is None:
            delay = self.one_way_delay_s(packet.src, packet.dst)
        if sender.fault is not None or receiver.fault is not None:
            delay += self._fault_jitter_s(sender.fault, receiver.fault)
        token = next(self._crossings)
        receiver.inflight[token] = sim.schedule(
            delay, partial(self._land_tracked, receiver, packet, token))

    def _land_tracked(self, receiver: _Attachment, packet: Packet,
                      token: int) -> None:
        del receiver.inflight[token]
        self._arrive_at_receiver(receiver, packet)

    def _arrive_at_receiver(self, receiver: _Attachment,
                            packet: Packet) -> None:
        if receiver.fault is not None and self._fault_drops(receiver.fault):
            self.stats.packets_dropped += 1
            return
        sim = self.sim
        if receiver.capture is not None:
            receiver.capture.observe(sim.now, packet)
        shaper = receiver.downlink_shaper
        if shaper is None:
            accepted = receiver.ap.downlink.transmit(
                sim, packet, partial(self._deliver, receiver))
        else:
            accepted = shaper.process(
                sim, packet, partial(self._enter_ap_downlink, receiver))
        if not accepted:
            self.stats.packets_dropped += 1

    def _enter_ap_downlink(self, receiver: _Attachment, packet: Packet) -> None:
        if not receiver.ap.downlink.transmit(
                self.sim, packet, partial(self._deliver, receiver)):
            self.stats.packets_dropped += 1

    def _deliver(self, receiver: _Attachment, packet: Packet) -> None:
        self.stats.packets_delivered += 1
        receiver.host.deliver(packet)
