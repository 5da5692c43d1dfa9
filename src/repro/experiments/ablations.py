"""Ablations: the optimizations the paper proposes but does not observe.

- **A1 — visibility-aware delivery** (Sec. 4.4 discussion): if the sender
  omitted content that falls outside the receiver's viewport, bandwidth
  would drop in proportion to the culled time share.
- **A2 — geo-distributed servers** (Sec. 4.1 discussion): attaching each
  client to its nearest server with a fast private backbone between
  servers, instead of the observed initiator-nearest single relay.
- A3 (occlusion-aware rendering) lives in
  :func:`repro.experiments.fig5.run_occlusion` next to the paper's
  negative result.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import calibration
from repro.checks import at_least
from repro.core.parallel import CellTask, run_tasks
from repro.geo.coords import GeoPoint
from repro.geo.regions import city
from repro.geo.servers import ALL_FLEETS, ServerFleet
from repro.keypoints.layered import (AdaptiveLayerSelector, Layer,
                                     LayeredSemanticCodec)
from repro.rendering.gaze import AttentionModel, arrange_personas
from repro.rendering.lod import LodPolicy, VisibilityState


# ---------------------------------------------------------------------------
# A1 — visibility-aware delivery
# ---------------------------------------------------------------------------

@dataclass
class DeliveryCullingResult:
    """Bandwidth with and without delivery-side viewport culling."""

    n_users: int
    baseline_mbps: float
    culled_mbps: float

    @property
    def savings_fraction(self) -> float:
        """Fraction of bandwidth the optimization would save."""
        if self.baseline_mbps <= 0:
            return 0.0
        return 1.0 - self.culled_mbps / self.baseline_mbps


def run_delivery_culling(
    n_users: int = 5,
    duration_s: float = 60.0,
    per_stream_mbps: float = calibration.SPATIAL_PERSONA_MBPS,
    seed: int = 0,
) -> DeliveryCullingResult:
    """Estimate A1 savings from the receiver's visibility timeline.

    Replays the attention dynamics of an ``n_users`` session and suppresses
    each sender's stream during the frames its persona is outside the
    receiver's viewport (the paper: "if the content is known to fall
    outside of a receiver's viewport, it could be omitted from delivery").
    """
    at_least(n_users, 2, "n_users")
    personas = arrange_personas([f"U{i + 2}" for i in range(n_users - 1)])
    attention = AttentionModel(personas, seed=seed)
    policy = LodPolicy()
    frames = int(duration_s * calibration.TARGET_FPS)
    delivered = 0
    total = 0
    for _ in range(frames):
        sample = attention.step()
        for decision in policy.decide(sample.camera, sample.views):
            total += 1
            if decision.state is not VisibilityState.CULLED:
                delivered += 1
    baseline = (n_users - 1) * per_stream_mbps
    culled = baseline * (delivered / total if total else 1.0)
    return DeliveryCullingResult(n_users, baseline, culled)


def _unpack_culling(payload: Dict[str, float]) -> DeliveryCullingResult:
    return DeliveryCullingResult(**payload)


def culling_task(duration_s: float, seed: int) -> CellTask:
    """A1 as one cell."""
    return CellTask(name="ablations/A1", fn=run_delivery_culling,
                    kwargs={"duration_s": duration_s, "seed": seed},
                    pack=asdict, unpack=_unpack_culling)


# ---------------------------------------------------------------------------
# A4 — layered semantic codec (rate adaptation the paper finds missing)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LayeredRatePoint:
    """Outcome at one uplink limit with the adaptive layered sender."""

    limit_kbps: float
    layer: "object"          # Layer or None when not even BASE fits
    availability: float
    degraded: bool


@dataclass
class LayeredCodecResult:
    """The A4 sweep."""

    points: List[LayeredRatePoint]

    def cutoff_kbps(self) -> float:
        """Lowest limit at which the persona remains available."""
        working = [
            p.limit_kbps for p in self.points if p.availability >= 0.9
        ]
        return min(working) if working else float("inf")

    def format_table(self) -> str:
        """Printable sweep."""
        lines = ["limit_kbps  layer      availability  degraded"]
        for p in self.points:
            layer = p.layer.name if p.layer is not None else "-"
            lines.append(
                f"{p.limit_kbps:10.0f}  {layer:9s}  "
                f"{p.availability:12.3f}  {p.degraded}"
            )
        return "\n".join(lines)


#: Uplink limits of the A4 sweep (Kbps): the Sec. 4.3 range, down to 100.
LAYERED_LIMITS_KBPS: Tuple[float, ...] = (
    2000.0, 1000.0, 700.0, 600.0, 500.0, 400.0, 300.0, 200.0, 100.0
)


def select_layers(limits_kbps: Sequence[float], seed: int) -> List[list]:
    """``[limit, layer]`` per limit: the layer the adaptive sender picks
    (None: not even BASE fits), from one selector profile for the sweep."""
    selector = AdaptiveLayerSelector(LayeredSemanticCodec(seed=seed))
    plan = []
    for limit in limits_kbps:
        layer = selector.select(limit / 1000.0)
        plan.append([limit, None if layer is None else int(layer)])
    return plan


def layer_selection_task(seed: int,
                         limits_kbps: Sequence[float] = LAYERED_LIMITS_KBPS
                         ) -> CellTask:
    """:func:`select_layers` as one cell (its result is plain JSON)."""
    return CellTask(name="ablations/A4/layers", fn=select_layers,
                    kwargs={"limits_kbps": limits_kbps, "seed": seed})


def measure_layered_at_limit(limit_kbps: float, layer: int,
                             duration_s: float, seed: int
                             ) -> LayeredRatePoint:
    """Run one shaped layered stream and count decodable frames."""
    from repro.geo.regions import city
    from repro.netsim.engine import Simulator
    from repro.netsim.network import Network
    from repro.netsim.node import Host
    from repro.netsim.shaper import TrafficShaper
    from repro.keypoints.codec import EncodedKeypointFrame
    from repro.vca.media import LayeredSemanticSource, quic_connection_for

    layer = Layer(layer)
    sim = Simulator()
    network = Network(sim)
    sender = Host("10.0.0.2", city("san jose"), name="sender")
    receiver = Host("10.0.1.2", city("dallas"), name="receiver")
    network.attach(sender)
    network.attach(receiver)
    network.set_uplink_shaper(
        sender.address, TrafficShaper(rate_bps=limit_kbps * 1000.0, seed=seed)
    )
    secret = b"layered-secret-0"
    codec = LayeredSemanticCodec(seed=seed)
    conn = quic_connection_for(sender.address, secret)
    decoded = []

    def on_packet(packet) -> None:
        try:
            frame = codec.decode(
                EncodedKeypointFrame(conn.unprotect(packet.payload))
            )
        except ValueError:
            return
        decoded.append(frame)

    receiver.bind(40000, on_packet)
    source = LayeredSemanticSource(secret, layer, seed=seed)
    source.attach(sim, sender, receiver.address)
    sim.run(until=duration_s)
    availability = min(
        1.0, len(decoded) / (duration_s * calibration.TARGET_FPS)
    )
    degraded = any(f.degraded for f in decoded)
    return LayeredRatePoint(limit_kbps, layer, availability, degraded)


def _pack_layered(point: LayeredRatePoint) -> Dict[str, object]:
    return {**asdict(point), "layer": int(point.layer)}


def _unpack_layered(payload: Dict[str, object]) -> LayeredRatePoint:
    return LayeredRatePoint(**{**payload, "layer": Layer(payload["layer"])})


def layered_tasks(plan: Sequence[list], duration_s: float,
                  seed: int) -> List[CellTask]:
    """One shaped-stream cell per limit of ``plan`` whose layer runs."""
    return [
        CellTask(
            name=f"ablations/A4/{limit:g}",
            fn=measure_layered_at_limit,
            kwargs={"limit_kbps": limit, "layer": layer,
                    "duration_s": duration_s, "seed": seed},
            pack=_pack_layered,
            unpack=_unpack_layered,
        )
        for limit, layer in plan if layer is not None
    ]


def layered_result(plan: Sequence[list],
                   streamed: Sequence[LayeredRatePoint]) -> LayeredCodecResult:
    """The A4 sweep from its layer plan and streamed points."""
    points = iter(streamed)
    return LayeredCodecResult([
        LayeredRatePoint(limit, None, 0.0, True) if layer is None
        else next(points)
        for limit, layer in plan
    ])


def run_layered_codec(
    limits_kbps=LAYERED_LIMITS_KBPS,
    duration_s: float = 10.0,
    seed: int = 0,
) -> LayeredCodecResult:
    """A4: the same shaping sweep as Sec. 4.3, with an adaptive sender.

    For each limit the selector picks the best-fitting layer; the stream
    then actually runs through the shaped path.  Where FaceTime shows
    "poor connection" below 700 Kbps, the layered sender stays available
    down to the BASE layer's ~200 Kbps.
    """
    plan = select_layers(limits_kbps, seed)
    return layered_result(
        plan, run_tasks(layered_tasks(plan, duration_s, seed)))


# ---------------------------------------------------------------------------
# A5 — forward error correction for the loss-fragile semantic stream
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FecPoint:
    """Availability at one loss rate, with and without parity."""

    loss_rate: float
    availability_plain: float
    availability_fec: float
    fec_overhead: float


@dataclass
class FecResilienceResult:
    """The A5 sweep."""

    points: List[FecPoint]
    k: int

    def fec_always_helps(self) -> bool:
        """Parity must not make availability worse anywhere."""
        return all(
            p.availability_fec >= p.availability_plain - 0.005
            for p in self.points
        )

    def format_table(self) -> str:
        """Printable sweep."""
        lines = [
            f"loss_rate  plain_avail  fec_avail  (k={self.k}, "
            f"overhead {self.points[0].fec_overhead:.0%})"
        ]
        for p in self.points:
            lines.append(
                f"{p.loss_rate:9.3f}  {p.availability_plain:11.3f}  "
                f"{p.availability_fec:9.3f}"
            )
        return "\n".join(lines)


def _semantic_over_lossy_link(loss: float, use_fec: bool, k: int,
                              duration_s: float, seed: int) -> float:
    """Delivered-frame availability of a semantic stream under loss."""
    from repro.geo.regions import city
    from repro.keypoints.codec import EncodedKeypointFrame, SemanticCodec
    from repro.netsim.engine import Simulator
    from repro.netsim.network import Network
    from repro.netsim.node import Host
    from repro.netsim.packet import IPPROTO_UDP, Packet
    from repro.netsim.shaper import TrafficShaper
    from repro.transport.fec import FecDecoder, FecEncoder, FecPacket
    from repro.vca.media import semantic_pool

    sim = Simulator()
    network = Network(sim)
    sender = Host("10.0.0.2", city("san jose"))
    receiver = Host("10.0.1.2", city("dallas"))
    network.attach(sender)
    network.attach(receiver)
    network.set_uplink_shaper(
        sender.address, TrafficShaper(loss=loss, seed=seed)
    )
    codec = SemanticCodec(seed=seed)
    pool = semantic_pool(float(calibration.TARGET_FPS), seed, 128)
    encoder = FecEncoder(k=k) if use_fec else None
    decoder = FecDecoder()
    delivered = []

    def on_packet(packet: Packet) -> None:
        if use_fec:
            try:
                fec_packet = FecPacket.parse(packet.payload)
            except ValueError:
                return
            for payload in decoder.receive(fec_packet):
                _count_frame(payload)
        else:
            _count_frame(packet.payload)

    def _count_frame(payload: bytes) -> None:
        try:
            codec.decode(EncodedKeypointFrame(payload))
        except ValueError:
            return
        delivered.append(1)

    receiver.bind(40000, on_packet)
    frame_counter = [0]

    def send_frame() -> None:
        payload = pool[frame_counter[0] % len(pool)]
        frame_counter[0] += 1
        if encoder is not None:
            wire_payloads = [p.pack() for p in encoder.protect(payload)]
        else:
            wire_payloads = [payload]
        for wire in wire_payloads:
            sender.send(Packet(
                src=sender.address, dst=receiver.address,
                src_port=40000, dst_port=40000,
                protocol=IPPROTO_UDP, payload=wire,
            ))

    sim.schedule_every(1.0 / calibration.TARGET_FPS, send_frame,
                       until=duration_s)
    sim.run(until=duration_s + 1.0)
    expected = frame_counter[0]
    return len(delivered) / expected if expected else 0.0


def run_fec_resilience(
    loss_rates=(0.0, 0.01, 0.02, 0.05, 0.10),
    k: int = 4,
    duration_s: float = 10.0,
    seed: int = 0,
) -> FecResilienceResult:
    """A5: XOR parity vs plain delivery under random loss.

    Plain semantic delivery loses availability one-for-one with packet
    loss (each frame is one packet, no retransmission); interleaved
    parity recovers any single loss per group at 1/k bandwidth overhead.
    """
    points = []
    for loss in loss_rates:
        plain = _semantic_over_lossy_link(loss, False, k, duration_s, seed)
        fec = _semantic_over_lossy_link(loss, True, k, duration_s, seed)
        points.append(FecPoint(loss, plain, fec, 1.0 / k))
    return FecResilienceResult(points, k)


# ---------------------------------------------------------------------------
# A2 — geo-distributed server selection
# ---------------------------------------------------------------------------

@dataclass
class ServerPolicyResult:
    """Worst client RTT under both selection policies, per scenario."""

    scenario: str
    initiator_nearest_ms: float
    geo_distributed_ms: float

    @property
    def improvement_fraction(self) -> float:
        """Relative worst-RTT reduction from geo-distribution."""
        if self.initiator_nearest_ms <= 0:
            return 0.0
        return 1.0 - self.geo_distributed_ms / self.initiator_nearest_ms


#: An intercontinental what-if: the paper notes Europe-Asia one-way delay
#: already exceeds the 100 ms immersive-QoE threshold.
GLOBAL_CITIES: Dict[str, GeoPoint] = {
    "london": GeoPoint("London, UK", 51.5074, -0.1278),
    "singapore": GeoPoint("Singapore", 1.3521, 103.8198),
    "frankfurt": GeoPoint("Frankfurt, DE", 50.1109, 8.6821),
    "tokyo": GeoPoint("Tokyo, JP", 35.6762, 139.6503),
}


def _global_fleet(base: ServerFleet) -> ServerFleet:
    """The provider's fleet extended with hypothetical overseas POPs."""
    from repro.geo.servers import Server

    extended = list(base.servers) + [
        Server(base.vca, "EU", GLOBAL_CITIES["frankfurt"], "198.51.100.1"),
        Server(base.vca, "AS", GLOBAL_CITIES["singapore"], "198.51.100.2"),
    ]
    return ServerFleet(base.vca, extended, base.path_model)


def run_server_policies(
    vca: str = "FaceTime",
    backbone_speedup: float = 1.6,
) -> List[ServerPolicyResult]:
    """Compare worst-client RTT across US-only and intercontinental calls."""
    base_fleet = ALL_FLEETS[vca]
    results = []

    us_participants = [city("san jose"), city("dallas"), city("washington")]
    results.append(ServerPolicyResult(
        scenario="US coast-to-coast (E initiator)",
        initiator_nearest_ms=base_fleet.worst_pair_rtt_ms(
            city("washington"), us_participants
        ),
        geo_distributed_ms=base_fleet.worst_pair_rtt_ms_geo_distributed(
            us_participants, backbone_speedup=backbone_speedup
        ),
    ))

    world_fleet = _global_fleet(base_fleet)
    world_participants = [
        city("san jose"), GLOBAL_CITIES["london"], GLOBAL_CITIES["tokyo"]
    ]
    results.append(ServerPolicyResult(
        scenario="Intercontinental (London initiator)",
        initiator_nearest_ms=world_fleet.worst_pair_rtt_ms(
            GLOBAL_CITIES["london"], world_participants
        ),
        geo_distributed_ms=world_fleet.worst_pair_rtt_ms_geo_distributed(
            world_participants, backbone_speedup=backbone_speedup
        ),
    ))
    return results
