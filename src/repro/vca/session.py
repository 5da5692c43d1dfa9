"""Telepresence session orchestration over the simulated testbed.

A :class:`TelepresenceSession` wires participants, the provider's behaviour
profile, server selection, media sources, receivers, and AP captures into
one runnable experiment — the unit every measurement in Sec. 4 operates on.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from typing import TYPE_CHECKING

from repro import calibration
from repro.checks import positive
from repro.devices.models import Device

if TYPE_CHECKING:  # deferred: repro.faults imports back into repro.vca
    from repro.faults.resilient import (
        ResilienceConfig,
        ResilienceRuntime,
        SessionResilience,
    )
    from repro.faults.schedule import FaultSchedule
from repro.geo.coords import GeoPoint
from repro.geo.latency import PathModel, DEFAULT_PATH_MODEL
from repro.geo.servers import Server, build_fleet
from repro.netsim.capture import PacketCapture
from repro.netsim.engine import Simulator
from repro.netsim.network import Network
from repro.netsim.node import Host
from repro.netsim.packet import Packet
from repro.netsim.sfu import SelectiveForwardingUnit
from repro.netsim.shaper import TrafficShaper
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.vca.media import (
    MEDIA_PORT,
    AudioSource,
    SemanticSource,
    VideoSource,
)
from repro.vca.profiles import PersonaKind, Protocol, VcaProfile
from repro.vca.receiver import SemanticReceiver
from repro.vca.stats import MediaStatsCollector, RtcpAgent


@dataclass(frozen=True)
class Participant:
    """One user in a session."""

    user_id: str
    device: Device
    location: GeoPoint

    def address(self, index: int) -> str:
        """Deterministic client address by join order."""
        return f"10.0.{index}.2"


@dataclass
class SessionResult:
    """Everything a finished session exposes for analysis."""

    profile: VcaProfile
    persona_kind: PersonaKind
    protocol: Protocol
    p2p: bool
    server: Optional[Server]
    duration_s: float
    captures: Dict[str, PacketCapture]
    receivers: Dict[str, SemanticReceiver]
    video_packets_received: Dict[str, int]
    addresses: Dict[str, str]
    stats_collectors: Dict[str, MediaStatsCollector] = field(default_factory=dict)
    resilience: Optional["SessionResilience"] = None

    def capture_of(self, user_id: str) -> PacketCapture:
        """The AP capture of one participant.

        Raises:
            KeyError: The session ran no capture for ``user_id`` (name it
                in ``captures=``).
        """
        capture = self.captures.get(user_id)
        if capture is None:
            raise KeyError(
                f"no capture of {user_id!r}: the session captured "
                f"{sorted(self.captures)}; name the participant in "
                "captures= to record one")
        return capture

    def receiver_of(self, user_id: str) -> SemanticReceiver:
        """The semantic receiver of one participant (spatial sessions)."""
        return self.receivers[user_id]

    def stats_of(self, user_id: str) -> MediaStatsCollector:
        """The in-app statistics panel of one participant (2D sessions)."""
        return self.stats_collectors[user_id]


class TelepresenceSession:
    """Builds and runs one telepresence call.

    Args:
        profile: Provider behaviour profile.
        participants: Users in join order; the first is the initiator
            unless ``initiator_index`` says otherwise.
        seed: Master seed for media and motion randomness.
        path_model: Wide-area latency model.
        faults: Optional fault schedule to inject during the run.
        resilience: Optional resilience tunables; providing either
            ``faults`` or ``resilience`` turns on the resilience runtime
            (degradation ladder, reconnect/failover, resilience metrics).
            Without both, the session behaves exactly as before.
        sim: Optional externally owned event engine — anything exposing
            the scalar :class:`~repro.netsim.engine.Simulator` surface,
            in particular a batch engine's
            :class:`~repro.netsim.batch.LaneSimulator` view.  When many
            sessions share one batch engine, advance the shared clock
            once and harvest each session with :meth:`collect`.
        captures: User ids whose AP runs a Wireshark-style capture
            (none by default).  Name only the vantages you read: a
            session nothing captures or faults forwards each packet with
            one engine event fewer.
    """

    def __init__(
        self,
        profile: VcaProfile,
        participants: Sequence[Participant],
        initiator_index: int = 0,
        seed: int = 0,
        path_model: Optional[PathModel] = None,
        faults: Optional["FaultSchedule"] = None,
        resilience: Optional["ResilienceConfig"] = None,
        sim: Optional[Simulator] = None,
        captures: Sequence[str] = (),
    ) -> None:
        if len(participants) < 2:
            raise ValueError("a session needs at least two participants")
        unknown = set(captures) - {p.user_id for p in participants}
        if unknown:
            raise ValueError(
                f"captures names unknown participants {sorted(unknown)}")
        if not 0 <= initiator_index < len(participants):
            raise ValueError("initiator index out of range")
        if (
            profile.supports_spatial
            and len(participants) > calibration.MAX_SPATIAL_PERSONAS
            and profile.persona_kind([p.device for p in participants])
            is PersonaKind.SPATIAL
        ):
            raise ValueError(
                f"FaceTime supports at most {calibration.MAX_SPATIAL_PERSONAS} "
                "spatial personas"
            )
        self.profile = profile
        self.participants = list(participants)
        self.initiator_index = initiator_index
        self.seed = seed
        self._captured = frozenset(captures)
        self.sim = sim if sim is not None else Simulator()
        self.network = Network(self.sim, path_model or DEFAULT_PATH_MODEL)

        devices = [p.device for p in self.participants]
        self.persona_kind = profile.persona_kind(devices)
        self.protocol = profile.protocol(devices)
        self.p2p = profile.uses_p2p(devices)
        self.session_secret = hashlib.sha256(
            f"{profile.name}-{seed}".encode()
        ).digest()

        self._hosts: Dict[str, Host] = {}
        self._addresses: Dict[str, str] = {}
        self._receivers: Dict[str, SemanticReceiver] = {}
        self._video_counts: Dict[str, int] = {}
        self._stats_collectors: Dict[str, MediaStatsCollector] = {}
        self._captures: Dict[str, PacketCapture] = {}
        self.server: Optional[Server] = None
        self._sfu: Optional[SelectiveForwardingUnit] = None
        self.resilience_runtime: Optional["ResilienceRuntime"] = None
        if faults is not None or resilience is not None:
            from repro.faults.resilient import ResilienceRuntime

            self.resilience_runtime = ResilienceRuntime(self, faults, resilience)
        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build(self) -> None:
        for index, participant in enumerate(self.participants):
            address = participant.address(index)
            host = Host(address, participant.location, name=participant.user_id)
            self.network.attach(host)
            self._hosts[participant.user_id] = host
            self._addresses[participant.user_id] = address
            if participant.user_id in self._captured:
                self._captures[participant.user_id] = (
                    self.network.start_capture(address))

        if not self.p2p:
            fleet = build_fleet(self.profile.name, self.network.path_model)
            initiator = self.participants[self.initiator_index]
            self.server = fleet.select_for_session(
                initiator.location, [p.location for p in self.participants]
            )
            sfu = SelectiveForwardingUnit(
                self.server.address, self.server.location,
                name=f"{self.profile.name}-sfu",
            )
            self.network.attach(sfu)
            for participant in self.participants:
                sfu.register(self._addresses[participant.user_id], MEDIA_PORT)
            self._sfu = sfu

        for index, participant in enumerate(self.participants):
            self._wire_participant(index, participant)

        if self.resilience_runtime is not None:
            self.resilience_runtime.finalize()

    def _media_target(self, index: int) -> "tuple[str, int]":
        """(address, port) where participant ``index`` sends media."""
        if self._sfu is not None:
            return self._sfu.address, SelectiveForwardingUnit.MEDIA_PORT
        peer = self.participants[1 - index]  # p2p implies two participants
        return self._addresses[peer.user_id], MEDIA_PORT

    def _wire_participant(self, index: int, participant: Participant) -> None:
        host = self._hosts[participant.user_id]
        target_address, target_port = self._media_target(index)
        seed = self.seed * 1000 + index
        # Per-stream counters, fetched once here so the per-packet hot
        # path is a single attribute add.
        rx_packets = obs_metrics.counter(
            f"vca.rx.packets.{participant.user_id}"
        )
        runtime = self.resilience_runtime
        target = (
            runtime.media_target(participant.user_id, target_address,
                                 target_port)
            if runtime is not None else None
        )

        if self.persona_kind is PersonaKind.SPATIAL:
            receiver = SemanticReceiver(self.session_secret, lambda: self.sim.now)
            handler = receiver.handle
            if runtime is not None:
                handler = runtime.tap(participant.user_id, handler)

            def counted(packet: Packet, _inner=handler,
                        _rx=rx_packets) -> None:
                _rx.inc()
                _inner(packet)

            host.bind(MEDIA_PORT, counted)
            self._receivers[participant.user_id] = receiver
            if runtime is not None and runtime.config.enable_ladder:
                runtime.spatial_source(participant.user_id, seed).attach(
                    self.sim, host, target_address, target_port, target=target
                )
            else:
                SemanticSource(self.session_secret, seed=seed).attach(
                    self.sim, host, target_address, target_port, target=target
                )
            AudioSource(
                self.profile.audio_bitrate_kbps, seed=seed,
                session_secret=self.session_secret,
            ).attach(self.sim, host, target_address, target_port,
                     target=target)
        else:
            self._video_counts[participant.user_id] = 0
            collector = MediaStatsCollector(self.profile, lambda: self.sim.now)
            self._stats_collectors[participant.user_id] = collector

            def receive(packet: Packet, uid: str = participant.user_id,
                        coll: MediaStatsCollector = collector,
                        _rx=rx_packets) -> None:
                _rx.inc()
                if packet.meta.get("kind") == "video":
                    self._video_counts[uid] += 1
                coll.on_packet(packet)

            handler = receive
            if runtime is not None:
                handler = runtime.tap(participant.user_id, handler)
            host.bind(MEDIA_PORT, handler)
            video_mbps = (
                self.profile.video_bitrate_mbps
                - self.profile.audio_bitrate_kbps / 1000.0
            )
            rate_scale = (
                runtime.video_rate_scale(participant.user_id, video_mbps)
                if runtime is not None and runtime.config.enable_ladder
                else None
            )
            video = VideoSource(
                self.profile.payload_type, video_mbps,
                fps=self.profile.video_fps, seed=seed,
                rate_scale=rate_scale,
            )
            video.attach(self.sim, host, target_address, target_port,
                         target=target)
            AudioSource(self.profile.audio_bitrate_kbps, seed=seed).attach(
                self.sim, host, target_address, target_port, target=target
            )
            RtcpAgent(host, collector, video, target_address,
                      target_port).attach(self.sim)

    # ------------------------------------------------------------------
    # Controls and execution
    # ------------------------------------------------------------------

    def host_of(self, user_id: str) -> Host:
        """The simulated host of a participant."""
        return self._hosts[user_id]

    def shape_uplink(self, user_id: str, shaper: Optional[TrafficShaper]) -> None:
        """Install a tc-style shaper on one participant's uplink."""
        self.network.set_uplink_shaper(self._addresses[user_id], shaper)

    def shape_downlink(self, user_id: str, shaper: Optional[TrafficShaper]) -> None:
        """Install a tc-style shaper on one participant's downlink."""
        self.network.set_downlink_shaper(self._addresses[user_id], shaper)

    def run(self, duration_s: float = float(calibration.MIN_SESSION_SECONDS)
            ) -> SessionResult:
        """Run the call for ``duration_s`` simulated seconds."""
        positive(duration_s, "duration_s")
        with obs_trace.span("vca.session.run", cat="session",
                            sim_clock=lambda: self.sim.now,
                            profile=self.profile.name,
                            users=len(self.participants),
                            persona=self.persona_kind.value):
            self.sim.run(until=duration_s)
        return self.collect(duration_s)

    def collect(self, duration_s: float) -> SessionResult:
        """Harvest the result once the clock has reached ``duration_s``.

        Split from :meth:`run` for batched cohorts: when N sessions share
        one engine the shared clock is advanced once, then each session
        is collected individually.  :meth:`run` is exactly advance +
        collect.
        """
        positive(duration_s, "duration_s")
        obs_metrics.counter("vca.sessions_run").inc()
        resilience = (
            self.resilience_runtime.collect(duration_s)
            if self.resilience_runtime is not None else None
        )
        return SessionResult(
            profile=self.profile,
            persona_kind=self.persona_kind,
            protocol=self.protocol,
            p2p=self.p2p,
            server=self.server,
            duration_s=duration_s,
            captures=dict(self._captures),
            receivers=dict(self._receivers),
            video_packets_received=dict(self._video_counts),
            addresses=dict(self._addresses),
            stats_collectors=dict(self._stats_collectors),
            resilience=resilience,
        )
