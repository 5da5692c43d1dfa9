"""Ties the fault subsystem into :class:`~repro.vca.session.TelepresenceSession`.

The runtime is the glue layer the session constructs when it is given a
fault schedule or a resilience config.  It owns, per session:

- one :class:`~repro.faults.metrics.ResilienceTracker` per participant
  (tapping the media-port handler),
- one :class:`~repro.faults.ladder.DegradationLadder` per *sender*,
  driven every control interval by the worst receiver-observed goodput
  of that sender's stream (the RTCP-feedback analog),
- the shared :class:`~repro.vca.media.MediaTarget` of every source, so a
  server failover retargets all live streams by mutating one object,
- the :class:`~repro.faults.injector.FaultInjector` realizing the
  schedule, and
- the :class:`~repro.faults.reconnect.ReconnectManager` (relayed
  sessions only) that detects relay outages and fails over to the best
  healthy server of the fleet.

Sessions built without faults or resilience never construct a runtime —
the default path stays byte-identical.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.checks import positive
from repro.faults.injector import FaultInjector, FaultLogEntry
from repro.faults.ladder import DegradationLadder, LadderLevel
from repro.faults.metrics import (
    ResilienceReport,
    ResilienceTracker,
    find_stalls,
    mos_timeline,
    recovery_of,
)
from repro.faults.reconnect import BackoffPolicy, ReconnectEvent, ReconnectManager
from repro.faults.schedule import FaultSchedule
from repro.faults.sources import LadderedPersonaSource, video_scale_for_level
from repro.geo.servers import Server, build_fleet
from repro.netsim.packet import Packet
from repro.netsim.sfu import SelectiveForwardingUnit
from repro.vca.jitterbuffer import AdaptiveJitterBuffer
from repro.vca.media import MEDIA_PORT, MediaTarget

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.vca.session import TelepresenceSession

#: Approximate per-packet transport overhead for nominal audio wire rate.
_AUDIO_OVERHEAD_BYTES = 41


def _audio_wire_bps(bitrate_kbps: float) -> float:
    """Nominal wire rate of the 50 pps audio stream."""
    payload = max(16, int(bitrate_kbps * 1000 / 8 / 50))
    return (payload + _AUDIO_OVERHEAD_BYTES) * 8.0 * 50


def derive_fault_seed(session_seed: int) -> int:
    """Deterministic fault-RNG seed from the session seed (hash-stable)."""
    digest = hashlib.sha256(f"faults-{session_seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


@dataclass
class ResilienceConfig:
    """Tunables of the resilience mechanisms."""

    control_interval_s: float = 0.25
    goodput_window_s: float = 1.0
    gap_threshold_s: float = 0.35
    warmup_s: float = 0.5
    enable_ladder: bool = True
    enable_reconnect: bool = True
    enable_fec: bool = True
    backoff: BackoffPolicy = field(default_factory=BackoffPolicy)
    heartbeat_s: float = 0.25
    outage_timeout_s: float = 0.75
    textured_triangles: int = 2000
    simplified_triangles: int = 500
    texture_resolution: int = 128

    def __post_init__(self) -> None:
        positive(self.control_interval_s, "control_interval_s")
        positive(self.goodput_window_s, "goodput_window_s")


@dataclass
class SessionResilience:
    """What a resilient session exposes after running."""

    duration_s: float
    reports: Dict[str, Dict[str, ResilienceReport]]
    ladders: Dict[str, DegradationLadder]
    fault_log: List[FaultLogEntry]
    reconnect_events: List[ReconnectEvent]
    jitter_buffers: Dict[str, AdaptiveJitterBuffer]

    def report(self, observer: str, sender: str) -> ResilienceReport:
        """The report of ``observer`` watching ``sender``'s stream."""
        return self.reports[observer][sender]

    @property
    def reconnects(self) -> int:
        return len(self.reconnect_events)


class ResilienceRuntime:
    """Per-session fault-injection and resilience machinery.

    Constructed by :class:`~repro.vca.session.TelepresenceSession` when
    ``faults`` or ``resilience`` is given; the session calls the wiring
    hooks while building participants, then :meth:`finalize` once the
    topology stands, and :meth:`collect` after the run.
    """

    def __init__(
        self,
        session: "TelepresenceSession",
        schedule: Optional[FaultSchedule],
        config: Optional[ResilienceConfig],
    ) -> None:
        self.session = session
        self.schedule = schedule or FaultSchedule()
        self.config = config or ResilienceConfig()
        self.trackers: Dict[str, ResilienceTracker] = {}
        self.ladders: Dict[str, DegradationLadder] = {}
        self.targets: Dict[str, MediaTarget] = {}
        self.jitter_buffers: Dict[str, AdaptiveJitterBuffer] = {}
        self.injector: Optional[FaultInjector] = None
        self.reconnect: Optional[ReconnectManager] = None
        self._loss: Dict[str, float] = {}
        self._sfu_cache: Dict[str, SelectiveForwardingUnit] = {}

    # ------------------------------------------------------------------
    # Wiring hooks (called from TelepresenceSession._wire_participant)
    # ------------------------------------------------------------------

    def media_target(self, user_id: str, address: str, port: int
                     ) -> MediaTarget:
        """The shared, retargetable media target of one participant."""
        if user_id not in self.targets:
            self.targets[user_id] = MediaTarget(address, port)
        return self.targets[user_id]

    def tap(self, user_id: str,
            handler: Callable[[Packet], None]) -> Callable[[Packet], None]:
        """Wrap a media-port handler with arrival tracking + jitter buffer."""
        tracker = ResilienceTracker(
            lambda: self.session.sim.now, window_s=self.config.goodput_window_s
        )
        self.trackers[user_id] = tracker
        buffer = AdaptiveJitterBuffer()
        self.jitter_buffers[user_id] = buffer
        inner = tracker.tap(handler)

        def tapped(packet: Packet) -> None:
            if packet.meta.get("kind") in ("semantic", "semantic-fec",
                                           "mesh", "video"):
                buffer.observe(packet.created_at, self.session.sim.now)
            inner(packet)

        return tapped

    def loss_estimate(self, user_id: str) -> float:
        """Last control interval's loss estimate for one sender's stream."""
        return self._loss.get(user_id, 0.0)

    def spatial_source(self, user_id: str, seed: int
                       ) -> LadderedPersonaSource:
        """Build the laddered spatial source (and its ladder) for a sender."""
        config = self.config
        source = LadderedPersonaSource(
            self.session.session_secret,
            level_provider=lambda uid=user_id: self.ladders[uid].level,
            loss_estimate=(
                (lambda uid=user_id: self.loss_estimate(uid))
                if config.enable_fec else None
            ),
            seed=seed,
            textured_triangles=config.textured_triangles,
            simplified_triangles=config.simplified_triangles,
            texture_resolution=config.texture_resolution,
        )
        audio_bps = _audio_wire_bps(self.session.profile.audio_bitrate_kbps)
        self.ladders[user_id] = DegradationLadder(
            nominal_bps=source.nominal_rates(audio_bps),
            settle_s=self.config.goodput_window_s,
        )
        return source

    def video_rate_scale(self, user_id: str,
                         video_mbps: float) -> Callable[[], float]:
        """2D analog: build the sender's ladder and its encoder-scale hook."""
        audio_bps = _audio_wire_bps(self.session.profile.audio_bitrate_kbps)
        self.ladders[user_id] = DegradationLadder(nominal_bps={
            level: video_mbps * 1e6 * video_scale_for_level(level) + audio_bps
            for level in LadderLevel
        }, settle_s=self.config.goodput_window_s)
        return lambda: video_scale_for_level(self.ladders[user_id].level)

    # ------------------------------------------------------------------
    # Finalize (called once the session topology stands)
    # ------------------------------------------------------------------

    def finalize(self) -> None:
        """Arm the injector, the ladder control loop, and the reconnector."""
        session = self.session
        self.injector = FaultInjector(
            session.sim,
            session.network,
            self.schedule,
            address_of=dict(session._addresses),
            server_address=lambda: (
                session.server.address if session.server is not None else None
            ),
            seed=derive_fault_seed(session.seed),
        )
        self.injector.arm()

        if self.config.enable_ladder and self.ladders:
            # The first tick waits one interval: at t=0 no packet has
            # arrived yet and a zero goodput reading would drop every
            # ladder straight to audio-only.
            session.sim.schedule_every(self.config.control_interval_s,
                                       self._control_tick,
                                       start=self.config.control_interval_s)

        if (
            self.config.enable_reconnect
            and session._sfu is not None
            and session.server is not None
        ):
            self._sfu_cache[session.server.address] = session._sfu
            fleet = build_fleet(session.profile.name,
                                session.network.path_model)
            initiator = session.participants[session.initiator_index]
            sfu = session._sfu
            self.reconnect = ReconnectManager(
                session.sim,
                fleet,
                [p.location for p in session.participants],
                initiator.location,
                session.server,
                relay_packets=lambda: sfu.sfu_stats.packets_received,
                activate=self._activate_server,
                is_down=self.injector.is_down,
                backoff=self.config.backoff,
                heartbeat_s=self.config.heartbeat_s,
                outage_timeout_s=self.config.outage_timeout_s,
            )
            self.reconnect.arm()

    def _control_tick(self) -> None:
        """One ladder control interval: feed worst receiver goodput."""
        now = self.session.sim.now
        addresses = self.session._addresses
        for user_id, ladder in self.ladders.items():
            address = addresses[user_id]
            receivers = [uid for uid in self.trackers if uid != user_id]
            goodputs = [
                self.trackers[uid].goodput_bps(address, now)
                for uid in receivers
            ]
            goodput = min(goodputs) if goodputs else 0.0
            nominal = ladder.nominal_bps.get(ladder.level, 0.0)
            self._loss[user_id] = (
                min(1.0, max(0.0, 1.0 - goodput / nominal))
                if nominal > 0 else 0.0
            )
            ladder.observe(now, goodput)

    def _activate_server(self, server: Server) -> Callable[[], int]:
        """Switch the session onto ``server`` (reconnect callback)."""
        session = self.session
        old_sfu = session._sfu
        sfu = self._sfu_cache.get(server.address)
        if sfu is None:
            sfu = SelectiveForwardingUnit(
                server.address, server.location,
                name=f"{session.profile.name}-sfu-{server.label}",
            )
            session.network.attach(sfu)
            self._sfu_cache[server.address] = sfu
        for address in session._addresses.values():
            if old_sfu is not None:
                old_sfu.unregister(address)
            sfu.register(address, MEDIA_PORT)
        session.server = server
        session._sfu = sfu
        for target in self.targets.values():
            target.address = sfu.address
            target.port = SelectiveForwardingUnit.MEDIA_PORT
        return lambda: sfu.sfu_stats.packets_received

    # ------------------------------------------------------------------
    # Collection (called from TelepresenceSession.run)
    # ------------------------------------------------------------------

    def _one_way_delay_ms(self, sender_addr: str, observer_addr: str) -> float:
        network = self.session.network
        server = self.session.server
        if server is None:
            return network.one_way_delay_s(sender_addr, observer_addr) * 1000.0
        return (
            network.one_way_delay_s(sender_addr, server.address)
            + network.one_way_delay_s(server.address, observer_addr)
        ) * 1000.0

    def collect(self, duration_s: float) -> SessionResilience:
        """Assemble every participant-pair report after the run."""
        addresses = self.session._addresses
        config = self.config
        reports: Dict[str, Dict[str, ResilienceReport]] = {}
        for observer, tracker in self.trackers.items():
            reports[observer] = {}
            for sender, sender_addr in addresses.items():
                if sender == observer:
                    continue
                stalls = find_stalls(
                    tracker.media_arrivals(sender_addr), duration_s,
                    gap_threshold_s=config.gap_threshold_s,
                    warmup_s=config.warmup_s,
                )
                recoveries = [
                    recovery_of(event, stalls) for event in self.schedule
                ]
                ladder = self.ladders.get(sender)
                if ladder is not None:
                    occupancy = ladder.occupancy(duration_s)
                    transitions = len(ladder.transitions) - 1
                    mos_points = mos_timeline(
                        tracker, sender_addr, ladder, duration_s,
                        self._one_way_delay_ms(sender_addr,
                                               addresses[observer]),
                    )
                    mos = sum(m for _t, m in mos_points) / len(mos_points)
                else:
                    occupancy, transitions, mos = {}, 0, 5.0
                reports[observer][sender] = ResilienceReport(
                    observer=observer,
                    duration_s=duration_s,
                    stalls=stalls,
                    recoveries=recoveries,
                    ladder_occupancy_s=occupancy,
                    ladder_transitions=transitions,
                    mos_mean=mos,
                    reconnects=(
                        self.reconnect.reconnects
                        if self.reconnect is not None else 0
                    ),
                )
        return SessionResilience(
            duration_s=duration_s,
            reports=reports,
            ladders=dict(self.ladders),
            fault_log=list(self.injector.log) if self.injector else [],
            reconnect_events=(
                list(self.reconnect.events)
                if self.reconnect is not None else []
            ),
            jitter_buffers=dict(self.jitter_buffers),
        )
