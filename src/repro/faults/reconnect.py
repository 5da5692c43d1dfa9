"""Session reconnect: outage detection, backoff, server failover.

A relayed session notices its SFU went dark the only way a client can —
the media it expects stops arriving.  The manager here polls the current
relay's forwarding counters on a heartbeat; when they freeze for longer
than the outage timeout it enters the reconnect loop:

1. rank the fleet's servers by mean participant RTT
   (:func:`repro.geo.placement.rank_failover_servers`), skipping servers
   currently known to be down,
2. pay a connect delay proportional to the initiator→server RTT,
3. verify the chosen server is still healthy at connect completion and
   switch over (the runtime retargets every live source by mutating the
   shared :class:`~repro.vca.media.MediaTarget`), or
4. back off exponentially and try again — indefinitely, because with a
   one-server fleet (Teams) the only path to recovery is the original
   relay coming back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.checks import at_least, positive
from repro.geo.coords import GeoPoint
from repro.geo.placement import rank_failover_servers
from repro.geo.servers import Server, ServerFleet
from repro.netsim.engine import Simulator


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff between reconnect attempts."""

    base_s: float = 0.25
    factor: float = 2.0
    cap_s: float = 4.0

    def __post_init__(self) -> None:
        positive(self.base_s, "base_s")
        at_least(self.cap_s, self.base_s, "cap_s")
        at_least(self.factor, 1.0, "factor")

    def delay_s(self, attempt: int) -> float:
        """Wait before attempt number ``attempt`` (0-based).

        Raises:
            ValueError: For a negative attempt number.
        """
        at_least(attempt, 0, "attempt")
        return min(self.cap_s, self.base_s * self.factor ** attempt)


@dataclass
class ReconnectEvent:
    """One detected outage and its resolution."""

    detected_s: float
    from_server: str
    recovered_s: Optional[float] = None
    to_server: Optional[str] = None
    attempts: int = 0

    @property
    def recovered(self) -> bool:
        return self.recovered_s is not None

    @property
    def downtime_s(self) -> Optional[float]:
        """Detection-to-recovery span (None while unresolved)."""
        if self.recovered_s is None:
            return None
        return self.recovered_s - self.detected_s

    @property
    def failed_over(self) -> bool:
        """Whether recovery landed on a different server."""
        return self.recovered and self.to_server != self.from_server


class ReconnectManager:
    """Detects relay outages and drives failover for one session.

    Args:
        sim: The session's event loop.
        fleet: The provider's server fleet.
        participant_locations: Where the users are (ranks candidates).
        initiator_location: Whose RTT prices the connect delay.
        current_server: The relay selected at session start.
        relay_packets: Returns the *current* relay's received-packet
            counter; frozen counters are the outage signal.
        activate: Switch the session onto a server.  Returns the new
            relay's received-packet counter getter.  The runtime
            implements this (attach/reuse SFU, re-register participants,
            retarget the shared media targets).
        is_down: Whether an address is currently blacked out (the
            injector's view); used to skip known-dead candidates.
        backoff: Retry pacing.
        heartbeat_s: Counter polling period.
        outage_timeout_s: Frozen-counter span that declares an outage.
        connect_rtt_multiplier: Connect delay as a multiple of the
            initiator→server one-way RTT (handshake round trips).
    """

    def __init__(
        self,
        sim: Simulator,
        fleet: ServerFleet,
        participant_locations: Sequence[GeoPoint],
        initiator_location: GeoPoint,
        current_server: Server,
        relay_packets: Callable[[], int],
        activate: Callable[[Server], Callable[[], int]],
        is_down: Callable[[str], bool] = lambda _address: False,
        backoff: Optional[BackoffPolicy] = None,
        heartbeat_s: float = 0.25,
        outage_timeout_s: float = 0.75,
        connect_rtt_multiplier: float = 1.5,
    ) -> None:
        positive(heartbeat_s, "heartbeat_s")
        positive(outage_timeout_s, "outage_timeout_s")
        self.sim = sim
        self.fleet = fleet
        self.participant_locations = list(participant_locations)
        self.initiator_location = initiator_location
        self.current_server = current_server
        self._relay_packets = relay_packets
        self._activate = activate
        self._is_down = is_down
        self.backoff = backoff or BackoffPolicy()
        self.heartbeat_s = heartbeat_s
        self.outage_timeout_s = outage_timeout_s
        self.connect_rtt_multiplier = connect_rtt_multiplier
        self.events: List[ReconnectEvent] = []
        self._reconnecting = False
        self._last_count = 0
        self._last_progress_s = 0.0

    @property
    def reconnects(self) -> int:
        """Outages detected so far."""
        return len(self.events)

    # ------------------------------------------------------------------
    # Detection
    # ------------------------------------------------------------------

    def arm(self, until: Optional[float] = None) -> None:
        """Start the heartbeat monitor."""
        self._last_count = self._relay_packets()
        self._last_progress_s = self.sim.now
        self.sim.schedule_every(self.heartbeat_s, self._heartbeat, until=until)

    def _heartbeat(self) -> None:
        if self._reconnecting:
            return
        count = self._relay_packets()
        if count != self._last_count:
            self._last_count = count
            self._last_progress_s = self.sim.now
            return
        if self.sim.now - self._last_progress_s >= self.outage_timeout_s:
            self._on_outage()

    def _on_outage(self) -> None:
        self._reconnecting = True
        self.events.append(ReconnectEvent(
            detected_s=self.sim.now,
            from_server=self.current_server.label,
        ))
        self._attempt(0)

    # ------------------------------------------------------------------
    # The reconnect loop
    # ------------------------------------------------------------------

    def _connect_delay_s(self, server: Server) -> float:
        rtt_ms = self.fleet.path_model.base_rtt_ms(
            self.initiator_location, server.location
        )
        return self.connect_rtt_multiplier * rtt_ms / 1000.0

    def _candidates(self) -> List[Server]:
        healthy = rank_failover_servers(
            self.fleet, self.participant_locations,
            exclude=[
                s.address for s in self.fleet.servers
                if self._is_down(s.address)
            ],
        )
        return healthy

    def _attempt(self, attempt: int) -> None:
        event = self.events[-1]
        event.attempts = attempt + 1
        candidates = self._candidates()
        if not candidates:
            # Every server is dark; keep retrying until one returns.
            self.sim.schedule(self.backoff.delay_s(attempt),
                              lambda: self._attempt(attempt + 1))
            return
        chosen = candidates[0]
        self.sim.schedule(
            self._connect_delay_s(chosen),
            lambda: self._finish_connect(chosen, attempt),
        )

    def _finish_connect(self, chosen: Server, attempt: int) -> None:
        if self._is_down(chosen.address):
            # Died while we were connecting; back off and re-rank.
            self.sim.schedule(self.backoff.delay_s(attempt),
                              lambda: self._attempt(attempt + 1))
            return
        self._relay_packets = self._activate(chosen)
        self.current_server = chosen
        event = self.events[-1]
        event.recovered_s = self.sim.now
        event.to_server = chosen.label
        self._reconnecting = False
        self._last_count = self._relay_packets()
        self._last_progress_s = self.sim.now
