"""Realizes a :class:`~repro.faults.schedule.FaultSchedule` on a live run.

The injector owns the mapping from schedule targets (participant user-ids,
the ``@server`` pseudo-target) to network attachments, schedules an
apply/revert pair per fault event, and — because faults overlap — derives
each attachment's installed :class:`~repro.netsim.network.LinkFault` and AP
rate factor from the *set* of currently active events, recomputed on every
edge.

Server outages resolve the ``@server`` pseudo-target against the session's
*current* relay at onset time (after a failover the new relay is a
different address), blackout that attachment, and revoke its in-flight
deliveries via the simulator's cancellable handles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from repro.netsim.batch import LaneSimulator
from repro.netsim.engine import Simulator
from repro.netsim.network import LinkFault, Network
from repro.obs import metrics as obs_metrics
from repro.faults.schedule import (
    SERVER_TARGET,
    FaultEvent,
    FaultKind,
    FaultSchedule,
)

#: Loss and jitter a WiFi degradation adds on top of its rate factor:
#: a struggling radio retransmits (jitter) and still loses frames.
WIFI_DEGRADATION_LOSS = 0.02
WIFI_DEGRADATION_JITTER_MS = 8.0


def combine_impairment(
    active: "List[FaultEvent]",
) -> "tuple[bool, float, float, float]":
    """``(blackout, loss, jitter_ms, rate_factor)`` of a set of active events.

    Module-level for the same reason ``schedule_periodic`` is: the scalar
    :class:`FaultInjector` and the batch
    :class:`~repro.faults.cohort.CohortInjector` paths must run the *same*
    combination arithmetic, so a fault applied through either engine
    installs a bit-identical impairment.
    """
    blackout = False
    pass_prob = 1.0
    jitter_ms = 0.0
    rate_factor = 1.0
    for event in active:
        if event.kind in (FaultKind.LINK_BLACKOUT, FaultKind.SERVER_OUTAGE):
            blackout = True
        elif event.kind is FaultKind.LOSS_BURST:
            pass_prob *= 1.0 - event.magnitude
        elif event.kind is FaultKind.JITTER_BURST:
            jitter_ms += event.magnitude
        elif event.kind is FaultKind.BANDWIDTH_COLLAPSE:
            rate_factor = min(rate_factor, event.magnitude)
        elif event.kind is FaultKind.WIFI_DEGRADATION:
            rate_factor = min(rate_factor, event.magnitude)
            pass_prob *= 1.0 - WIFI_DEGRADATION_LOSS
            jitter_ms += WIFI_DEGRADATION_JITTER_MS
    return blackout, 1.0 - pass_prob, jitter_ms, rate_factor


@dataclass
class FaultLogEntry:
    """One line of the injector's timeline (for traces and tests)."""

    time_s: float
    action: str          # "apply" | "revert" | "skip"
    event: FaultEvent
    address: Optional[str] = None


@dataclass
class _TargetState:
    """Active events pinned to one resolved address."""

    address: str
    active: List[FaultEvent] = field(default_factory=list)


class FaultInjector:
    """Wires a fault schedule into a running simulation.

    Args:
        sim: The session's event loop.
        network: The fabric whose attachments get impaired.
        schedule: What to inject.
        address_of: Maps a participant ``user_id`` to its address.
        server_address: Returns the *currently* selected relay address, or
            None for P2P sessions (server outages are then skipped).
        seed: Seeds the network's fault RNG (loss/jitter draws), derived
            from the session seed by the caller.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        schedule: FaultSchedule,
        address_of: Dict[str, str],
        server_address: Optional[Callable[[], Optional[str]]] = None,
        seed: int = 0,
    ) -> None:
        self.sim = sim
        self.network = network
        self.schedule = schedule
        self._address_of = dict(address_of)
        self._server_address = server_address or (lambda: None)
        self.log: List[FaultLogEntry] = []
        self._states: Dict[str, _TargetState] = {}
        self._down_addresses: Set[str] = set()
        network.seed_faults(seed)
        for user_id in schedule.targets():
            if user_id != SERVER_TARGET and user_id not in self._address_of:
                raise KeyError(
                    f"fault target {user_id!r} is not a session participant"
                )

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------

    def arm(self) -> None:
        """Schedule every event's apply/revert on the session's engine.

        On a batch lane the injector enrolls in the batch's
        :class:`~repro.faults.cohort.CohortInjector` instead, which arms
        every lane's events, grouped, when the batch starts running.
        """
        if isinstance(self.sim, LaneSimulator):
            from repro.faults.cohort import CohortInjector

            CohortInjector.of(self.sim.batch).enroll(self.sim, self)
            return
        for event in self.schedule:
            self.sim.schedule_at(event.start_s,
                                 lambda e=event: self.apply_event(e))

    # ------------------------------------------------------------------
    # Queries (used by reconnect logic and tests)
    # ------------------------------------------------------------------

    def is_down(self, address: str) -> bool:
        """Whether ``address`` is currently blacked out by any fault."""
        return address in self._down_addresses

    def active_events(self) -> List[FaultEvent]:
        """Every event currently applied."""
        return [e for s in self._states.values() for e in s.active]

    # ------------------------------------------------------------------
    # Apply / revert
    # ------------------------------------------------------------------

    def _resolve(self, event: FaultEvent) -> Optional[str]:
        if event.target == SERVER_TARGET:
            return self._server_address()
        return self._address_of[event.target]

    def apply_event(self, event: FaultEvent, *,
                    schedule_revert: bool = True) -> Optional[str]:
        """Apply one event now; returns the resolved address (None = skip).

        With ``schedule_revert`` (the scalar path) the matching revert is
        scheduled on ``sim`` at ``event.end_s``; the cohort injector passes
        ``False`` and schedules one shared revert for the whole lane group.
        """
        address = self._resolve(event)
        if address is None:
            # P2P session: there is no server to take down.
            self.log.append(FaultLogEntry(self.sim.now, "skip", event))
            obs_metrics.counter("faults.skipped").inc()
            return None
        state = self._states.setdefault(address, _TargetState(address))
        state.active.append(event)
        self._recompute(state)
        self.log.append(FaultLogEntry(self.sim.now, "apply", event, address))
        obs_metrics.counter("faults.applied").inc()
        obs_metrics.counter(
            f"faults.applied.{event.kind.name.lower()}"
        ).inc()
        if schedule_revert:
            # The revert is pinned to the address resolved at onset: a
            # server outage keeps afflicting the *old* relay even after a
            # failover.
            self.sim.schedule_at(event.end_s,
                                 lambda: self.revert_event(event, address))
        return address

    def revert_event(self, event: FaultEvent, address: str) -> None:
        """Revert one applied event from its onset-resolved address."""
        state = self._states.get(address)
        if state is None or event not in state.active:
            return
        state.active.remove(event)
        self._recompute(state)
        self.log.append(FaultLogEntry(self.sim.now, "revert", event, address))
        obs_metrics.counter("faults.reverted").inc()

    def _recompute(self, state: _TargetState) -> None:
        """Re-derive the combined impairment of one attachment."""
        blackout, loss, jitter_ms, rate_factor = combine_impairment(
            state.active)
        if blackout or loss > 0.0 or jitter_ms > 0.0:
            previous = self.network.fault_of(state.address)
            fault = LinkFault(blackout=blackout, loss=loss, jitter_ms=jitter_ms)
            if previous is not None:
                fault.packets_dropped = previous.packets_dropped
            self.network.set_fault(state.address, fault)
        else:
            self.network.set_fault(state.address, None)

        ap = self.network.ap_of(state.address)
        if rate_factor < 1.0:
            ap.degrade(rate_factor)
        elif ap.degradation != 1.0:
            ap.restore()

        if blackout:
            self._down_addresses.add(state.address)
            # Revoke deliveries already crossing the core toward the
            # blacked-out attachment — the handle-cancellation path.
            self.network.drop_inflight(state.address)
        else:
            self._down_addresses.discard(state.address)
