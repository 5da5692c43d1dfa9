"""Mid-session dynamics: participants joining and leaving.

The paper's sessions have fixed membership, but its Fig. 6(c) mechanism —
the SFU forwards every active stream to every other participant — implies
each join/leave moves every client's downlink by one stream's worth.
:class:`DynamicSession` schedules joins and leaves on the simulated
testbed and exposes the per-window downlink so the steps are measurable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import calibration
from repro.checks import positive
from repro.geo.regions import city
from repro.netsim.capture import Direction, PacketCapture
from repro.netsim.engine import Simulator
from repro.netsim.network import Network
from repro.netsim.node import Host
from repro.netsim.sfu import SelectiveForwardingUnit
from repro.geo.servers import build_fleet
from repro.vca.media import MEDIA_PORT, SemanticSource
from repro.vca.profiles import VcaProfile


@dataclass(frozen=True)
class MembershipEvent:
    """One scheduled join or leave."""

    time_s: float
    user_id: str
    join: bool


@dataclass
class DynamicSessionResult:
    """Capture + event log of a dynamic session."""

    observer_capture: PacketCapture
    events: List[MembershipEvent]
    duration_s: float

    def downlink_mbps_between(self, start_s: float, end_s: float) -> float:
        """Observer downlink throughput over [start, end)."""
        if end_s <= start_s:
            raise ValueError("empty interval")
        times, wire = self.observer_capture.series(Direction.DOWNLINK)
        total = int(wire[(start_s <= times) & (times < end_s)].sum())
        return total * 8.0 / (end_s - start_s) / 1e6


class DynamicSession:
    """A spatial FaceTime session whose membership changes over time.

    The observer (``U1``) stays for the whole session; other participants
    join and leave per the schedule.  The paper's five-spatial-persona cap
    is enforced at every instant.

    Args:
        profile: Must support spatial personas (FaceTime).
        schedule: (time_s, user_id, join) triples; users must join before
            they leave and the observer cannot leave.
        seed: Media seed.
    """

    OBSERVER = "U1"
    _CITIES = ("san jose", "dallas", "washington", "chicago", "seattle",
               "new york", "miami", "kansas city")

    def __init__(self, profile: VcaProfile,
                 schedule: Sequence[Tuple[float, str, bool]],
                 seed: int = 0) -> None:
        if not profile.supports_spatial:
            raise ValueError("dynamic sessions model spatial FaceTime calls")
        self.profile = profile
        self.seed = seed
        self.events = [MembershipEvent(*e) for e in schedule]
        self.events.sort(key=lambda e: e.time_s)
        self._validate_schedule()
        self.sim = Simulator()
        self.network = Network(self.sim)
        self.secret = hashlib.sha256(f"dyn-{seed}".encode()).digest()
        self._hosts: Dict[str, Host] = {}
        self._build()

    def _validate_schedule(self) -> None:
        active = {self.OBSERVER}
        for event in self.events:
            if event.user_id == self.OBSERVER:
                raise ValueError("the observer cannot join or leave")
            if event.join:
                if event.user_id in active:
                    raise ValueError(f"{event.user_id} joined twice")
                active.add(event.user_id)
            else:
                if event.user_id not in active:
                    raise ValueError(f"{event.user_id} left before joining")
                active.discard(event.user_id)
            if len(active) > calibration.MAX_SPATIAL_PERSONAS:
                raise ValueError(
                    "schedule exceeds the five-spatial-persona cap"
                )

    def _build(self) -> None:
        user_ids = [self.OBSERVER] + sorted(
            {e.user_id for e in self.events}
        )
        if len(user_ids) > len(self._CITIES):
            raise ValueError("too many distinct users for the city pool")
        fleet = build_fleet(self.profile.name, self.network.path_model)
        observer_city = city(self._CITIES[0])
        server = fleet.nearest(observer_city)
        self.sfu = SelectiveForwardingUnit(
            server.address, server.location, name="dynamic-sfu"
        )
        self.network.attach(self.sfu)
        for index, user_id in enumerate(user_ids):
            host = Host(f"10.1.{index}.2", city(self._CITIES[index]),
                        name=user_id)
            self.network.attach(host)
            host.bind(MEDIA_PORT, lambda p: None)
            self._hosts[user_id] = host
        self.capture = self.network.start_capture(
            self._hosts[self.OBSERVER].address
        )

    def _activate(self, user_id: str, start_s: float,
                  until_s: Optional[float]) -> None:
        host = self._hosts[user_id]
        self.sfu.register(host.address, MEDIA_PORT)
        # sha256, not hash(): str hashing is salted per process, which
        # would change media payloads between runs (PYTHONHASHSEED).
        user_tag = int.from_bytes(
            hashlib.sha256(user_id.encode()).digest()[:4], "little"
        )
        source = SemanticSource(
            self.secret, seed=self.seed * 100 + user_tag % 97
        )
        source.attach(
            self.sim, host, self.sfu.address,
            SelectiveForwardingUnit.MEDIA_PORT, until=until_s,
        )
        del start_s  # sources are attached at activation time

    def run(self, duration_s: float) -> DynamicSessionResult:
        """Run the scheduled session."""
        positive(duration_s, "duration_s")
        # The observer streams for the entire session.
        self._activate(self.OBSERVER, 0.0, duration_s)
        leave_times = {
            e.user_id: e.time_s for e in self.events if not e.join
        }
        for event in self.events:
            if event.join:
                until = leave_times.get(event.user_id, duration_s)
                self.sim.schedule_at(
                    event.time_s,
                    lambda uid=event.user_id, t=event.time_s, u=until:
                        self._activate(uid, t, u),
                )
            else:
                self.sim.schedule_at(
                    event.time_s,
                    lambda uid=event.user_id: self.sfu.unregister(
                        self._hosts[uid].address
                    ),
                )
        self.sim.run(until=duration_s)
        return DynamicSessionResult(self.capture, self.events, duration_s)
