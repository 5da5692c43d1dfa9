"""The experimental testbed of Fig. 3, as a reusable object.

U1 always wears a Vision Pro; U2 (and any further users) join on a chosen
device.  Each user sits behind their own WiFi AP, Wireshark runs at the
APs a session names (``captures=``), and ``tc`` can shape either user's
access link — all of which the :class:`Testbed` assembles for any of the
four VCA profiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.checks import at_least
from repro.devices.models import Device, VisionPro
from repro.geo.coords import GeoPoint
from repro.geo.latency import PathModel
from repro.geo.regions import city
from repro.vca.profiles import VcaProfile
from repro.vca.session import Participant, TelepresenceSession


@dataclass
class Testbed:
    """A set of users and the factory for sessions between them.

    Attributes:
        participants: Users in join order (first = default initiator).
        path_model: Optional custom wide-area model.
    """

    participants: List[Participant]
    path_model: Optional[PathModel] = None

    def __post_init__(self) -> None:
        if len(self.participants) < 2:
            raise ValueError("a testbed needs at least two users")
        ids = [p.user_id for p in self.participants]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate user ids: {ids}")

    def session(self, profile: VcaProfile, seed: int = 0,
                initiator_index: int = 0, faults=None,
                resilience=None, sim=None,
                captures: Sequence[str] = ()) -> TelepresenceSession:
        """Create (but do not run) a session on this testbed.

        ``faults`` / ``resilience`` pass through to
        :class:`~repro.vca.session.TelepresenceSession` and enable the
        fault-injection + resilience runtime.  ``sim`` injects an
        externally owned engine (e.g. one lane of a
        :class:`~repro.netsim.batch.BatchSimulator`).  ``captures`` names
        the users whose AP runs a capture (none by default).
        """
        return TelepresenceSession(
            profile,
            self.participants,
            initiator_index=initiator_index,
            seed=seed,
            path_model=self.path_model,
            faults=faults,
            resilience=resilience,
            sim=sim,
            captures=captures,
        )

    @property
    def devices(self) -> List[Device]:
        """Devices in join order."""
        return [p.device for p in self.participants]


def default_two_user_testbed(
    u2_device: Optional[Device] = None,
    u1_city: str = "san jose",
    u2_city: str = "dallas",
) -> Testbed:
    """The paper's default setup: U1 on Vision Pro, U2 configurable."""
    return Testbed([
        Participant("U1", VisionPro(), city(u1_city)),
        Participant("U2", u2_device or VisionPro(), city(u2_city)),
    ])


def multi_user_testbed(
    n_users: int,
    device_factory: Callable[[], Device] = VisionPro,
    cities: Optional[Sequence[str]] = None,
) -> Testbed:
    """``n_users`` participants, all on ``device_factory()`` devices.

    Used by the scalability experiments (Sec. 4.5): up to five Vision Pro
    users spread over the catalog cities.
    """
    at_least(n_users, 2, "n_users")
    default_cities = ["san jose", "dallas", "washington", "chicago", "seattle"]
    chosen = list(cities) if cities is not None else default_cities
    if len(chosen) < n_users:
        raise ValueError(f"need {n_users} cities, got {len(chosen)}")
    return Testbed([
        Participant(f"U{i + 1}", device_factory(), city(chosen[i]))
        for i in range(n_users)
    ])
