"""Per-VCA server fleets and the initiator-nearest selection policy.

Sec. 4.1 of the paper finds that FaceTime, Zoom, Webex, and Teams operate
four, two, three, and one server(s) in the US respectively, that none of them
uses anycast, and that every platform assigns the server closest to the user
who *initiates* the session, regardless of where the other participants are.

The server locations below are representative of the regions the paper
geolocates the servers to (W / M / E columns of Table 1); see DESIGN.md for
the residuals this induces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import calibration
from repro.checks import at_least
from repro.geo.coords import GeoPoint
from repro.geo.latency import PathModel
from repro.geo.regions import Region


@dataclass(frozen=True)
class Server:
    """A relay (SFU) server operated by a VCA provider.

    Attributes:
        vca: Provider name ("FaceTime", "Zoom", "Webex", "Teams").
        label: Column label used by Table 1 (e.g. "M1").
        location: Geographic placement of the server.
        address: Synthetic IPv4 address, unique per server, used by the
            network simulator and by the geolocation database.
    """

    vca: str
    label: str
    location: GeoPoint
    address: str

    @property
    def region(self) -> Region:
        """Region code derived from the Table 1 column label."""
        return Region.from_code(self.label.rstrip("0123456789"))


@dataclass
class ServerFleet:
    """All US servers of one provider plus the selection policy.

    The default policy is the one the paper reverse-engineers: pick the
    server nearest to the session initiator.  The ``geo_distributed``
    alternative (each client attaches to its nearest server, servers are
    interconnected by a private backbone) implements the remedy the paper
    proposes, and is exercised by the A2 ablation.
    """

    vca: str
    servers: List[Server]
    #: Every fleet owns an independent model: ``seed()``-ing one fleet's
    #: jitter stream must never reseed another's (the old shared
    #: ``DEFAULT_PATH_MODEL`` default did exactly that).
    path_model: PathModel = field(default_factory=PathModel)

    def __post_init__(self) -> None:
        if not self.servers:
            raise ValueError("a fleet needs at least one server")
        labels = [s.label for s in self.servers]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate server labels in {self.vca} fleet: {labels}")

    def by_label(self, label: str) -> Server:
        """Look up a server by its Table 1 column label."""
        for server in self.servers:
            if server.label == label:
                return server
        raise KeyError(f"{self.vca} has no server labeled {label!r}")

    def nearest(self, point: GeoPoint) -> Server:
        """The server geographically nearest to ``point``."""
        return min(self.servers, key=lambda s: s.location.distance_km(point))

    def select_for_session(self, initiator: GeoPoint,
                           participants: Sequence[GeoPoint]) -> Server:
        """Initiator-nearest policy observed by the paper (Sec. 4.1).

        ``participants`` is accepted (and ignored) to make the policy's
        blind spot explicit: the locations of the other users never
        influence the choice.
        """
        del participants
        return self.nearest(initiator)

    def geo_distributed_attachments(
        self, participants: Sequence[GeoPoint]
    ) -> Dict[GeoPoint, Server]:
        """Each client attaches to its own nearest server (ablation A2)."""
        return {p: self.nearest(p) for p in participants}

    def worst_client_rtt_ms(self, initiator: GeoPoint,
                            participants: Sequence[GeoPoint]) -> float:
        """Worst client-to-selected-server RTT under the observed policy."""
        server = self.select_for_session(initiator, participants)
        return max(
            self.path_model.base_rtt_ms(p, server.location) for p in participants
        )

    def worst_pair_rtt_ms(self, initiator: GeoPoint,
                          participants: Sequence[GeoPoint]) -> float:
        """Worst client-to-client RTT via the initiator-nearest server.

        Media from ``a`` reaches ``b`` as ``a -> S -> b`` where ``S`` is
        the single selected relay.
        """
        server = self.select_for_session(initiator, participants)
        worst = 0.0
        for i, a in enumerate(participants):
            for b in participants[i + 1:]:
                rtt = (
                    self.path_model.base_rtt_ms(a, server.location)
                    + self.path_model.base_rtt_ms(server.location, b)
                )
                worst = max(worst, rtt)
        return worst

    def worst_pair_rtt_ms_geo_distributed(
        self,
        participants: Sequence[GeoPoint],
        backbone_speedup: float = 1.0,
    ) -> float:
        """Worst client-to-client RTT with per-client server attachment.

        Media from ``a`` reaches ``b`` as ``a -> S_a -> S_b -> b``; the
        inter-server leg runs on a private backbone whose path inflation
        is divided by ``backbone_speedup`` (>= 1), modeling the
        "high-speed private network" remedy of Sec. 4.1.
        """
        at_least(backbone_speedup, 1.0, "backbone_speedup")
        attach = self.geo_distributed_attachments(participants)
        worst = 0.0
        for i, a in enumerate(participants):
            for b in participants[i + 1:]:
                rtt = (
                    self.path_model.base_rtt_ms(a, attach[a].location)
                    + self.path_model.propagation_rtt_ms(
                        attach[a].location, attach[b].location
                    ) / backbone_speedup
                    + self.path_model.base_rtt_ms(attach[b].location, b)
                )
                worst = max(worst, rtt)
        return worst


def _srv(vca: str, label: str, name: str, lat: float, lon: float,
         address: str) -> Server:
    return Server(vca, label, GeoPoint(name, lat, lon), address)


#: Representative placements for the servers the paper geolocates (Sec. 4.1).
_FLEET_SPECS: Dict[str, List[Server]] = {
    "FaceTime": [
        _srv("FaceTime", "W", "San Francisco, CA", 37.7749, -122.4194, "17.100.0.1"),
        _srv("FaceTime", "M1", "Dallas, TX (DFW)", 32.8998, -97.0403, "17.100.0.2"),
        _srv("FaceTime", "M2", "Chicago, IL", 41.8781, -87.6298, "17.100.0.3"),
        _srv("FaceTime", "E", "Ashburn, VA", 39.0438, -77.4874, "17.100.0.4"),
    ],
    "Zoom": [
        _srv("Zoom", "W", "Los Angeles, CA", 34.0522, -118.2437, "170.114.0.1"),
        _srv("Zoom", "E", "Ashburn, VA", 39.0438, -77.4874, "170.114.0.2"),
    ],
    "Webex": [
        _srv("Webex", "W", "San Jose, CA", 37.3387, -121.8853, "66.114.160.1"),
        _srv("Webex", "M", "Richardson, TX", 32.9483, -96.7299, "66.114.160.2"),
        _srv("Webex", "E", "Ashburn, VA", 39.0438, -77.4874, "66.114.160.3"),
    ],
    "Teams": [
        _srv("Teams", "W", "Quincy, WA", 47.2343, -119.8526, "52.112.0.1"),
    ],
}

VCA_NAMES: Tuple[str, ...] = ("FaceTime", "Zoom", "Webex", "Teams")


def build_fleet(vca: str, path_model: Optional[PathModel] = None) -> ServerFleet:
    """Build the US server fleet of one provider.

    The server counts match Sec. 4.1 (FaceTime 4, Zoom 2, Webex 3, Teams 1).
    """
    if vca not in _FLEET_SPECS:
        raise KeyError(f"unknown VCA: {vca!r} (expected one of {VCA_NAMES})")
    servers = list(_FLEET_SPECS[vca])
    expected = calibration.SERVER_COUNTS[vca]
    if len(servers) != expected:
        raise AssertionError(
            f"{vca} fleet has {len(servers)} servers, paper reports {expected}"
        )
    return ServerFleet(vca, servers, path_model or PathModel())


#: Pre-built fleets for all four providers.
ALL_FLEETS: Dict[str, ServerFleet] = {name: build_fleet(name) for name in VCA_NAMES}


# ----------------------------------------------------------------------
# Fleet-scale robustness kernels (failover + QoE-aware load shedding)
# ----------------------------------------------------------------------


def failover_assignment(
    rtt_user_server: np.ndarray,
    assignment: np.ndarray,
    up: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Re-home every session whose server is down onto its nearest up server.

    One vectorized pass: down-server columns are masked to ``inf`` and the
    displaced rows take an ``argmin`` over what remains — the next-feasible
    server with the smallest RTT penalty, which the gauntlet then scores
    through the placement QoE objective.  Sessions already shed
    (``assignment == -1``) stay shed; if *no* server is up, displaced
    sessions are shed too.

    Args:
        rtt_user_server: ``(sessions, servers)`` RTT matrix (ms).
        assignment: Current server index per session (``-1`` = shed).
        up: ``(servers,)`` bool mask of servers currently alive.

    Returns:
        ``(new_assignment, moved)`` — the updated assignment and the bool
        mask of sessions that failed over (shedding counts as moved).
    """
    rtt = np.asarray(rtt_user_server, dtype=np.float64)
    assignment = np.asarray(assignment, dtype=np.int64).copy()
    up = np.asarray(up, dtype=bool)
    assigned = assignment >= 0
    displaced = assigned & ~up[np.where(assigned, assignment, 0)]
    moved = np.flatnonzero(displaced)
    if len(moved) == 0:
        return assignment, displaced
    if not up.any():
        assignment[moved] = -1
        return assignment, displaced
    masked = np.where(up[None, :], rtt[moved], np.inf)
    assignment[moved] = np.argmin(masked, axis=1)
    return assignment, displaced


def shed_overload(
    rtt_user_server: np.ndarray,
    assignment: np.ndarray,
    up: np.ndarray,
    capacity: np.ndarray,
    load: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Admission control: drain over-capacity servers, cheapest regret first.

    The QoE-aware twin of the load-aware placement policy's kernel: each
    over-capacity server ranks its sessions by the *QoE regret* of moving
    them — the drop in the placement delay factor between their current
    server and their best up alternative — and evicts the cheapest ones
    until it fits.  An evicted session moves to its alternative if that
    server has headroom (tracked greedily as moves land), and is **shed**
    (``assignment = -1``, QoE 0) when no feasible server can take it.

    Servers are drained in index order and ties broken by a stable sort,
    so the outcome is bit-reproducible across serial, pooled, and
    distributed gauntlet workers.

    Args:
        rtt_user_server: ``(sessions, servers)`` RTT matrix (ms).
        assignment: Server index per session (``-1`` = already shed).
        up: ``(servers,)`` bool mask of live servers.
        capacity: Per-server capacity in load units (scalar broadcasts).
        load: Per-session load (defaults to 1.0 each).

    Returns:
        ``(new_assignment, shed, moves)`` — updated assignment, the bool
        mask of sessions shed *by this call*, and the number of sessions
        relocated to an alternative server instead.
    """
    rtt = np.asarray(rtt_user_server, dtype=np.float64)
    assignment = np.asarray(assignment, dtype=np.int64).copy()
    up = np.asarray(up, dtype=bool)
    n_sessions, n_servers = rtt.shape
    capacity = np.broadcast_to(
        np.asarray(capacity, dtype=np.float64), (n_servers,)).copy()
    if load is None:
        load = np.ones(n_sessions)
    load = np.asarray(load, dtype=np.float64)

    # Lazy: geo.servers sits below vca.session in the import graph
    # (vca.session -> faults.resilient -> geo.servers); a module-level
    # import of vca.qoe would close the cycle through vca.__init__.
    from repro.vca.qoe import delay_factor_arrays

    occupancy = np.bincount(
        assignment[assignment >= 0],
        weights=load[assignment >= 0],
        minlength=n_servers,
    )
    shed = np.zeros(n_sessions, dtype=bool)
    moves = 0
    for server in range(n_servers):
        # A down server admits nothing: it drains completely.
        cap_here = capacity[server] if up[server] else 0.0
        if occupancy[server] <= cap_here:
            continue
        members = np.flatnonzero(assignment == server)
        if len(members) == 0:
            continue
        # Best up alternative per member, current server excluded.
        alt_mask = up.copy()
        alt_mask[server] = False
        if alt_mask.any():
            masked = np.where(alt_mask[None, :], rtt[members], np.inf)
            alt = np.argmin(masked, axis=1)
            alt_rtt = masked[np.arange(len(members)), alt]
        else:
            alt = np.full(len(members), -1)
            alt_rtt = np.full(len(members), np.inf)
        here = delay_factor_arrays(rtt[members, server] / 2.0)
        there = np.where(np.isfinite(alt_rtt),
                         delay_factor_arrays(alt_rtt / 2.0), 0.0)
        regret = here - there
        order = np.argsort(regret, kind="stable")
        for position in order:
            if occupancy[server] <= cap_here:
                break
            session = int(members[position])
            target = int(alt[position])
            occupancy[server] -= load[session]
            if (target >= 0 and np.isfinite(alt_rtt[position])
                    and occupancy[target] + load[session]
                    <= capacity[target]):
                assignment[session] = target
                occupancy[target] += load[session]
                moves += 1
            else:
                assignment[session] = -1
                shed[session] = True
    return assignment, shed, moves
