"""Server placement optimization: how good are the observed fleets?

Sec. 4.1 measures where the four providers put their US relays and what
RTTs result.  A natural follow-up the paper leaves open: are those
placements any good for the user population, and how much would more (or
better-placed) servers help?  This module answers with the classic
k-median machinery: greedy placement plus local-exchange refinement over
a candidate grid, scored by (demand-weighted) mean client-to-nearest-
server RTT.

Since the planet-scale placement studies the machinery is fully
vectorized: scores come from the RTT-matrix kernel in
:mod:`repro.geo.latency` (bit-identical to the scalar path model),
clients carry optional demand weights, candidate grids span the globe,
and site scoring is chunked so the optimizer handles thousands of
candidate sites against millions of sampled users in bounded memory.
Per-round telemetry lands in the :mod:`repro.obs.metrics` registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.checks import at_least, positive
from repro.geo.coords import GeoPoint, latlon_arrays
from repro.geo.latency import PathModel, DEFAULT_PATH_MODEL
from repro.geo.regions import all_clients
from repro.geo.servers import Server, ServerFleet
from repro.obs import metrics as obs_metrics

#: Candidate placement sites: a coarse grid over the continental US.
_US_LAT = np.arange(26.0, 49.0, 2.0)
_US_LON = np.arange(-124.0, -68.0, 2.5)

#: Maximum float64 entries a site-scoring chunk may hold (~64 MB); the
#: optimizer never materializes more than one chunk of the site x client
#: RTT matrix at a time.
_CHUNK_BUDGET = 8_000_000


def candidate_sites() -> List[GeoPoint]:
    """The candidate grid (continental-US lattice points)."""
    return [
        GeoPoint(f"site-{lat:.0f}-{lon:.0f}", float(lat), float(lon))
        for lat in _US_LAT for lon in _US_LON
    ]


def global_candidate_sites(step_deg: float = 4.0) -> List[GeoPoint]:
    """A planet-spanning candidate lattice (inhabited latitudes).

    Covers 60S..70N at ``step_deg`` resolution — ~3k sites at the 4
    degree default, the "thousands of candidate sites" regime the
    vectorized optimizer is built for.  Ocean points are legal candidate
    sites (the optimizer simply never picks one when land demand exists
    nearby is cheaper); filtering real submarine-cable feasibility is out
    of scope.
    """
    positive(step_deg, "step_deg")
    lats = np.arange(-60.0, 70.0 + 1e-9, step_deg)
    lons = np.arange(-180.0, 180.0 - 1e-9, step_deg)
    return [
        GeoPoint(f"gsite-{lat:.0f}-{lon:.0f}", float(lat), float(lon))
        for lat in lats for lon in lons
    ]


def _client_weights(n: int, weights: Optional[Sequence[float]]) -> np.ndarray:
    """Normalized demand weights (uniform when omitted)."""
    if weights is None:
        return np.full(n, 1.0 / n)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise ValueError(f"weights shape {w.shape} != ({n},)")
    if np.any(w < 0) or not np.any(w > 0):
        raise ValueError("weights must be non-negative with positive sum")
    return w / w.sum()


def mean_rtt_ms(servers: Sequence[GeoPoint],
                clients: Sequence[GeoPoint],
                model: Optional[PathModel] = None,
                weights: Optional[Sequence[float]] = None) -> float:
    """(Weighted) mean client-to-nearest-server RTT for a placement.

    Raises:
        ValueError: With no servers or no clients, or malformed weights.
    """
    if len(servers) == 0 or len(clients) == 0:
        raise ValueError("need at least one server and one client")
    model = model or DEFAULT_PATH_MODEL
    w = _client_weights(len(clients), weights)
    c_lat, c_lon = latlon_arrays(clients)
    s_lat, s_lon = latlon_arrays(servers)
    nearest = _nearest_rtt(model, c_lat, c_lon, s_lat, s_lon)
    return float(nearest @ w)


def _nearest_rtt(model: PathModel, c_lat: np.ndarray, c_lon: np.ndarray,
                 s_lat: np.ndarray, s_lon: np.ndarray) -> np.ndarray:
    """Per-client RTT to its nearest server, chunked over clients."""
    n = len(c_lat)
    step = max(1, _CHUNK_BUDGET // max(1, len(s_lat)))
    nearest = np.empty(n)
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        block = model.base_rtt_ms_arrays(
            c_lat[lo:hi, None], c_lon[lo:hi, None],
            s_lat[None, :], s_lon[None, :],
        )
        nearest[lo:hi] = block.min(axis=1)
    return nearest


def rank_failover_servers(
    fleet: ServerFleet,
    participants: Sequence[GeoPoint],
    exclude: Sequence[str] = (),
) -> List[Server]:
    """Failover preference order for a session's relay.

    Healthy fleet servers (addresses not in ``exclude``) sorted by mean
    RTT to the session's participants — the placement-aware analog of the
    initiator-nearest policy, used when the selected relay goes dark.
    Ties break by server label for determinism.

    Raises:
        ValueError: With no participants.
    """
    if not participants:
        raise ValueError("need at least one participant")
    excluded = set(exclude)
    candidates = [s for s in fleet.servers if s.address not in excluded]

    def mean_rtt(server: Server) -> float:
        return sum(
            fleet.path_model.base_rtt_ms(p, server.location)
            for p in participants
        ) / len(participants)

    return sorted(candidates, key=lambda s: (mean_rtt(s), s.label))


@dataclass(frozen=True)
class PlacementResult:
    """An optimized placement and its score."""

    servers: List[GeoPoint]
    mean_rtt_ms: float
    #: Greedy rounds + exchange passes actually executed.
    rounds: int = 0
    #: Accepted local-exchange swaps (0 means greedy was locally optimal).
    exchange_swaps: int = 0


class _SiteScorer:
    """Chunked scorer: best achievable weighted-mean RTT per candidate.

    Holds the site x client RTT matrix when it fits the chunk budget,
    otherwise recomputes chunks on every pass — constant memory either
    way, identical results.
    """

    def __init__(self, model: PathModel, sites: Sequence[GeoPoint],
                 c_lat: np.ndarray, c_lon: np.ndarray, w: np.ndarray) -> None:
        self.model = model
        self.s_lat, self.s_lon = latlon_arrays(sites)
        self.c_lat, self.c_lon = c_lat, c_lon
        self.w = w
        self.n_sites = len(sites)
        self.n_clients = len(c_lat)
        self.step = max(1, _CHUNK_BUDGET // max(1, self.n_clients))
        self._cache: Optional[np.ndarray] = None
        if self.n_sites * self.n_clients <= _CHUNK_BUDGET:
            self._cache = self._compute(0, self.n_sites)

    def _compute(self, lo: int, hi: int) -> np.ndarray:
        return self.model.base_rtt_ms_arrays(
            self.s_lat[lo:hi, None], self.s_lon[lo:hi, None],
            self.c_lat[None, :], self.c_lon[None, :],
        )

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """RTT rows for sites ``lo:hi`` (clients along axis 1)."""
        if self._cache is not None:
            return self._cache[lo:hi]
        return self._compute(lo, hi)

    def row(self, index: int) -> np.ndarray:
        return self.rows(index, index + 1)[0]

    def best_site(self, baseline: np.ndarray,
                  banned: np.ndarray) -> Tuple[int, float]:
        """The candidate whose addition most lowers the weighted mean.

        ``baseline`` is each client's current best RTT; ``banned`` masks
        sites already chosen.  Ties resolve to the lowest site index, so
        the search is deterministic.
        """
        best_index, best_score = -1, np.inf
        for lo in range(0, self.n_sites, self.step):
            hi = min(self.n_sites, lo + self.step)
            scores = np.minimum(self.rows(lo, hi), baseline[None, :]) @ self.w
            scores[banned[lo:hi]] = np.inf
            local = int(np.argmin(scores))
            if scores[local] < best_score:
                best_index, best_score = lo + local, float(scores[local])
        return best_index, best_score


def optimize_placement(
    k: int,
    clients: Optional[Sequence[GeoPoint]] = None,
    model: Optional[PathModel] = None,
    exchange_rounds: int = 2,
    *,
    weights: Optional[Sequence[float]] = None,
    sites: Optional[Sequence[GeoPoint]] = None,
) -> PlacementResult:
    """Greedy + local-exchange k-median over a candidate grid.

    Fully vectorized: greedy rounds and exchange passes score every
    candidate site with the RTT-matrix kernel (chunked to bounded
    memory), so thousands of sites against millions of weighted demand
    points stay tractable.  Results are deterministic — ties always
    resolve to the lowest candidate index.

    Args:
        k: Number of servers to place.
        clients: Demand points (default: the paper's eight vantage cities).
        model: RTT model.
        exchange_rounds: Passes of single-site exchange refinement.
        weights: Optional per-client demand weights (normalized
            internally; uniform when omitted).
        sites: Candidate sites (default: the continental-US lattice; pass
            :func:`global_candidate_sites` for planetary searches).

    Raises:
        ValueError: For non-positive ``k``, an empty candidate/client set,
            or malformed weights.
    """
    at_least(k, 1, "k")
    clients = list(clients) if clients is not None else all_clients()
    if not clients:
        raise ValueError("need at least one client")
    model = model or DEFAULT_PATH_MODEL
    site_list = list(sites) if sites is not None else candidate_sites()
    if len(site_list) < k:
        raise ValueError(f"need at least k={k} candidate sites, "
                         f"got {len(site_list)}")

    w = _client_weights(len(clients), weights)
    c_lat, c_lon = latlon_arrays(clients)
    scorer = _SiteScorer(model, site_list, c_lat, c_lon, w)

    rounds = obs_metrics.counter("geo.placement.rounds")
    swaps_counter = obs_metrics.counter("geo.placement.exchange_swaps")
    round_rtt = obs_metrics.histogram("geo.placement.round_mean_rtt_ms")

    chosen: List[int] = []
    banned = np.zeros(len(site_list), dtype=bool)
    baseline = np.full(len(clients), np.inf)
    total_rounds = 0
    for _ in range(k):  # greedy additions
        index, score = scorer.best_site(baseline, banned)
        assert index >= 0
        chosen.append(index)
        banned[index] = True
        baseline = np.minimum(baseline, scorer.row(index))
        total_rounds += 1
        rounds.inc()
        round_rtt.observe(score)

    current = float(baseline @ w)
    swaps = 0
    for _ in range(exchange_rounds):  # local exchange
        improved = False
        # Assignment structure: per client, best and second-best RTT
        # among the chosen sites, and which chosen slot is best.
        chosen_rows = np.stack([scorer.row(i) for i in chosen])
        order = np.argsort(chosen_rows, axis=0, kind="stable")
        best_slot = order[0]
        best_val = np.take_along_axis(chosen_rows, order[:1], axis=0)[0]
        second_val = (
            np.take_along_axis(chosen_rows, order[1:2], axis=0)[0]
            if len(chosen) > 1 else np.full(len(clients), np.inf)
        )
        for slot in range(len(chosen)):
            # Clients served by `slot` fall back to their second choice
            # when it is removed; everyone else keeps their best.
            without = np.where(best_slot == slot, second_val, best_val)
            index, score = scorer.best_site(without, banned)
            if index >= 0 and score < current - 1e-9:
                banned[chosen[slot]] = False
                banned[index] = True
                chosen[slot] = index
                current = score
                improved = True
                swaps += 1
                swaps_counter.inc()
                round_rtt.observe(score)
                # Refresh the assignment structure for subsequent slots.
                chosen_rows = np.stack([scorer.row(i) for i in chosen])
                order = np.argsort(chosen_rows, axis=0, kind="stable")
                best_slot = order[0]
                best_val = np.take_along_axis(chosen_rows, order[:1],
                                              axis=0)[0]
                second_val = (
                    np.take_along_axis(chosen_rows, order[1:2], axis=0)[0]
                    if len(chosen) > 1
                    else np.full(len(clients), np.inf)
                )
        total_rounds += 1
        rounds.inc()
        if not improved:
            break

    placed = [site_list[i] for i in chosen]
    final = mean_rtt_ms(placed, clients, model, weights=weights)
    obs_metrics.gauge("geo.placement.final_mean_rtt_ms").set(final)
    return PlacementResult(placed, final, rounds=total_rounds,
                           exchange_swaps=swaps)


@dataclass(frozen=True)
class FleetAssessment:
    """Observed fleet vs the optimizer's placement at the same k."""

    vca: str
    observed_mean_rtt_ms: float
    optimal_mean_rtt_ms: float
    #: True when the observed fleet beat every candidate-grid placement —
    #: the optimizer's "optimum" was limited by its coarse grid, so the
    #: efficiency below is clamped rather than reported above 1.0.
    grid_limited: bool = False

    @property
    def efficiency(self) -> float:
        """optimal / observed, clamped to 1.0 — 1.0 means the fleet is as
        good as (or better than) the best candidate-grid placement."""
        if self.observed_mean_rtt_ms <= 0:
            return 1.0
        return min(1.0, self.optimal_mean_rtt_ms / self.observed_mean_rtt_ms)


def assess_fleet(fleet: ServerFleet,
                 clients: Optional[Sequence[GeoPoint]] = None
                 ) -> FleetAssessment:
    """Score one provider's observed placement against the optimum."""
    clients = list(clients) if clients is not None else all_clients()
    observed = mean_rtt_ms(
        [s.location for s in fleet.servers], clients, fleet.path_model
    )
    optimal = optimize_placement(
        len(fleet.servers), clients, fleet.path_model
    ).mean_rtt_ms
    return FleetAssessment(fleet.vca, observed, optimal,
                           grid_limited=optimal > observed)
