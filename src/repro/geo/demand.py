"""Planet-scale synthetic demand: who wants a telepresence call, where, when.

The paper measures a fixed US deployment from eight vantage cities; the
ROADMAP asks the obvious scaling question — what would these systems look
like serving the planet?  This module supplies the demand side of that
question:

- a **global region catalog** (:data:`WORLD_REGIONS`): ~40 metro areas
  across six continents with rough metro populations and UTC offsets,
  extending the paper's US-only vantage set;
- a **diurnal load curve** per region (evening peak, pre-dawn trough,
  phased by the region's local time); and
- seeded **flash crowds** — short demand bursts pinned to one region,
  the "event traffic" that stresses any placement.

Everything is vectorized and deterministic: :meth:`DemandModel.sample_users`
turns a seed + UTC hour into millions of jittered (lat, lon) user
coordinates in a few hundred milliseconds, and the same seed always yields
the same planet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.checks import at_least, positive
from repro.geo.coords import GeoPoint, latlon_arrays

#: Hour of local time at which demand peaks (evening calls).
PEAK_LOCAL_HOUR = 20.0
#: Fraction of peak demand that survives the pre-dawn trough.
TROUGH_FLOOR = 0.08


@dataclass(frozen=True)
class WorldRegion:
    """One metro-area demand center.

    Attributes:
        name: Metro label.
        location: Region centroid.
        population_m: Metro population in millions (coarse, order-of-
            magnitude fidelity is all the demand model needs).
        utc_offset_h: Offset used to phase the diurnal curve (standard
            time; DST is noise at this fidelity).
        spread_deg: Scatter of sampled users around the centroid, in
            degrees (~1 deg latitude is 111 km of suburb).
    """

    name: str
    location: GeoPoint
    population_m: float
    utc_offset_h: float
    spread_deg: float = 1.0

    def __post_init__(self) -> None:
        positive(self.population_m, "population_m")
        if not -12.0 <= self.utc_offset_h <= 14.0:
            raise ValueError("utc offset out of range")


def _region(name: str, lat: float, lon: float, pop_m: float,
            utc: float) -> WorldRegion:
    return WorldRegion(name, GeoPoint(name, lat, lon), pop_m, utc)


#: The global catalog: the paper's US regions plus the other inhabited
#: continents' major metros.  Populations are metro-area, in millions.
WORLD_REGIONS: Tuple[WorldRegion, ...] = (
    # North America (superset of the paper's W/M/E vantage areas)
    _region("San Jose, CA", 37.3387, -121.8853, 7.7, -8),
    _region("Seattle, WA", 47.6062, -122.3321, 4.0, -8),
    _region("Los Angeles, CA", 34.0522, -118.2437, 13.2, -8),
    _region("Dallas, TX", 32.7767, -96.7970, 7.6, -6),
    _region("Chicago, IL", 41.8781, -87.6298, 9.5, -6),
    _region("Kansas City, MO", 39.0997, -94.5786, 2.2, -6),
    _region("New York, NY", 40.7128, -74.0060, 19.8, -5),
    _region("Washington, DC", 38.9072, -77.0369, 6.3, -5),
    _region("Miami, FL", 25.7617, -80.1918, 6.1, -5),
    _region("Toronto", 43.6532, -79.3832, 6.2, -5),
    _region("Mexico City", 19.4326, -99.1332, 21.8, -6),
    # South America
    _region("Sao Paulo", -23.5505, -46.6333, 22.4, -3),
    _region("Buenos Aires", -34.6037, -58.3816, 15.4, -3),
    _region("Bogota", 4.7110, -74.0721, 11.0, -5),
    _region("Lima", -12.0464, -77.0428, 10.7, -5),
    # Europe
    _region("London", 51.5074, -0.1278, 14.3, 0),
    _region("Paris", 48.8566, 2.3522, 11.2, 1),
    _region("Berlin", 52.5200, 13.4050, 3.6, 1),
    _region("Madrid", 40.4168, -3.7038, 6.7, 1),
    _region("Milan", 45.4642, 9.1900, 4.3, 1),
    _region("Warsaw", 52.2297, 21.0122, 3.1, 1),
    _region("Istanbul", 41.0082, 28.9784, 15.6, 3),
    _region("Moscow", 55.7558, 37.6173, 12.6, 3),
    # Africa & Middle East
    _region("Cairo", 30.0444, 31.2357, 21.3, 2),
    _region("Lagos", 6.5244, 3.3792, 15.9, 1),
    _region("Nairobi", -1.2921, 36.8219, 5.1, 3),
    _region("Johannesburg", -26.2041, 28.0473, 10.1, 2),
    _region("Dubai", 25.2048, 55.2708, 3.6, 4),
    _region("Riyadh", 24.7136, 46.6753, 7.5, 3),
    # South & Southeast Asia
    _region("Mumbai", 19.0760, 72.8777, 21.3, 5.5),
    _region("Delhi", 28.7041, 77.1025, 32.9, 5.5),
    _region("Bangalore", 12.9716, 77.5946, 13.6, 5.5),
    _region("Dhaka", 23.8103, 90.4125, 22.5, 6),
    _region("Jakarta", -6.2088, 106.8456, 33.4, 7),
    _region("Bangkok", 13.7563, 100.5018, 17.1, 7),
    _region("Manila", 14.5995, 120.9842, 14.4, 8),
    _region("Singapore", 1.3521, 103.8198, 6.0, 8),
    # East Asia & Oceania
    _region("Shanghai", 31.2304, 121.4737, 29.2, 8),
    _region("Beijing", 39.9042, 116.4074, 21.5, 8),
    _region("Seoul", 37.5665, 126.9780, 25.5, 9),
    _region("Tokyo", 35.6762, 139.6503, 37.3, 9),
    _region("Sydney", -33.8688, 151.2093, 5.3, 10),
)


def region_points(regions: Sequence[WorldRegion]) -> List[GeoPoint]:
    """The region centroids as plain geo points."""
    return [r.location for r in regions]


def diurnal_load(t_utc_h: np.ndarray, utc_offset_h: np.ndarray) -> np.ndarray:
    """Relative demand multiplier in (0, 1] for local time of day.

    A raised cosine peaking at :data:`PEAK_LOCAL_HOUR` local, floored at
    :data:`TROUGH_FLOOR` of peak in the pre-dawn trough.  Vectorized over
    any broadcastable combination of UTC hour and offset.
    """
    local = np.mod(np.asarray(t_utc_h, dtype=np.float64)
                   + np.asarray(utc_offset_h, dtype=np.float64), 24.0)
    phase = 2.0 * np.pi * (local - PEAK_LOCAL_HOUR) / 24.0
    shaped = 0.5 + 0.5 * np.cos(phase)
    # Sharpen the evening peak: square keeps the curve in [0, 1].
    shaped = shaped * shaped
    return TROUGH_FLOOR + (1.0 - TROUGH_FLOOR) * shaped


@dataclass(frozen=True)
class FlashCrowd:
    """A transient demand burst pinned to one region.

    Attributes:
        region: Catalog region name.
        start_utc_h: Burst onset, hours UTC (wraps mod 24).
        duration_h: Burst length in hours.
        multiplier: Demand multiplier while active (>= 1).
    """

    region: str
    start_utc_h: float
    duration_h: float
    multiplier: float

    def __post_init__(self) -> None:
        positive(self.duration_h, "duration_h")
        at_least(self.multiplier, 1.0, "multiplier")

    def active(self, t_utc_h: float) -> bool:
        """Whether the burst covers UTC hour ``t_utc_h`` (mod 24)."""
        offset = (t_utc_h - self.start_utc_h) % 24.0
        return offset < self.duration_h


def seeded_flash_crowds(seed: int,
                        regions: Sequence[WorldRegion] = WORLD_REGIONS,
                        count: int = 3,
                        multiplier_range: Tuple[float, float] = (3.0, 8.0),
                        ) -> Tuple[FlashCrowd, ...]:
    """Draw ``count`` deterministic flash crowds for a scenario seed."""
    at_least(count, 0, "count")
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(regions), size=min(count, len(regions)),
                       replace=False)
    lo, hi = multiplier_range
    return tuple(
        FlashCrowd(
            region=regions[int(i)].name,
            start_utc_h=float(rng.uniform(0.0, 24.0)),
            duration_h=float(rng.uniform(0.5, 3.0)),
            multiplier=float(rng.uniform(lo, hi)),
        )
        for i in picks
    )


@dataclass(frozen=True)
class UserSample:
    """A vectorized population snapshot at one UTC hour.

    Attributes:
        lat / lon: Per-user coordinates (degrees, float64).
        region_index: Per-user index into the model's region tuple.
        t_utc_h: The UTC hour the snapshot was drawn for.
    """

    lat: np.ndarray
    lon: np.ndarray
    region_index: np.ndarray
    t_utc_h: float

    def __len__(self) -> int:
        return len(self.lat)

    def region_counts(self, n_regions: int) -> np.ndarray:
        """Users per region (length ``n_regions``)."""
        return np.bincount(self.region_index, minlength=n_regions)


@dataclass(frozen=True)
class DemandModel:
    """Population-weighted global demand with diurnal + flash dynamics.

    The model is a pure function of (UTC hour, seed): region weights
    come from population x diurnal load x any active flash crowds, and
    users scatter around their region centroid with a seeded normal
    jitter.  Identical inputs always produce identical populations.
    """

    regions: Tuple[WorldRegion, ...] = WORLD_REGIONS
    flash_crowds: Tuple[FlashCrowd, ...] = ()

    def __post_init__(self) -> None:
        if not self.regions:
            raise ValueError("need at least one region")
        names = {r.name for r in self.regions}
        for crowd in self.flash_crowds:
            if crowd.region not in names:
                raise ValueError(
                    f"flash crowd targets unknown region {crowd.region!r}")

    @classmethod
    def default(cls, max_regions: Optional[int] = None,
                flash_seed: Optional[int] = None,
                flash_count: int = 3) -> "DemandModel":
        """The world catalog (optionally truncated by population rank)."""
        regions = tuple(sorted(WORLD_REGIONS, key=lambda r: -r.population_m))
        if max_regions is not None:
            at_least(max_regions, 1, "max_regions")
            regions = regions[:max_regions]
        crowds: Tuple[FlashCrowd, ...] = ()
        if flash_seed is not None:
            crowds = seeded_flash_crowds(flash_seed, regions,
                                         count=flash_count)
        return cls(regions=regions, flash_crowds=crowds)

    def region_weights(self, t_utc_h: float) -> np.ndarray:
        """Normalized per-region demand shares at one UTC hour."""
        pop = np.array([r.population_m for r in self.regions])
        offsets = np.array([r.utc_offset_h for r in self.regions])
        raw = pop * diurnal_load(np.float64(t_utc_h), offsets)
        for crowd in self.flash_crowds:
            if crowd.active(t_utc_h):
                index = next(i for i, r in enumerate(self.regions)
                             if r.name == crowd.region)
                raw[index] *= crowd.multiplier
        return raw / raw.sum()

    def mean_region_weights(self, epochs: Sequence[float]) -> np.ndarray:
        """Average demand shares over several UTC hours (for placement)."""
        if len(epochs) == 0:
            raise ValueError("need at least one epoch")
        stacked = np.stack([self.region_weights(t) for t in epochs])
        mean = stacked.mean(axis=0)
        return mean / mean.sum()

    def sample_users(self, n: int, t_utc_h: float, seed: int) -> UserSample:
        """Draw ``n`` users at UTC hour ``t_utc_h``, deterministically.

        Region membership is multinomial in the demand shares; positions
        jitter around the region centroid with the region's spread
        (clipped to valid latitudes, wrapped in longitude).
        """
        at_least(n, 1, "n")
        rng = np.random.default_rng(seed)
        weights = self.region_weights(t_utc_h)
        counts = rng.multinomial(n, weights)
        region_index = np.repeat(np.arange(len(self.regions)), counts)
        lat0, lon0 = latlon_arrays(region_points(self.regions))
        spread = np.array([r.spread_deg for r in self.regions])
        jitter_lat = rng.normal(0.0, 1.0, size=n) * spread[region_index]
        jitter_lon = rng.normal(0.0, 1.0, size=n) * spread[region_index]
        lat = np.clip(lat0[region_index] + jitter_lat, -89.9, 89.9)
        lon = np.mod(lon0[region_index] + jitter_lon + 180.0, 360.0) - 180.0
        return UserSample(lat=lat, lon=lon, region_index=region_index,
                          t_utc_h=t_utc_h)

    def demand_points(self, epochs: Sequence[float]
                      ) -> Tuple[List[GeoPoint], np.ndarray]:
        """(centroids, mean weights) — the optimizer-facing aggregation.

        Millions of sampled users aggregate to their region centroids
        with time-averaged demand weights; the placement search runs on
        this compact form, evaluation runs on the full samples.
        """
        return region_points(self.regions), self.mean_region_weights(epochs)


def regions_by_name(regions: Sequence[WorldRegion] = WORLD_REGIONS
                    ) -> Dict[str, WorldRegion]:
    """Name -> region lookup for the catalog."""
    return {r.name: r for r in regions}
