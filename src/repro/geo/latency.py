"""Wide-area RTT model fit to Table 1 of the paper.

The model decomposes a round-trip time into:

- fiber propagation along the great circle, at ~2/3 c;
- a multiplicative path-inflation factor capturing routed paths being longer
  than the great circle (fit to the off-diagonal entries of Table 1); and
- a fixed access component for the WiFi AP / last mile / server ingress
  (fit to the diagonal entries, where propagation is negligible).

Table 1's caption bounds the standard deviation of every cell at < 7 ms, so
the jitter model draws per-measurement noise well inside that bound.

The scalar entry points (:meth:`PathModel.base_rtt_ms` and friends) and the
vectorized matrix kernels (:meth:`PathModel.base_rtt_ms_arrays`,
:func:`rtt_matrix_ms`) share one numpy core, so a matrix cell is
bit-identical to the scalar RTT between the same endpoints — the contract
the planet-scale placement optimizer relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro import calibration
from repro.checks import fraction
from repro.geo.coords import GeoPoint, haversine_km_arrays, latlon_arrays


@dataclass
class PathModel:
    """Deterministic RTT model plus a jitter distribution.

    Equality and hashing consider only the fitted parameters, never the
    private jitter RNG: two models built from the same calibration are
    interchangeable (and key caches identically) regardless of how far
    either one's noise stream has advanced.

    Attributes:
        fiber_speed_mps: Propagation speed in fiber (m/s).
        inflation: Great-circle to routed-path inflation factor.
        access_rtt_ms: Fixed access contribution to the RTT (both ends).
        jitter_std_ms: Standard deviation of per-measurement Gaussian jitter.
        jitter_floor_fraction: Lower clamp on jittered samples, as a
            fraction of the noise-free RTT — a measurement can never be
            faster than this share of the modeled path (0.0 restores a
            plain truncation at zero).
    """

    fiber_speed_mps: float = calibration.FIBER_SPEED_MPS
    inflation: float = calibration.PATH_INFLATION
    access_rtt_ms: float = calibration.ACCESS_RTT_MS
    jitter_std_ms: float = 1.8
    jitter_floor_fraction: float = 0.4
    _rng: np.random.Generator = field(
        default_factory=lambda: np.random.default_rng(0),
        repr=False, compare=False,
    )

    def __post_init__(self) -> None:
        fraction(self.jitter_floor_fraction, "jitter_floor_fraction")

    def __hash__(self) -> int:
        return hash((self.fiber_speed_mps, self.inflation,
                     self.access_rtt_ms, self.jitter_std_ms,
                     self.jitter_floor_fraction))

    def seed(self, seed: int) -> None:
        """Reseed the jitter source (used by experiment repeats)."""
        self._rng = np.random.default_rng(seed)

    def spawn(self, seed: Optional[int] = None) -> "PathModel":
        """An independent same-parameter model with its own RNG.

        Experiments that perturb the jitter stream should spawn their own
        model instead of reseeding a shared one — reseeding a model other
        code also holds silently couples their noise streams.
        """
        clone = PathModel(
            fiber_speed_mps=self.fiber_speed_mps,
            inflation=self.inflation,
            access_rtt_ms=self.access_rtt_ms,
            jitter_std_ms=self.jitter_std_ms,
            jitter_floor_fraction=self.jitter_floor_fraction,
        )
        if seed is not None:
            clone.seed(seed)
        return clone

    def propagation_rtt_ms(self, a: GeoPoint, b: GeoPoint) -> float:
        """Round-trip propagation delay along the inflated path, in ms."""
        return float(self.propagation_rtt_ms_arrays(
            np.float64(a.lat), np.float64(a.lon),
            np.float64(b.lat), np.float64(b.lon),
        ))

    def base_rtt_ms(self, a: GeoPoint, b: GeoPoint) -> float:
        """Noise-free RTT between two endpoints, in ms."""
        return self.access_rtt_ms + self.propagation_rtt_ms(a, b)

    def one_way_ms(self, a: GeoPoint, b: GeoPoint) -> float:
        """Noise-free one-way delay, in ms (half the base RTT)."""
        return self.base_rtt_ms(a, b) / 2.0

    # ------------------------------------------------------------------
    # vectorized kernels (bit-identical to the scalar entry points)
    # ------------------------------------------------------------------

    def propagation_rtt_ms_arrays(self, lat_a: np.ndarray, lon_a: np.ndarray,
                                  lat_b: np.ndarray, lon_b: np.ndarray
                                  ) -> np.ndarray:
        """Vectorized :meth:`propagation_rtt_ms` over coordinate arrays.

        Broadcasts like a ufunc: ``(n, 1)`` vs ``(1, m)`` inputs yield the
        full n x m propagation matrix.
        """
        path_m = (haversine_km_arrays(lat_a, lon_a, lat_b, lon_b)
                  * 1000.0 * self.inflation)
        return 2.0 * path_m / self.fiber_speed_mps * 1000.0

    def base_rtt_ms_arrays(self, lat_a: np.ndarray, lon_a: np.ndarray,
                           lat_b: np.ndarray, lon_b: np.ndarray
                           ) -> np.ndarray:
        """Vectorized :meth:`base_rtt_ms` over coordinate arrays."""
        return self.access_rtt_ms + self.propagation_rtt_ms_arrays(
            lat_a, lon_a, lat_b, lon_b
        )

    def one_way_ms_arrays(self, lat_a: np.ndarray, lon_a: np.ndarray,
                          lat_b: np.ndarray, lon_b: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`one_way_ms` over coordinate arrays."""
        return self.base_rtt_ms_arrays(lat_a, lon_a, lat_b, lon_b) / 2.0

    def sample_rtt_ms(self, a: GeoPoint, b: GeoPoint, n: int = 1) -> np.ndarray:
        """Draw ``n`` jittered RTT measurements between two endpoints.

        Gaussian jitter rides on the noise-free RTT; every sample is
        clamped from below at ``jitter_floor_fraction * base_rtt_ms`` (by
        default 40% of the noise-free path — routed networks jitter
        upward far more readily than down).  Set ``jitter_floor_fraction``
        to 0.0 for a plain truncation at zero.
        """
        base = self.base_rtt_ms(a, b)
        samples = base + self._rng.normal(0.0, self.jitter_std_ms, size=n)
        return np.maximum(samples, self.jitter_floor_fraction * base)


#: Module-level default model for code that needs only the *noise-free*
#: RTT surface.  Stateful users (anything calling ``seed()`` /
#: ``sample_rtt_ms``) must own a private instance — ``PathModel()`` or
#: ``DEFAULT_PATH_MODEL.spawn()`` — so their jitter streams stay
#: independent; the fleet/geolocator builders do exactly that.
DEFAULT_PATH_MODEL = PathModel()


def rtt_ms(a: GeoPoint, b: GeoPoint, model: Optional[PathModel] = None) -> float:
    """Noise-free RTT between ``a`` and ``b`` using ``model`` (or the default)."""
    return (model or DEFAULT_PATH_MODEL).base_rtt_ms(a, b)


def rtt_matrix_ms(points_a: Sequence[GeoPoint], points_b: Sequence[GeoPoint],
                  model: Optional[PathModel] = None) -> np.ndarray:
    """Noise-free RTT matrix between two point sequences.

    Entry ``[i, j]`` equals ``rtt_ms(points_a[i], points_b[j], model)``
    bit-for-bit; the matrix is just computed thousands of times faster.
    """
    model = model or DEFAULT_PATH_MODEL
    lat_a, lon_a = latlon_arrays(points_a)
    lat_b, lon_b = latlon_arrays(points_b)
    return model.base_rtt_ms_arrays(
        lat_a[:, None], lon_a[:, None], lat_b[None, :], lon_b[None, :]
    )
