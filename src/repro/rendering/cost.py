"""Per-frame CPU/GPU cost models, fit to the paper's anchors at import.

GPU model
---------

``gpu_ms = setup + k_tri * triangles + k_frag * coverage * shading``

where ``shading`` is 1 for full-rate fragments and ``phi < 1`` under
foveated rendering (foveation lowers both the mesh resolution *and* the
shading rate in the periphery).  The four parameters ``(setup, k_tri,
k_frag, phi)`` are solved exactly from the four Fig. 5 operating points:

- baseline:  78,030 triangles, 1 m coverage, full shading  -> 6.55 ms
- viewport:      36 triangles, zero coverage               -> 2.68 ms
- distance:  45,036 triangles, 3 m coverage, full shading  -> 3.91 ms
- foveated:  21,036 triangles, 1 m coverage, phi shading   -> 3.97 ms

The first three are linear in ``(setup, k_tri, k_frag)``; ``phi`` then
follows from the foveated anchor.  By construction the model reproduces
Fig. 5 exactly, and — with the session layout in
:mod:`repro.vca.scene` — lands on the Fig. 6 means without further tuning.

CPU model
---------

The paper finds CPU time is *not* reduced by visibility optimizations
(delivery is visibility-oblivious, and the CPU mainly processes received
data).  CPU time therefore depends only on the persona count:
``cpu_ms = base + k_decode * n_personas``, fit to the Fig. 6(b) endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro import calibration
from repro.checks import fraction, positive
from repro.rendering.camera import head_coverage
from repro.rendering.lod import LodDecision


def _solve_gpu_fit() -> "FrameCostFit":
    """Solve the cost parameters from the Fig. 5 calibration anchors."""
    t_bl = float(calibration.PERSONA_TRIANGLES)
    t_v = float(calibration.VIEWPORT_CULLED_TRIANGLES)
    t_d = float(calibration.DISTANCE_TRIANGLES)
    t_f = float(calibration.FOVEATED_TRIANGLES)
    c1 = head_coverage(1.0)
    c3 = head_coverage(calibration.DISTANCE_LOD_THRESHOLD_M)
    gpu_bl = calibration.GPU_MS_BASELINE[0]
    gpu_v = calibration.GPU_MS_VIEWPORT[0]
    gpu_d = calibration.GPU_MS_DISTANCE[0]
    gpu_f = calibration.GPU_MS_FOVEATED[0]

    # Rows: viewport (no coverage), baseline, distance.
    matrix = np.array([
        [1.0, t_v, 0.0],
        [1.0, t_bl, c1],
        [1.0, t_d, c3],
    ])
    setup, k_tri, k_frag = np.linalg.solve(matrix, [gpu_v, gpu_bl, gpu_d])
    phi = (gpu_f - setup - k_tri * t_f) / (k_frag * c1)
    return FrameCostFit(
        setup_ms=float(setup),
        k_tri_ms=float(k_tri),
        k_frag_ms=float(k_frag),
        foveated_shading_factor=float(phi),
    )


@dataclass(frozen=True)
class FrameCostFit:
    """GPU cost parameters solved from the Fig. 5 anchors."""

    setup_ms: float
    k_tri_ms: float
    k_frag_ms: float
    foveated_shading_factor: float

    def __post_init__(self) -> None:
        for name in ("setup_ms", "k_tri_ms", "k_frag_ms"):
            positive(getattr(self, name), name)
        fraction(self.foveated_shading_factor, "foveated_shading_factor",
                 "()")


#: The fit, computed once at import; tests assert it reproduces Fig. 5.
FRAME_COST_FIT = _solve_gpu_fit()


@dataclass
class GpuCostModel:
    """GPU time per frame given the LOD decisions of the frame.

    Beyond Gaussian measurement noise, frames occasionally pay a
    contention spike (OS scheduling, memory-bandwidth pressure, thermal
    management) — the mechanism behind the long upper whiskers of
    Fig. 6(b), including the > 9 ms 95th percentile at five users.
    Single-persona lab scenarios (Fig. 5) show tight stds because the
    paper pins the scene; the spike process is therefore scaled by the
    number of rendered personas beyond the first.
    """

    fit: FrameCostFit = FRAME_COST_FIT
    noise_std_ms: float = 0.10
    spike_prob: float = 0.08
    spike_scale_ms: float = 0.9
    _rng: np.random.Generator = field(
        default_factory=lambda: np.random.default_rng(0), repr=False
    )

    def seed(self, seed: int) -> None:
        """Reseed the measurement-noise source."""
        self._rng = np.random.default_rng(seed)

    def persona_cost_ms(self, decision: LodDecision) -> float:
        """Marginal GPU cost of one persona (geometry + fragments)."""
        shading = (
            self.fit.foveated_shading_factor if decision.foveated_shading else 1.0
        )
        return (
            self.fit.k_tri_ms * decision.triangles
            + self.fit.k_frag_ms * decision.coverage * shading
        )

    def frame_time_ms(self, decisions: Sequence[LodDecision],
                      noisy: bool = True, spike_sources: int = 0) -> float:
        """Total GPU time for one frame.

        Args:
            decisions: LOD decisions of every persona this frame.
            noisy: Apply Gaussian measurement noise.
            spike_sources: Number of independent contention-spike sources
                (0 for controlled single-persona measurements like Fig. 5;
                the persona count for natural sessions like Fig. 6).
        """
        total = self.fit.setup_ms + sum(
            self.persona_cost_ms(d) for d in decisions
        )
        if noisy and self.noise_std_ms > 0:
            total += float(self._rng.normal(0.0, self.noise_std_ms))
        for _ in range(spike_sources):
            if self._rng.random() < self.spike_prob:
                total += float(self._rng.exponential(self.spike_scale_ms))
        return max(total, 0.0)


def _solve_cpu_fit() -> "CpuFit":
    """Fit ``cpu = base + k * personas`` to the Fig. 6(b) endpoints."""
    two = calibration.CPU_MS_TWO_USERS[0]    # 1 persona
    five = calibration.CPU_MS_FIVE_USERS[0]  # 4 personas
    k = (five - two) / 3.0
    base = two - k
    return CpuFit(base_ms=base, per_persona_ms=k)


@dataclass(frozen=True)
class CpuFit:
    """CPU cost parameters solved from the Fig. 6 anchors."""

    base_ms: float
    per_persona_ms: float


CPU_COST_FIT = _solve_cpu_fit()


@dataclass
class CpuCostModel:
    """CPU time per frame: semantic decode + reconstruction per persona.

    Deliberately ignores the LOD decisions — the paper's finding is that
    CPU time does not change under visibility optimizations because every
    persona's data is still received and processed (Sec. 4.4).
    """

    fit: CpuFit = CPU_COST_FIT
    noise_std_ms: float = 0.12
    spike_prob: float = 0.08
    spike_scale_ms: float = 0.9
    _rng: np.random.Generator = field(
        default_factory=lambda: np.random.default_rng(0), repr=False
    )

    def seed(self, seed: int) -> None:
        """Reseed the measurement-noise source."""
        self._rng = np.random.default_rng(seed)

    def frame_time_ms(self, n_personas: int, noisy: bool = True,
                      received_fraction: Optional[float] = None,
                      spike_sources: int = 0) -> float:
        """CPU time for one frame with ``n_personas`` remote personas.

        ``received_fraction`` scales the decode term when the network
        starves the streams (used only by shaping experiments; the default
        models a healthy session).  ``spike_sources`` is the contention
        process, as in :meth:`GpuCostModel.frame_time_ms`.
        """
        if not n_personas >= 0:
            raise ValueError("persona count cannot be negative")
        fraction = 1.0 if received_fraction is None else received_fraction
        total = self.fit.base_ms + self.fit.per_persona_ms * n_personas * fraction
        if noisy and self.noise_std_ms > 0:
            total += float(self._rng.normal(0.0, self.noise_std_ms))
        # The Fig. 6 anchors are session means *including* contention, so
        # the spike process is centered: its expected mass is deducted.
        total -= spike_sources * self.spike_prob * self.spike_scale_ms
        for _ in range(spike_sources):
            if self._rng.random() < self.spike_prob:
                total += float(self._rng.exponential(self.spike_scale_ms))
        return max(total, 0.0)
