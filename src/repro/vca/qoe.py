"""Quality-of-experience model for immersive telepresence.

The paper anchors its QoE discussion on two published thresholds:

- **100 ms one-way delay** is "the threshold for maintaining a high QoE in
  immersive telepresence" (Sec. 4.1, [18, 21]); and
- the **90 FPS / 11.1 ms** render deadline, whose misses manifest as
  display judder (Sec. 4.5).

This module combines delay, persona availability, delivered frame rate,
and visual quality (triangle fraction) into a single [0, 1] score with
multiplicative impairments — the usual structure of parametric QoE models
— so policies (server selection, layered codecs) can be compared on one
axis.  The *shape* (which factor dominates where) is what matters; the
absolute scores carry no MOS calibration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import calibration
from repro.checks import fraction, non_negative

#: One-way delay threshold for high QoE (Sec. 4.1, refs [18, 21]).
ONE_WAY_DELAY_THRESHOLD_MS = 100.0


@dataclass(frozen=True)
class QoeFactors:
    """The measurable inputs of the QoE model."""

    one_way_delay_ms: float
    persona_availability: float     # [0, 1] reconstructed frame fraction
    displayed_fps: float
    triangle_fraction: float = 1.0  # rendered / full-quality triangles

    def __post_init__(self) -> None:
        non_negative(self.one_way_delay_ms, "one_way_delay_ms")
        fraction(self.persona_availability, "persona_availability")
        non_negative(self.displayed_fps, "displayed_fps")
        fraction(self.triangle_fraction, "triangle_fraction")


def delay_factor(one_way_delay_ms: float) -> float:
    """1.0 up to the 100 ms threshold, then exponential decay.

    Interactivity degrades gracefully but quickly once the round trip
    becomes perceptible; the decay constant puts ~0.5 at 2x threshold.
    """
    if one_way_delay_ms <= ONE_WAY_DELAY_THRESHOLD_MS:
        return 1.0
    excess = one_way_delay_ms - ONE_WAY_DELAY_THRESHOLD_MS
    return float(np.exp(-excess / 150.0))


def delay_factor_arrays(one_way_delay_ms: np.ndarray) -> np.ndarray:
    """Vectorized :func:`delay_factor` over a delay array (same constants).

    The placement studies score millions of sessions per cell; this keeps
    the threshold and decay in one place while letting numpy do the work.
    """
    delay = np.asarray(one_way_delay_ms, dtype=np.float64)
    excess = np.maximum(0.0, delay - ONE_WAY_DELAY_THRESHOLD_MS)
    return np.exp(-excess / 150.0)


def frame_rate_factor(displayed_fps: float,
                      target_fps: float = float(calibration.TARGET_FPS)
                      ) -> float:
    """Linear in delivered frame ratio with a comfort floor at 60 FPS.

    Headset comfort collapses quickly under 60 FPS; between 60 and the
    90 FPS target the penalty is mild.
    """
    if displayed_fps >= target_fps:
        return 1.0
    if displayed_fps >= 60.0:
        return 0.9 + 0.1 * (displayed_fps - 60.0) / (target_fps - 60.0)
    return max(0.0, 0.9 * displayed_fps / 60.0)


def quality_factor(triangle_fraction: float) -> float:
    """Perceptual quality vs. mesh resolution (diminishing returns)."""
    return float(triangle_fraction ** 0.3)


def score(factors: QoeFactors) -> float:
    """Multiplicative QoE score in [0, 1].

    Availability gates everything: a persona that is not there has no
    experience to rate.
    """
    return (
        factors.persona_availability
        * delay_factor(factors.one_way_delay_ms)
        * frame_rate_factor(factors.displayed_fps)
        * quality_factor(factors.triangle_fraction)
    )


def meets_high_qoe_bar(factors: QoeFactors, bar: float = 0.85) -> bool:
    """Whether a configuration clears a "high QoE" bar."""
    fraction(bar, "bar", "(]")
    return score(factors) >= bar


@dataclass(frozen=True)
class QoeVector:
    """Per-dimension QoE, following the immersive-communication taxonomy.

    The scalar :func:`score` collapses four perceptually distinct
    impairments into one number; surveys of immersive communication
    systems (Pérez et al.) instead report QoE along separate axes.  Each
    dimension here is one factor of the scalar model, in [0, 1]:

    - ``interactivity`` — :func:`delay_factor` of the one-way delay
      (conversational responsiveness, Sec. 4.1's 100 ms threshold);
    - ``presence`` — persona availability (is the remote user *there*);
    - ``fidelity`` — :func:`quality_factor` of the triangle fraction
      (visual quality of the rendered persona);
    - ``comfort`` — :func:`frame_rate_factor` of the displayed FPS
      (judder / headset comfort, Sec. 4.5's 90 FPS deadline).

    **Aggregation**: :meth:`aggregate` multiplies the four dimensions in
    the same left-to-right order as :func:`score` (availability, delay,
    frame rate, quality), so it is bit-identical to the legacy scalar —
    existing CSV columns and thresholds keep their meaning, and the
    vector is pure added resolution.
    """

    interactivity: float
    presence: float
    fidelity: float
    comfort: float

    def __post_init__(self) -> None:
        for name in ("interactivity", "presence", "fidelity", "comfort"):
            fraction(getattr(self, name), name)

    @classmethod
    def from_factors(cls, factors: QoeFactors,
                     target_fps: float = float(calibration.TARGET_FPS)
                     ) -> "QoeVector":
        """Decompose :class:`QoeFactors` into the four dimensions."""
        return cls(
            interactivity=delay_factor(factors.one_way_delay_ms),
            presence=factors.persona_availability,
            fidelity=quality_factor(factors.triangle_fraction),
            comfort=frame_rate_factor(factors.displayed_fps, target_fps),
        )

    def aggregate(self) -> float:
        """Multiplicative scalar, bit-identical to :func:`score`.

        Float multiplication commutes pairwise but does not associate,
        so the factor order (presence, interactivity, comfort, fidelity)
        mirrors the grouping inside :func:`score` exactly.
        """
        return (
            self.presence * self.interactivity
            * self.comfort * self.fidelity
        )

    def worst_dimension(self) -> str:
        """Name of the most impaired dimension (ties break in the
        declaration order above)."""
        values = {
            "interactivity": self.interactivity,
            "presence": self.presence,
            "fidelity": self.fidelity,
            "comfort": self.comfort,
        }
        return min(values, key=values.get)

    def to_dict(self) -> dict:
        """JSON-safe mapping, for experiment records and reports."""
        return {
            "interactivity": self.interactivity,
            "presence": self.presence,
            "fidelity": self.fidelity,
            "comfort": self.comfort,
            "aggregate": self.aggregate(),
        }
