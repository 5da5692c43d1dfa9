"""The graceful-degradation ladder for persona streams.

Under disturbance a resilient telepresence app does not simply stall — it
walks down a ladder of representations, each cheaper than the last:

    textured mesh  →  simplified mesh  →  keypoints only  →  audio only

(For 2D persona sessions the same four rungs map to full-rate video,
reduced video, thumbnail video, and audio-only.)

The controller drives the ladder from *observed goodput*: it steps down as
soon as the receiver's goodput falls materially below the current rung's
nominal rate — directly to the highest rung the observed goodput can
sustain — and steps up one rung at a time after a streak of clean
intervals (the usual probe-up/back-off asymmetry of rate controllers).
The decision function is pure and monotone in goodput, which the property
tests rely on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

from repro.checks import non_negative, positive


class LadderLevel(enum.IntEnum):
    """The rungs, ordered by fidelity (and bandwidth appetite)."""

    AUDIO_ONLY = 0
    KEYPOINTS = 1
    SIMPLIFIED_MESH = 2
    TEXTURED_MESH = 3


#: Fraction of a rung's nominal rate that must be observed to keep it.
DOWN_RATIO = 0.8
#: Clean control intervals required before probing one rung up.
UP_STREAK = 3
#: Relative quality each rung delivers (feeds the QoE model's
#: ``triangle_fraction`` analog; audio-only keeps a sliver for presence).
LEVEL_QUALITY: Dict[LadderLevel, float] = {
    LadderLevel.TEXTURED_MESH: 1.0,
    LadderLevel.SIMPLIFIED_MESH: 0.60,
    LadderLevel.KEYPOINTS: 0.35,
    LadderLevel.AUDIO_ONLY: 0.05,
}


def sustainable_level(
    goodput_bps: float,
    nominal_bps: Mapping[LadderLevel, float],
    down_ratio: float = DOWN_RATIO,
) -> LadderLevel:
    """Highest rung whose nominal rate fits the observed goodput.

    Monotone non-decreasing in ``goodput_bps`` by construction: a higher
    goodput can only unlock higher rungs.  ``AUDIO_ONLY`` is always
    sustainable — presence never drops to nothing.
    """
    non_negative(goodput_bps, "goodput_bps")
    for level in sorted(nominal_bps, reverse=True):
        if level is LadderLevel.AUDIO_ONLY:
            continue
        if goodput_bps >= down_ratio * nominal_bps[level]:
            return level
    return LadderLevel.AUDIO_ONLY


def next_level(
    current: LadderLevel,
    goodput_bps: float,
    nominal_bps: Mapping[LadderLevel, float],
    clean_streak: int,
    down_ratio: float = DOWN_RATIO,
    up_streak: int = UP_STREAK,
) -> LadderLevel:
    """One control-interval ladder decision.

    Steps *down* immediately (to the sustainable rung) when observed
    goodput cannot hold the current rung; steps *up* one rung after
    ``up_streak`` clean intervals; otherwise holds.  For a fixed
    ``current`` and ``clean_streak`` the result is monotone non-decreasing
    in ``goodput_bps``.
    """
    nominal = nominal_bps.get(current, 0.0)
    if current > LadderLevel.AUDIO_ONLY and goodput_bps < down_ratio * nominal:
        floor = sustainable_level(goodput_bps, nominal_bps, down_ratio)
        return min(current, floor)
    if current < LadderLevel.TEXTURED_MESH and clean_streak >= up_streak:
        return LadderLevel(current + 1)
    return current


@dataclass
class DegradationLadder:
    """Tracks one sender's current rung and the transition history.

    Attributes:
        nominal_bps: Per-rung nominal wire rate of this sender's stream.
        level: Current rung.
        transitions: ``(time_s, level)`` pairs, starting with the initial
            rung at t=0.
        settle_s: Hold-down after any transition (including session
            start): observations inside the hold are ignored so the
            trailing goodput window can refill at the new rung's rate.
            Without it the ladder oscillates — right after climbing, the
            window still shows the old (lower) rate and the clean test
            fails spuriously.
    """

    nominal_bps: Dict[LadderLevel, float]
    level: LadderLevel = LadderLevel.TEXTURED_MESH
    settle_s: float = 1.0
    transitions: List[Tuple[float, LadderLevel]] = field(default_factory=list)
    _clean_streak: int = 0
    _settled_at: float = 0.0

    def __post_init__(self) -> None:
        non_negative(self.settle_s, "settle_s")
        if not self.transitions:
            self.transitions.append((0.0, self.level))

    def observe(self, time_s: float, goodput_bps: float) -> LadderLevel:
        """Feed one control interval's observed goodput; maybe transition."""
        if time_s < self._settled_at + self.settle_s:
            return self.level
        nominal = self.nominal_bps.get(self.level, 0.0)
        clean = nominal <= 0.0 or goodput_bps >= DOWN_RATIO * nominal
        self._clean_streak = self._clean_streak + 1 if clean else 0
        decided = next_level(
            self.level, goodput_bps, self.nominal_bps, self._clean_streak
        )
        if decided != self.level:
            self.level = decided
            self._clean_streak = 0
            self._settled_at = time_s
            self.transitions.append((time_s, decided))
        return self.level

    def occupancy(self, duration_s: float) -> Dict[LadderLevel, float]:
        """Seconds spent on each rung over ``[0, duration_s]``.

        Raises:
            ValueError: For a non-positive duration.
        """
        positive(duration_s, "duration_s")
        seconds = {level: 0.0 for level in LadderLevel}
        for (start, level), (end, _next) in zip(
            self.transitions, self.transitions[1:] + [(duration_s, self.level)]
        ):
            seconds[level] += max(0.0, min(end, duration_s) - min(start, duration_s))
        return seconds

    def occupancy_fractions(self, duration_s: float) -> Dict[LadderLevel, float]:
        """Occupancy normalized to fractions of the session."""
        seconds = self.occupancy(duration_s)
        return {level: s / duration_s for level, s in seconds.items()}
