"""Resilience metrics: goodput, stalls, time-to-recover, MOS-under-faults.

The tracker taps a participant's media-port handler and records every
arriving packet's timestamp, wire size, kind, and frame id, per origin.
From that single timeline the module derives the resilience observables
the experiment reports:

- **windowed goodput** (drives the degradation ladder),
- **stalls** — intervals where persona media stopped arriving,
- **time-to-recover** per fault event — from fault onset to the end of
  the stall it caused (0 when the ladder absorbed the fault entirely),
- **MOS-under-faults** — the session's QoE timeline scored per window
  with the rung-quality, delivery, delay, and frame-rate factors, mapped
  onto the usual 1–5 mean-opinion scale.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.checks import positive
from repro.faults.ladder import LEVEL_QUALITY, DegradationLadder, LadderLevel
from repro.faults.schedule import FaultEvent
from repro.netsim.packet import Packet
from repro.vca import qoe

#: Packet kinds that constitute persona media (stall detection works on
#: these; audio keeps flowing at the ladder's bottom rung).
MEDIA_KINDS = frozenset({
    "semantic", "semantic-fec", "semantic-layered", "mesh", "video",
})
#: Kinds that count toward goodput (everything the origin sends us).
GOODPUT_KINDS = MEDIA_KINDS | frozenset({"audio", "fec-parity"})


class _OriginLog:
    """Arrival bookkeeping for one remote sender."""

    __slots__ = ("times", "cum_bytes", "media_times", "media_frames")

    def __init__(self) -> None:
        self.times: List[float] = []
        self.cum_bytes: List[int] = []       # cumulative, parallel to times
        self.media_times: List[float] = []
        self.media_frames: List[Tuple[float, str, int]] = []

    def record(self, now: float, wire_bytes: int, kind: str,
               frame: Optional[int]) -> None:
        total = (self.cum_bytes[-1] if self.cum_bytes else 0) + wire_bytes
        self.times.append(now)
        self.cum_bytes.append(total)
        if kind in MEDIA_KINDS:
            self.media_times.append(now)
            if frame is not None and frame >= 0:
                self.media_frames.append((now, kind, frame))

    def bytes_between(self, start_s: float, end_s: float) -> int:
        lo = bisect.bisect_left(self.times, start_s)
        hi = bisect.bisect_right(self.times, end_s)
        if hi == 0 or lo >= hi:
            return 0
        before = self.cum_bytes[lo - 1] if lo > 0 else 0
        return self.cum_bytes[hi - 1] - before

    def frames_between(self, start_s: float, end_s: float) -> int:
        lo = bisect.bisect_left(self.media_frames, (start_s, "", -1))
        hi = bisect.bisect_left(self.media_frames, (end_s, "", -1))
        return len({(k, f) for _t, k, f in self.media_frames[lo:hi]})


class ResilienceTracker:
    """Taps one participant's receive path and records per-origin arrivals."""

    def __init__(self, clock: Callable[[], float],
                 window_s: float = 1.0) -> None:
        self._clock = clock
        self.window_s = positive(window_s, "window_s")
        self._origins: Dict[str, _OriginLog] = {}

    def tap(self, handler: Callable[[Packet], None]
            ) -> Callable[[Packet], None]:
        """Wrap a media-port handler so arrivals are recorded first."""

        def tapped(packet: Packet) -> None:
            self.record(packet)
            handler(packet)

        return tapped

    def record(self, packet: Packet) -> None:
        """Record one arriving packet (only goodput-bearing kinds)."""
        kind = packet.meta.get("kind")
        if kind not in GOODPUT_KINDS:
            return
        origin = packet.meta.get("origin", packet.src)
        log = self._origins.get(origin)
        if log is None:
            log = self._origins[origin] = _OriginLog()
        log.record(self._clock(), packet.wire_bytes, kind,
                   packet.meta.get("frame"))

    def origins(self) -> List[str]:
        """Senders seen so far, sorted."""
        return sorted(self._origins)

    def goodput_bps(self, origin: str, now: Optional[float] = None) -> float:
        """Wire goodput of one origin over the trailing window."""
        log = self._origins.get(origin)
        if log is None:
            return 0.0
        now = self._clock() if now is None else now
        # Early in the session the window clips to the elapsed time, so a
        # healthy stream is not misread as slow before t = window.
        window = min(now, self.window_s)
        if window <= 0:
            return 0.0
        window_bytes = log.bytes_between(now - window, now)
        return window_bytes * 8.0 / window

    def bytes_between(self, origin: str, start_s: float, end_s: float) -> int:
        """Wire bytes from one origin over an interval."""
        log = self._origins.get(origin)
        return log.bytes_between(start_s, end_s) if log else 0

    def frames_between(self, origin: str, start_s: float, end_s: float) -> int:
        """Distinct media frames from one origin over an interval."""
        log = self._origins.get(origin)
        return log.frames_between(start_s, end_s) if log else 0

    def media_arrivals(self, origin: str) -> List[float]:
        """Timestamps of persona-media packets from one origin."""
        log = self._origins.get(origin)
        return list(log.media_times) if log else []


# ----------------------------------------------------------------------
# Stalls and recovery
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Stall:
    """An interval with no persona media."""

    start_s: float
    end_s: float

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


def find_stalls(
    arrival_times: Sequence[float],
    duration_s: float,
    gap_threshold_s: float = 0.35,
    warmup_s: float = 0.5,
) -> List[Stall]:
    """Extract stalls from a media arrival timeline.

    A stall opens when consecutive arrivals are further apart than
    ``gap_threshold_s`` (or media never starts after ``warmup_s``), and
    closes at the next arrival — or at ``duration_s`` if media never
    resumes.

    Raises:
        ValueError: For a non-positive duration.
    """
    positive(duration_s, "duration_s")
    stalls: List[Stall] = []
    previous = warmup_s
    for arrival in arrival_times:
        if arrival - previous > gap_threshold_s:
            stalls.append(Stall(previous, arrival))
        previous = max(previous, arrival)
    if duration_s - previous > gap_threshold_s:
        stalls.append(Stall(previous, duration_s))
    return stalls


@dataclass(frozen=True)
class FaultRecovery:
    """Recovery outcome of one fault event."""

    event: FaultEvent
    time_to_recover_s: float
    stalled: bool

    @property
    def absorbed(self) -> bool:
        """The fault caused no stall at all (the ladder soaked it up)."""
        return not self.stalled


def recovery_of(event: FaultEvent, stalls: Sequence[Stall],
                slack_s: float = 5.0) -> FaultRecovery:
    """Time from fault onset until persona media flowed again.

    A stall is attributed to the fault when it overlaps
    ``[start, end + slack]`` — recovery work (reconnect backoff, ladder
    climbing) legitimately extends past the fault's own end.
    """
    horizon = event.end_s + slack_s
    related = [
        s for s in stalls
        if s.end_s > event.start_s and s.start_s < horizon
    ]
    if not related:
        return FaultRecovery(event, 0.0, stalled=False)
    recovered_at = max(s.end_s for s in related)
    return FaultRecovery(event, recovered_at - event.start_s, stalled=True)


# ----------------------------------------------------------------------
# MOS under faults
# ----------------------------------------------------------------------


def _level_at(ladder: DegradationLadder, time_s: float) -> LadderLevel:
    level = ladder.transitions[0][1]
    for t, lvl in ladder.transitions:
        if t <= time_s:
            level = lvl
        else:
            break
    return level


def mos_timeline(
    tracker: ResilienceTracker,
    origin: str,
    ladder: DegradationLadder,
    duration_s: float,
    one_way_delay_ms: float,
    target_fps: float = 90.0,
    window_s: float = 1.0,
) -> List[Tuple[float, float]]:
    """Per-window MOS (1–5) of one persona stream under faults.

    Each window is scored with the QoE model's multiplicative factors —
    delivery vs. the current rung's nominal rate, the rung's quality, the
    delay factor, and the delivered frame rate — then mapped onto 1–5.
    Audio-only windows score the rung's floor quality (presence without a
    persona) scaled by audio delivery.
    """
    positive(duration_s, "duration_s")
    points: List[Tuple[float, float]] = []
    n_windows = max(1, int(round(duration_s / window_s)))
    for i in range(n_windows):
        start, end = i * window_s, min((i + 1) * window_s, duration_s)
        level = _level_at(ladder, start)
        nominal = ladder.nominal_bps.get(level, 0.0)
        delivered_bps = tracker.bytes_between(origin, start, end) * 8.0 / (
            end - start
        )
        if level is LadderLevel.AUDIO_ONLY:
            availability = min(1.0, delivered_bps / nominal) if nominal else 0.0
            score = LEVEL_QUALITY[level] * availability * qoe.delay_factor(
                one_way_delay_ms
            )
        else:
            availability = min(1.0, delivered_bps / nominal) if nominal else 0.0
            fps = tracker.frames_between(origin, start, end) / (end - start)
            score = (
                availability
                * LEVEL_QUALITY[level]
                * qoe.delay_factor(one_way_delay_ms)
                * qoe.frame_rate_factor(fps, target_fps)
            )
        points.append((start, 1.0 + 4.0 * score))
    return points


# ----------------------------------------------------------------------
# The per-session report
# ----------------------------------------------------------------------


@dataclass
class ResilienceReport:
    """Everything the resilience experiment reports for one session."""

    observer: str
    duration_s: float
    stalls: List[Stall] = field(default_factory=list)
    recoveries: List[FaultRecovery] = field(default_factory=list)
    ladder_occupancy_s: Dict[LadderLevel, float] = field(default_factory=dict)
    ladder_transitions: int = 0
    mos_mean: float = 5.0
    reconnects: int = 0

    @property
    def total_stall_s(self) -> float:
        """Seconds with no persona media at the observer."""
        return sum(s.duration_s for s in self.stalls)

    @property
    def stall_count(self) -> int:
        return len(self.stalls)

    @property
    def mean_ttr_s(self) -> float:
        """Mean time-to-recover over the faults that caused a stall."""
        stalled = [r.time_to_recover_s for r in self.recoveries if r.stalled]
        return sum(stalled) / len(stalled) if stalled else 0.0

    @property
    def max_ttr_s(self) -> float:
        return max((r.time_to_recover_s for r in self.recoveries), default=0.0)

    @property
    def all_recovered(self) -> bool:
        """Every fault's recovery time is finite (no stall reaches the end)."""
        return all(s.end_s < self.duration_s for s in self.stalls)

    def occupancy_fraction(self, level: LadderLevel) -> float:
        """Fraction of the session spent on one rung."""
        if self.duration_s <= 0:
            return 0.0
        return self.ladder_occupancy_s.get(level, 0.0) / self.duration_s
