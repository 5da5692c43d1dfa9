"""Receiver-side jitter buffer (playout delay) model.

Media receivers trade latency for smoothness: frames are held for a fixed
playout delay so network jitter does not starve the renderer.  The spatial
persona pipeline has an unusually easy job here — one small packet per
frame at 90 Hz — but the same machinery explains how much delay a given
jitter distribution costs, which feeds the display-latency budget of
Sec. 4.3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro import calibration
from repro.checks import at_least, fraction, non_negative
from repro.obs import metrics as obs_metrics


@dataclass(frozen=True)
class PlayoutReport:
    """Outcome of playing a stream through a fixed playout delay."""

    playout_delay_ms: float
    frames: int
    late_frames: int
    mean_wait_ms: float

    @property
    def late_fraction(self) -> float:
        """Fraction of frames that missed their playout slot."""
        return self.late_frames / self.frames if self.frames else 0.0


class JitterBuffer:
    """Fixed-playout-delay buffer over (send, arrival) timestamp pairs.

    Frame ``i`` is scheduled for playout at ``send_i + delay``; it is late
    when it arrives after that instant.  ``mean_wait_ms`` is how long
    on-time frames sat in the buffer — the latency cost of the smoothing.
    """

    def __init__(self, playout_delay_ms: float) -> None:
        self.playout_delay_ms = non_negative(playout_delay_ms, "playout delay")

    def play(self, timestamps: Sequence[Tuple[float, float]]) -> PlayoutReport:
        """Run the stream; timestamps are (send_s, arrival_s) pairs.

        Raises:
            ValueError: On an empty stream.
        """
        if not timestamps:
            raise ValueError("no frames to play")
        late = 0
        waits: List[float] = []
        delay_s = self.playout_delay_ms / 1000.0
        for send_s, arrival_s in timestamps:
            playout_s = send_s + delay_s
            if arrival_s > playout_s:
                late += 1
            else:
                waits.append((playout_s - arrival_s) * 1000.0)
        return PlayoutReport(
            playout_delay_ms=self.playout_delay_ms,
            frames=len(timestamps),
            late_frames=late,
            mean_wait_ms=float(np.mean(waits)) if waits else 0.0,
        )

    def play_batch(
        self,
        send_s: np.ndarray,
        arrival_s: np.ndarray,
        lanes: np.ndarray,
        n_lanes: int,
    ) -> List[PlayoutReport]:
        """Play many lanes' streams at once, state held as arrays.

        The cohort engine's vectorized counterpart of :meth:`play`:
        ``lanes[i]`` says which session frame ``i`` belongs to, and all
        lanes are scored with axis-wise reductions (one ``bincount`` per
        statistic) instead of a per-frame Python loop.  For every lane
        the report equals :meth:`play` on that lane's (send, arrival)
        pairs — the batch-equivalence suite holds the two paths
        together.

        Raises:
            ValueError: On an empty cohort, any empty lane (matching
                the scalar refusal to play an empty stream), or a lane
                index outside ``[0, n_lanes)`` — a frame routed to a
                nonexistent session is a caller bug, not a droppable
                frame.
        """
        if not n_lanes >= 1:
            raise ValueError("no lanes to play")
        send = np.asarray(send_s, dtype=np.float64)
        arrival = np.asarray(arrival_s, dtype=np.float64)
        lane = np.asarray(lanes, dtype=np.int64)
        if lane.size and ((lane < 0) | (lane >= n_lanes)).any():
            raise ValueError(
                f"lane indices must be in [0, {n_lanes}); "
                f"got range [{int(lane.min())}, {int(lane.max())}]"
            )
        frames = np.bincount(lane, minlength=n_lanes)
        if (frames == 0).any():
            raise ValueError("no frames to play")
        delay_s = self.playout_delay_ms / 1000.0
        playout = send + delay_s
        late_mask = arrival > playout
        late = np.bincount(lane[late_mask], minlength=n_lanes)
        wait_ms = np.where(late_mask, 0.0, (playout - arrival) * 1000.0)
        wait_sums = np.bincount(lane, weights=wait_ms, minlength=n_lanes)
        on_time = frames - late
        mean_wait = np.divide(
            wait_sums, on_time,
            out=np.zeros(n_lanes), where=on_time > 0,
        )
        return [
            PlayoutReport(
                playout_delay_ms=self.playout_delay_ms,
                frames=int(frames[i]),
                late_frames=int(late[i]),
                mean_wait_ms=float(mean_wait[i]),
            )
            for i in range(n_lanes)
        ]


class AdaptiveJitterBuffer:
    """Online playout-delay controller (RFC 3550-style estimator).

    Tracks an EWMA of the one-way delay and its mean absolute deviation
    and re-targets the playout delay to ``mean + safety * deviation`` on
    every arrival — the classic adaptive jitter buffer.  Under a jitter
    burst the buffer grows within a few frames and drains again once the
    burst clears; the timeline records that trajectory for the resilience
    experiment.

    A frame is late when it arrives after its playout slot under the delay
    in force *before* the arrival updated the estimate (the buffer cannot
    retroactively re-schedule).
    """

    def __init__(
        self,
        initial_delay_ms: float = 20.0,
        gain: float = 1.0 / 16.0,
        safety: float = 4.0,
        min_delay_ms: float = 5.0,
        max_delay_ms: float = 500.0,
    ) -> None:
        non_negative(initial_delay_ms, "initial_delay_ms")
        self.gain = fraction(gain, "gain", "(]")
        self.safety = safety
        self.min_delay_ms = non_negative(min_delay_ms, "min_delay_ms")
        self.max_delay_ms = at_least(max_delay_ms, min_delay_ms,
                                     "max_delay_ms")
        self.playout_delay_ms = float(
            np.clip(initial_delay_ms, min_delay_ms, max_delay_ms)
        )
        self._mean_ms: float = 0.0
        self._deviation_ms: float = 0.0
        self._primed = False
        self.frames = 0
        self.late_frames = 0
        #: ``(arrival_s, playout_delay_ms)`` after each arrival.
        self.timeline: List[Tuple[float, float]] = []
        # Stream counters fetched once; observe() is a per-frame path.
        self._m_frames = obs_metrics.counter("vca.jitterbuffer.frames")
        self._m_late = obs_metrics.counter("vca.jitterbuffer.late_frames")
        self._m_delay = obs_metrics.histogram("vca.jitterbuffer.delay_ms")

    def observe(self, send_s: float, arrival_s: float) -> float:
        """Feed one frame's (send, arrival) pair; returns the new delay.

        Raises:
            ValueError: If the frame arrives before it was sent.
        """
        one_way_ms = (arrival_s - send_s) * 1000.0
        if not one_way_ms >= 0:
            raise ValueError("arrival precedes send")
        self.frames += 1
        self._m_frames.inc()
        if arrival_s > send_s + self.playout_delay_ms / 1000.0:
            self.late_frames += 1
            self._m_late.inc()
        if not self._primed:
            self._mean_ms = one_way_ms
            self._primed = True
        else:
            error = one_way_ms - self._mean_ms
            self._mean_ms += self.gain * error
            self._deviation_ms += self.gain * (abs(error) - self._deviation_ms)
        self.playout_delay_ms = float(np.clip(
            self._mean_ms + self.safety * self._deviation_ms,
            self.min_delay_ms, self.max_delay_ms,
        ))
        self.timeline.append((arrival_s, self.playout_delay_ms))
        self._m_delay.observe(self.playout_delay_ms)
        return self.playout_delay_ms

    @property
    def late_fraction(self) -> float:
        """Fraction of frames that missed their playout slot."""
        return self.late_frames / self.frames if self.frames else 0.0

    @property
    def peak_delay_ms(self) -> float:
        """Largest playout delay the controller reached."""
        return max((d for _t, d in self.timeline),
                   default=self.playout_delay_ms)


def minimal_playout_delay_ms(
    timestamps: Sequence[Tuple[float, float]],
    late_budget: float = 0.01,
    resolution_ms: float = 0.5,
    max_delay_ms: float = 500.0,
) -> float:
    """Smallest playout delay keeping lateness within ``late_budget``.

    This is the steady-state answer an adaptive jitter buffer converges
    to; it equals (approximately) the ``1 - late_budget`` quantile of the
    one-way delay distribution.

    Raises:
        ValueError: If even ``max_delay_ms`` cannot meet the budget.
    """
    fraction(late_budget, "late budget", "[)")
    delays_ms = np.arange(0.0, max_delay_ms + resolution_ms, resolution_ms)
    one_way = np.array([a - s for s, a in timestamps]) * 1000.0
    cannot_meet = ValueError(
        f"cannot meet a {late_budget:.1%} late budget within "
        f"{max_delay_ms} ms"
    )
    n = one_way.size
    if n == 0:
        raise cannot_meet
    # Largest late count m with m/n <= late_budget under the exact float
    # comparison the grid scan used (np.mean == count/n); floor(budget*n)
    # can land one off either way (e.g. budget=1/3, n=3 rounds to 0.999…).
    m = int(np.floor(late_budget * n))
    while m + 1 < n and (m + 1) / n <= late_budget:
        m += 1
    while m > 0 and m / n > late_budget:
        m -= 1
    # Any delay >= the (n - m)-th smallest one-way sample leaves at most
    # m frames strictly late; anything smaller leaves at least m + 1.
    quantile = np.partition(one_way, n - m - 1)[n - m - 1]
    index = int(np.searchsorted(delays_ms, quantile, side="left"))
    if index >= delays_ms.size:
        raise cannot_meet
    return float(delays_ms[index])


def persona_playout_budget_ms(network_jitter_std_ms: float,
                              base_one_way_ms: float,
                              late_budget: float = 0.01) -> float:
    """Analytic playout delay for Gaussian jitter (sanity companion).

    The ``1 - late_budget`` Gaussian quantile above the base one-way
    delay; with the display pipeline's own frame of slack this stays well
    inside the < 16 ms display-latency difference bound of Sec. 4.3 for
    the jitter the testbed exhibits.
    """
    from scipy.stats import norm

    non_negative(network_jitter_std_ms, "network_jitter_std_ms")
    quantile = norm.ppf(1.0 - late_budget)
    return base_one_way_ms + quantile * network_jitter_std_ms


#: One display frame of slack at the 90 FPS target.
FRAME_SLACK_MS = calibration.FRAME_DEADLINE_MS
