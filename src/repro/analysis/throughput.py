"""Throughput extraction from packet captures.

The paper measures application throughput by capturing at the WiFi APs and
windowing the byte counts (Sec. 3.2, Fig. 4).  The same procedure runs
here against a :class:`~repro.netsim.capture.PacketCapture`'s columns,
through the one window kernel, :func:`repro.netsim.capture.window_mbps`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.stats import SummaryStats, summarize_samples
from repro.checks import positive
from repro.netsim.capture import Direction, PacketCapture, window_mbps

#: Default window width, and the head skipped before the first window
#: (handshakes, ramp-up), in seconds.
WINDOW_S = 1.0
SKIP_HEAD_S = 1.0

#: Shortest session whose capture yields a whole default window.  Windows
#: start SKIP_HEAD_S after the capture's first packet and only whole ones
#: count.  A capture starts a path delay into its session and ends up to
#: a frame interval before it, so one more window of slack keeps the
#: last whole window inside the session.
MIN_WINDOWED_SESSION_S = SKIP_HEAD_S + 2 * WINDOW_S


def throughput_windows_mbps(
    capture: PacketCapture,
    direction: Direction,
    window_s: float = WINDOW_S,
    peer: Optional[str] = None,
    skip_head_s: float = SKIP_HEAD_S,
) -> List[float]:
    """Per-window throughput samples in Mbps.

    Args:
        capture: The AP capture to analyze.
        direction: Uplink or downlink relative to the monitored host.
        window_s: Window width in seconds.
        peer: Restrict to traffic with this remote address.
        skip_head_s: Ignore the first seconds (handshakes, ramp-up).

    Raises:
        ValueError: Unless ``window_s`` is finite and positive and
            ``skip_head_s`` finite and non-negative.
    """
    return window_mbps(*capture.series(direction, peer), window_s,
                       skip_head_s)


def cohort_throughput_windows_mbps(
    captures: List[PacketCapture],
    direction: Direction,
    window_s: float = WINDOW_S,
    peer: Optional[str] = None,
    skip_head_s: float = SKIP_HEAD_S,
) -> List[List[float]]:
    """:func:`throughput_windows_mbps` of each capture of a cohort."""
    return [throughput_windows_mbps(capture, direction, window_s, peer,
                                    skip_head_s)
            for capture in captures]


def throughput_summary(
    capture: PacketCapture,
    direction: Direction,
    window_s: float = 1.0,
    peer: Optional[str] = None,
) -> SummaryStats:
    """Box-plot summary of windowed throughput (the Fig. 4 observable)."""
    windows = throughput_windows_mbps(capture, direction, window_s, peer)
    return summarize_samples(windows)


def mean_throughput_mbps(capture: PacketCapture, direction: Direction,
                         duration_s: float) -> float:
    """Coarse mean over the whole capture (bytes / duration)."""
    positive(duration_s, "duration_s")
    return capture.total_bytes(direction) * 8.0 / duration_s / 1e6
