"""Throughput extraction from packet captures.

The paper measures application throughput by capturing at the WiFi APs and
windowing the byte counts (Sec. 3.2, Fig. 4).  The same procedure runs
here against :class:`~repro.netsim.capture.PacketCapture` records.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.analysis.stats import SummaryStats, summarize_samples
from repro.netsim.capture import Direction, PacketCapture

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
        ValueError: For a non-positive window.
    """
    if window_s <= 0:
        raise ValueError("window must be positive")
    records = capture.filter(direction=direction, peer=peer)
    if not records:
        return []
    start = records[0].timestamp + skip_head_s
    end = records[-1].timestamp
    if end <= start:
        return []
    n_windows = int((end - start) / window_s)
    if n_windows < 1:
        return []
    sums = np.zeros(n_windows)
    for rec in records:
        if rec.timestamp < start:
            continue  # int() truncates toward zero; guard the head
        index = int((rec.timestamp - start) / window_s)
        if index < n_windows:
            sums[index] += rec.wire_bytes
    return list(sums * 8.0 / window_s / 1e6)


def cohort_throughput_windows_mbps(
    captures: List[PacketCapture],
    direction: Direction,
    window_s: float = WINDOW_S,
    peer: Optional[str] = None,
    skip_head_s: float = SKIP_HEAD_S,
) -> List[List[float]]:
    """Per-window throughput for a whole cohort of captures at once.

    The batched counterpart of :func:`throughput_windows_mbps`: one
    entry per capture, each computed with vectorized numpy reductions
    (window assignment and byte sums as array operations) instead of a
    per-record Python loop.  Results are identical to the scalar
    function — wire sizes are integers well below 2**53, so the
    ``bincount`` accumulation is exact — which the batch-equivalence
    suite asserts.

    Raises:
        ValueError: For a non-positive window.
    """
    if window_s <= 0:
        raise ValueError("window must be positive")
    out: List[List[float]] = []
    for capture in captures:
        records = capture.filter(direction=direction, peer=peer)
        if not records:
            out.append([])
            continue
        start = records[0].timestamp + skip_head_s
        end = records[-1].timestamp
        if end <= start:
            out.append([])
            continue
        n_windows = int((end - start) / window_s)
        if n_windows < 1:
            out.append([])
            continue
        ts = np.array([r.timestamp for r in records])
        wire = np.array([r.wire_bytes for r in records], dtype=np.float64)
        rel = ts - start
        index = (rel / window_s).astype(np.int64)
        valid = (rel >= 0) & (index < n_windows)
        sums = np.bincount(index[valid], weights=wire[valid],
                           minlength=n_windows)
        out.append(list(sums * 8.0 / window_s / 1e6))
    return out


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
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    return capture.total_bytes(direction) * 8.0 / duration_s / 1e6
