"""NaN and infinite parameters fail at the public constructors.

A guard written ``if x <= 0: raise`` lets NaN through, because every
comparison with NaN is False.  Each case below was accepted silently
before its guard became a single comparison that NaN fails.
"""

from __future__ import annotations

import math

import pytest

from repro.faults.schedule import FaultEvent, FaultKind
from repro.geo.policy import LatencyBudget
from repro.vca.jitterbuffer import JitterBuffer


@pytest.mark.parametrize("start_s", [math.nan, math.inf])
def test_fault_event_rejects_a_start_that_is_not_finite(start_s):
    with pytest.raises(ValueError, match="start"):
        FaultEvent(FaultKind.LINK_BLACKOUT, "U1", start_s, 1.0)


@pytest.mark.parametrize("duration_s", [math.nan, math.inf])
def test_fault_event_rejects_a_duration_that_is_not_finite(duration_s):
    with pytest.raises(ValueError, match="duration"):
        FaultEvent(FaultKind.LINK_BLACKOUT, "U1", 1.0, duration_s)


def test_fault_event_keeps_its_finite_bounds():
    event = FaultEvent(FaultKind.LINK_BLACKOUT, "U1", 0.0, 0.5)
    assert event.end_s == 0.5
    for start_s, duration_s in ((-1.0, 1.0), (1.0, 0.0), (1.0, -1.0)):
        with pytest.raises(ValueError):
            FaultEvent(FaultKind.LINK_BLACKOUT, "U1", start_s, duration_s)


def test_latency_budget_rejects_nan():
    with pytest.raises(ValueError, match="budget_ms"):
        LatencyBudget(math.nan)


def test_jitter_buffer_rejects_nan_delay():
    with pytest.raises(ValueError, match="playout delay"):
        JitterBuffer(math.nan)
    assert JitterBuffer(0.0).play([(0.0, 0.001)]).late_frames == 1
