"""Frame-rate accounting, dynamic sessions, and trace persistence."""

import pytest

from repro import calibration
from repro.netsim.trace import load_trace, save_trace
from repro.rendering.framerate import (
    FrameRateReport,
    analyze_frame_rate,
    vsync_slots,
)
from repro.rendering.pipeline import FrameStats, RenderPipeline
from repro.vca.dynamics import DynamicSession
from repro.vca.profiles import FACETIME, ZOOM


def frame(gpu_ms):
    return FrameStats(0, 1000, gpu_ms=gpu_ms, cpu_ms=5.0, decisions=())


class TestVsyncSlots:
    def test_on_time_frame_one_slot(self):
        assert vsync_slots(9.0) == 1

    def test_overrun_takes_two_slots(self):
        assert vsync_slots(12.0) == 2

    def test_double_overrun(self):
        assert vsync_slots(23.0) == 3

    def test_zero_time_still_one_slot(self):
        assert vsync_slots(0.0) == 1

    def test_invalid_deadline(self):
        with pytest.raises(ValueError):
            vsync_slots(5.0, deadline_ms=0)


class TestFrameRateAnalysis:
    def test_all_on_time_hits_target(self):
        report = analyze_frame_rate([frame(8.0)] * 90)
        assert report.effective_fps == pytest.approx(90.0)
        assert report.miss_rate == 0.0
        assert report.meets_target()

    def test_half_missed_drops_rate(self):
        frames = [frame(8.0), frame(13.0)] * 45
        report = analyze_frame_rate(frames)
        assert report.effective_fps == pytest.approx(60.0)
        assert report.miss_rate == pytest.approx(0.5)
        assert not report.meets_target()

    def test_worst_run_counted(self):
        frames = [frame(8.0)] * 5 + [frame(13.0)] * 3 + [frame(8.0)] * 5
        report = analyze_frame_rate(frames)
        assert report.worst_consecutive_misses == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            analyze_frame_rate([])

    def test_five_user_session_mostly_meets_target(self):
        # Sec. 4.5: even at five users the mean GPU time is under the
        # deadline; only the tail misses.
        pipe = RenderPipeline(seed=0)
        frames = pipe.render_session(["a", "b", "c", "d"], duration_s=20.0)
        report = analyze_frame_rate(frames)
        assert report.effective_fps > 85.0
        assert 0.0 <= report.miss_rate < 0.1


class TestDynamicSession:
    def test_downlink_steps_with_membership(self):
        session = DynamicSession(
            FACETIME,
            [(0.0, "U2", True), (5.0, "U3", True), (10.0, "U3", False)],
            seed=0,
        )
        result = session.run(15.0)
        one = result.downlink_mbps_between(1.0, 4.5)
        two = result.downlink_mbps_between(6.0, 9.5)
        back = result.downlink_mbps_between(11.0, 14.5)
        assert two == pytest.approx(2 * one, rel=0.1)
        assert back == pytest.approx(one, rel=0.1)

    def test_cap_enforced_at_every_instant(self):
        schedule = [(float(i), f"U{i + 2}", True) for i in range(5)]
        with pytest.raises(ValueError, match="cap"):
            DynamicSession(FACETIME, schedule)

    def test_cap_ok_with_interleaved_leaves(self):
        schedule = [
            (0.0, "U2", True), (1.0, "U3", True), (2.0, "U4", True),
            (3.0, "U5", True), (4.0, "U2", False), (5.0, "U6", True),
        ]
        DynamicSession(FACETIME, schedule)  # must not raise

    def test_leave_before_join_rejected(self):
        with pytest.raises(ValueError, match="before joining"):
            DynamicSession(FACETIME, [(1.0, "U2", False)])

    def test_observer_cannot_leave(self):
        with pytest.raises(ValueError, match="observer"):
            DynamicSession(FACETIME, [(1.0, "U1", False)])

    def test_requires_spatial_profile(self):
        with pytest.raises(ValueError, match="spatial"):
            DynamicSession(ZOOM, [(0.0, "U2", True)])

    def test_empty_interval_rejected(self):
        session = DynamicSession(FACETIME, [(0.0, "U2", True)], seed=1)
        result = session.run(3.0)
        with pytest.raises(ValueError):
            result.downlink_mbps_between(2.0, 2.0)


class TestTracePersistence:
    def _capture(self):
        from repro.core.testbed import default_two_user_testbed

        result = default_two_user_testbed().session(
            FACETIME, seed=0, captures=("U1",)).run(2.0)
        return result.capture_of("U1")

    def test_roundtrip(self, tmp_path):
        capture = self._capture()
        path = tmp_path / "u1.rptr"
        save_trace(capture, path)
        loaded = load_trace(path)
        assert loaded.host_address == capture.host_address
        assert len(loaded.records) == len(capture.records)
        first, loaded_first = capture.records[0], loaded.records[0]
        assert loaded_first.timestamp == pytest.approx(first.timestamp)
        assert loaded_first.wire_bytes == first.wire_bytes
        assert loaded_first.snap == first.snap
        assert loaded_first.flow == first.flow

    def test_analysis_works_on_loaded_trace(self, tmp_path):
        from repro.analysis.protocol import classify_capture

        capture = self._capture()
        path = tmp_path / "u1.rptr"
        save_trace(capture, path)
        report = classify_capture(load_trace(path))
        assert report.dominant == "quic"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.rptr"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError):
            load_trace(path)

    def test_truncated_rejected(self, tmp_path):
        capture = self._capture()
        path = tmp_path / "u1.rptr"
        save_trace(capture, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError):
            load_trace(path)
