"""In-app statistics panels and encrypted-traffic pattern inference."""

import pytest

from repro.analysis.patterns import (
    InferredContent,
    classify_content,
    estimate_rtp_loss,
    largest_flow,
    profile_records,
    segment_bursts,
    split_flows,
)
from repro.core.testbed import default_two_user_testbed
from repro.geo.regions import city
from repro.netsim.capture import CapturedPacket, Direction
from repro.netsim.engine import Simulator
from repro.netsim.network import Network
from repro.netsim.node import Host
from repro.netsim.packet import IPPROTO_UDP
from repro.netsim.shaper import TrafficShaper
from repro.vca.media import MeshSource
from repro.vca.profiles import FACETIME, WEBEX, ZOOM


@pytest.fixture(scope="module")
def webex_result():
    return default_two_user_testbed().session(
        WEBEX, seed=0, captures=("U1",)).run(10.0)


@pytest.fixture(scope="module")
def facetime_result():
    return default_two_user_testbed().session(
        FACETIME, seed=0, captures=("U1",)).run(5.0)


class TestInAppStatistics:
    def test_panel_reports_profile_resolution(self, webex_result):
        stats = webex_result.stats_of("U1")
        origin = stats.origins()[0]
        assert stats.snapshot(origin).resolution == (1920, 1080)

    def test_frame_rate_near_encoder_fps(self, webex_result):
        stats = webex_result.stats_of("U1")
        snap = stats.snapshot(stats.origins()[0])
        assert snap.frame_rate_fps == pytest.approx(30.0, abs=1.5)

    def test_receive_bitrate_near_target(self, webex_result):
        stats = webex_result.stats_of("U1")
        snap = stats.snapshot(stats.origins()[0])
        assert snap.receive_mbps == pytest.approx(4.3, rel=0.1)

    def test_no_loss_on_clean_path(self, webex_result):
        stats = webex_result.stats_of("U1")
        snap = stats.snapshot(stats.origins()[0])
        assert snap.packet_loss == 0.0

    def test_rtt_matches_relayed_path(self, webex_result):
        stats = webex_result.stats_of("U1")
        snap = stats.snapshot(stats.origins()[0])
        # San Jose -> Webex W relay -> Dallas and back: tens of ms.
        assert snap.rtt_ms is not None
        assert 40 < snap.rtt_ms < 70

    def test_jitter_small_on_uncongested_path(self, webex_result):
        stats = webex_result.stats_of("U1")
        snap = stats.snapshot(stats.origins()[0])
        assert snap.jitter_ms < 5.0

    def test_spatial_sessions_have_no_panel(self, facetime_result):
        # The in-app statistics tools exist for the RTP/2D apps only.
        assert facetime_result.stats_collectors == {}

    def test_unknown_origin_raises(self, webex_result):
        with pytest.raises(KeyError):
            webex_result.stats_of("U1").snapshot("203.0.113.1")


class TestBurstSegmentation:
    def _records(self, times, size=100):
        return [
            CapturedPacket(t, Direction.UPLINK, size, "a", "b", 1, 2,
                           IPPROTO_UDP, b"")
            for t in times
        ]

    def test_single_burst(self):
        bursts = segment_bursts(self._records([0.0, 0.001, 0.002]))
        assert len(bursts) == 1
        assert bursts[0].packets == 3

    def test_gap_splits_bursts(self):
        bursts = segment_bursts(self._records([0.0, 0.001, 0.030, 0.031]))
        assert len(bursts) == 2

    def test_empty(self):
        assert segment_bursts([]) == []

    def test_invalid_gap(self):
        with pytest.raises(ValueError):
            segment_bursts([], gap_s=0)

    def test_profile_requires_two_bursts(self):
        with pytest.raises(ValueError):
            profile_records(self._records([0.0, 0.001]))

    def test_flow_split(self):
        records = self._records([0.0]) + [
            CapturedPacket(0.1, Direction.UPLINK, 50, "a", "b", 9, 2,
                           IPPROTO_UDP, b"")
        ]
        assert len(split_flows(records)) == 2

    def test_largest_flow_empty_raises(self):
        with pytest.raises(ValueError):
            largest_flow([])


class TestContentInference:
    def test_semantic_stream_classified(self, facetime_result):
        flow = largest_flow(
            facetime_result.capture_of("U1").filter(direction=Direction.UPLINK)
        )
        profile = profile_records(flow)
        assert classify_content(profile) is InferredContent.SEMANTIC_KEYPOINTS
        assert profile.estimated_fps == pytest.approx(90, abs=3)

    def test_video_stream_classified(self, webex_result):
        flow = largest_flow(
            webex_result.capture_of("U1").filter(direction=Direction.UPLINK)
        )
        profile = profile_records(flow)
        assert classify_content(profile) is InferredContent.VIDEO_2D
        assert profile.estimated_fps == pytest.approx(30, abs=2)

    def test_mesh_stream_classified(self):
        sim = Simulator()
        network = Network(sim)
        a = Host("10.0.0.2", city("san jose"))
        b = Host("10.0.1.2", city("dallas"))
        network.attach(a)
        network.attach(b)
        b.bind(40000, lambda p: None)
        capture = network.start_capture(a.address)
        MeshSource(seed=0).attach(sim, a, b.address)
        sim.run(until=0.4)
        profile = profile_records(
            largest_flow(capture.filter(direction=Direction.UPLINK))
        )
        assert classify_content(profile) is InferredContent.MESH_3D

    def test_unknown_for_degenerate_pattern(self):
        from repro.analysis.patterns import TrafficProfile

        weird = TrafficProfile(burst_count=5, estimated_fps=5.0,
                               mean_frame_bytes=100.0, frame_size_cv=0.01,
                               mean_packets_per_frame=1.0, mean_mbps=0.01)
        assert classify_content(weird) is InferredContent.UNKNOWN


class TestRtpLossInference:
    def test_clean_stream_zero_loss(self, webex_result):
        records = webex_result.capture_of("U1").filter(
            direction=Direction.DOWNLINK
        )
        assert estimate_rtp_loss(records).loss_rate == pytest.approx(0.0)

    def test_shaped_loss_recovered(self):
        session = default_two_user_testbed().session(ZOOM, seed=1,
                                                      captures=("U1",))
        session.shape_uplink("U2", TrafficShaper(loss=0.08, seed=3))
        result = session.run(8.0)
        records = result.capture_of("U1").filter(direction=Direction.DOWNLINK)
        estimate = estimate_rtp_loss(records)
        assert estimate.loss_rate == pytest.approx(0.08, abs=0.03)

    def test_no_rtp_records(self):
        assert estimate_rtp_loss([]).loss_rate == 0.0
