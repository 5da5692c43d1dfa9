"""Statistics, throughput extraction, and the protocol classifier."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.analysis.latency import measure_server_rtts
from repro.analysis.protocol import classify_records
from repro.analysis.stats import summarize_samples
from repro.analysis.throughput import (
    mean_throughput_mbps,
    throughput_windows_mbps,
)
from repro.geo.regions import city
from repro.geo.servers import ALL_FLEETS
from repro.netsim.capture import CapturedPacket, Direction, PacketCapture
from repro.netsim.packet import IPPROTO_UDP


class TestSummaryStats:
    def test_known_values(self):
        s = summarize_samples([1.0, 2.0, 3.0, 4.0, 5.0])
        assert s.mean == 3.0
        assert s.median == 3.0
        assert s.count == 5

    def test_percentile_ordering(self):
        data = np.random.default_rng(0).normal(10, 2, 500)
        s = summarize_samples(data)
        assert s.p5 <= s.p25 <= s.median <= s.p75 <= s.p95

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_samples([])

    def test_row_renders(self):
        row = summarize_samples([1.0]).row("metric", unit="ms")
        assert "metric" in row and "n=1" in row

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=200))
    def test_mean_within_range(self, samples):
        s = summarize_samples(samples)
        assert min(samples) - 1e-9 <= s.mean <= max(samples) + 1e-9


def synthetic_capture(host="10.0.0.2", peer="10.0.9.9", pps=100,
                      size=125, seconds=10.0, head=()):
    """A capture with perfectly regular uplink traffic after ``head``."""
    cap = PacketCapture(host)
    for record in head:
        cap.append(record)
    n = int(pps * seconds)
    for i in range(n):
        cap.append(CapturedPacket(
            timestamp=i / pps,
            direction=Direction.UPLINK,
            wire_bytes=size,
            src=host, dst=peer, src_port=1, dst_port=2,
            protocol=IPPROTO_UDP, snap=b"",
        ))
    return cap


class TestThroughputWindows:
    def test_constant_rate_recovered(self):
        cap = synthetic_capture(pps=100, size=125, seconds=10)  # 0.1 Mbps
        windows = throughput_windows_mbps(cap, Direction.UPLINK)
        assert windows
        for w in windows:
            assert w == pytest.approx(0.1, rel=0.02)

    def test_head_skipped(self):
        # A burst before the skip threshold must not pollute window 0.
        cap = synthetic_capture(seconds=5, head=[CapturedPacket(
            timestamp=0.0, direction=Direction.UPLINK, wire_bytes=10**6,
            src="10.0.0.2", dst="10.0.9.9", src_port=1, dst_port=2,
            protocol=IPPROTO_UDP, snap=b"",
        )])
        windows = throughput_windows_mbps(cap, Direction.UPLINK)
        assert max(windows) < 1.0

    def test_empty_capture(self):
        cap = PacketCapture("10.0.0.2")
        assert throughput_windows_mbps(cap, Direction.UPLINK) == []

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            throughput_windows_mbps(PacketCapture("x"), Direction.UPLINK, 0)

    def test_mean_throughput(self):
        cap = synthetic_capture(pps=100, size=125, seconds=10)
        assert mean_throughput_mbps(cap, Direction.UPLINK, 10.0) == pytest.approx(
            0.1, rel=0.02
        )


def record_with_snap(snap):
    return CapturedPacket(
        timestamp=0.0, direction=Direction.UPLINK, wire_bytes=len(snap) + 28,
        src="a", dst="b", src_port=1, dst_port=2, protocol=IPPROTO_UDP,
        snap=snap,
    )


class TestProtocolClassifier:
    def test_rtp_recognized_with_payload_type(self):
        from repro.transport.rtp import FACETIME_VIDEO_PT, RtpPacketizer

        packet = RtpPacketizer(FACETIME_VIDEO_PT, 1).packetize(b"x" * 40, 0)[0]
        report = classify_records([record_with_snap(packet[:64])])
        assert report.rtp_packets == 1
        assert report.dominant == "rtp"
        assert report.dominant_payload_type() == FACETIME_VIDEO_PT.number

    def test_quic_recognized(self):
        from repro.transport.quic import QuicConnection

        conn = QuicConnection(b"conn0001", b"s" * 16)
        datagram = conn.protect_frame(b"x" * 40)[0]
        report = classify_records([record_with_snap(datagram[:64])])
        assert report.quic_packets == 1
        assert report.dominant == "quic"

    def test_other_bytes(self):
        report = classify_records([record_with_snap(b"\x00\x01\x02" * 10)])
        assert report.other_packets == 1

    def test_majority_wins(self):
        from repro.transport.rtp import ZOOM_VIDEO_PT, RtpPacketizer

        packer = RtpPacketizer(ZOOM_VIDEO_PT, 1)
        records = [
            record_with_snap(packer.packetize(b"y" * 20, i)[0][:64])
            for i in range(3)
        ] + [record_with_snap(b"\x00" * 20)]
        assert classify_records(records).dominant == "rtp"

    def test_no_payload_type_without_rtp(self):
        report = classify_records([record_with_snap(b"\x00" * 20)])
        assert report.dominant_payload_type() is None


class TestServerRtts:
    def test_matrix_cell_reasonable(self):
        servers = [ALL_FLEETS["FaceTime"].by_label("W")]
        result = measure_server_rtts(city("san jose"), servers, repeats=5)
        stats = result["FaceTime/W"]
        assert 2 < stats.mean < 20
        assert stats.count == 5

    def test_repeats_validated(self):
        with pytest.raises(ValueError):
            measure_server_rtts(city("dallas"), [], repeats=0)
