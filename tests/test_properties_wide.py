"""Wide property-based sweep across the codec and persistence layers.

Hypothesis-driven invariants that cut across modules: anything that
serializes must deserialize to the same thing, anything that compresses
must decompress within its stated error, and statistics must respect
their defining inequalities.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.stats import summarize_samples
from repro.mesh.codec import DracoLikeCodec
from repro.mesh.generate import head_mesh
from repro.mesh.model import TriangleMesh
from repro.netsim.capture import CapturedPacket, Direction, PacketCapture
from repro.netsim.trace import load_trace, save_trace
from repro.transport.fec import FecPacket
from repro.transport.rtcp import ReceiverReport, ReportBlock, parse_rtcp
from repro.vca.jitterbuffer import JitterBuffer


# ---------------------------------------------------------------------------
# Trace persistence
# ---------------------------------------------------------------------------

_addresses = st.tuples(
    st.integers(0, 255), st.integers(0, 255),
    st.integers(0, 255), st.integers(0, 255),
).map(lambda t: ".".join(map(str, t)))

_records = st.builds(
    CapturedPacket,
    timestamp=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    direction=st.sampled_from(list(Direction)),
    wire_bytes=st.integers(min_value=1, max_value=65535),
    src=_addresses,
    dst=_addresses,
    src_port=st.integers(min_value=1, max_value=65535),
    dst_port=st.integers(min_value=1, max_value=65535),
    protocol=st.sampled_from([6, 17]),
    snap=st.binary(min_size=0, max_size=64),
)


class TestTraceProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(_records, min_size=0, max_size=30), _addresses)
    def test_roundtrip_preserves_every_field(self, records, host):
        import tempfile
        from pathlib import Path

        capture = PacketCapture(host)
        for record in records:
            capture.append(record)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.rptr"
            save_trace(capture, path)
            loaded = load_trace(path)
        assert loaded.host_address == host
        assert len(loaded.records) == len(records)
        for original, restored in zip(records, loaded.records):
            assert restored.direction is original.direction
            assert restored.wire_bytes == original.wire_bytes
            assert restored.snap == original.snap
            assert restored.flow == original.flow
            assert restored.timestamp == pytest.approx(original.timestamp)


# ---------------------------------------------------------------------------
# FEC framing
# ---------------------------------------------------------------------------

class TestFecProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=0, max_value=64),
        st.integers(min_value=2, max_value=16),
        st.binary(min_size=0, max_size=2000),
        st.booleans(),
    )
    def test_packet_roundtrip(self, group, index, k, payload, parity):
        packet = FecPacket(group, index, k, payload, parity)
        assert FecPacket.parse(packet.pack()) == packet


# ---------------------------------------------------------------------------
# RTCP
# ---------------------------------------------------------------------------

_blocks = st.builds(
    ReportBlock,
    ssrc=st.integers(0, 2**32 - 1),
    fraction_lost=st.integers(0, 255),
    cumulative_lost=st.integers(0, 2**24 - 1),
    highest_sequence=st.integers(0, 2**32 - 1),
    jitter=st.integers(0, 2**32 - 1),
    last_sr=st.integers(0, 2**32 - 1),
    delay_since_last_sr=st.integers(0, 2**32 - 1),
)


class TestRtcpProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.lists(_blocks, max_size=8))
    def test_receiver_report_roundtrip(self, ssrc, blocks):
        report = ReceiverReport(ssrc, tuple(blocks))
        parsed = parse_rtcp(report.pack())
        assert parsed.ssrc == ssrc
        assert parsed.blocks == tuple(blocks)


# ---------------------------------------------------------------------------
# Mesh codec
# ---------------------------------------------------------------------------

class TestMeshCodecProperties:
    @settings(max_examples=10, deadline=None)
    @given(
        st.sampled_from([200, 500, 1200]),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=8, max_value=14),
    )
    def test_roundtrip_error_within_bound(self, triangles, seed, qbits):
        mesh = head_mesh(triangles, seed=seed)
        codec = DracoLikeCodec(quantization_bits=qbits)
        decoded = codec.decode(codec.encode(mesh))
        assert np.array_equal(decoded.faces, mesh.faces)
        error = np.abs(decoded.vertices - mesh.vertices).max()
        assert error <= codec.max_position_error(mesh) + 1e-12

    def test_degenerate_flat_mesh_survives(self):
        # A mesh with one zero-extent axis must not break quantization.
        vertices = np.array([
            [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
            [1.0, 1.0, 0.0],
        ])
        faces = np.array([[0, 1, 2], [1, 3, 2]], dtype=np.int32)
        mesh = TriangleMesh(vertices, faces)
        codec = DracoLikeCodec()
        decoded = codec.decode(codec.encode(mesh))
        assert np.allclose(decoded.vertices[:, 2], 0.0, atol=1e-9)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

class TestStatsProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=-1e5, max_value=1e5,
                              allow_nan=False), min_size=1, max_size=300))
    def test_percentile_chain(self, samples):
        stats = summarize_samples(samples)
        assert stats.p5 <= stats.p25 <= stats.median <= stats.p75 <= stats.p95
        assert min(samples) - 1e-6 <= stats.median <= max(samples) + 1e-6

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=-1e5, max_value=1e5,
                              allow_nan=False), min_size=2, max_size=100),
           st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
    def test_shift_invariance(self, samples, shift):
        base = summarize_samples(samples)
        shifted = summarize_samples([s + shift for s in samples])
        assert shifted.mean == pytest.approx(base.mean + shift, abs=1e-6)
        assert shifted.std == pytest.approx(base.std, abs=1e-6)


# ---------------------------------------------------------------------------
# Jitter buffer
# ---------------------------------------------------------------------------

class TestJitterBufferProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
                st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
            ).map(lambda t: (t[0], t[0] + t[1])),
            min_size=1, max_size=200,
        ),
        st.floats(min_value=0.0, max_value=600.0, allow_nan=False),
    )
    def test_lateness_monotone_in_delay(self, timestamps, delay_ms):
        tight = JitterBuffer(delay_ms).play(timestamps)
        roomy = JitterBuffer(delay_ms + 50.0).play(timestamps)
        assert roomy.late_frames <= tight.late_frames
