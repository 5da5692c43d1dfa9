"""Per-process caches on the semantic path, and two latent bugs.

Three pure functions are computed once per process behind bounded LRU
caches; these tests pin each cache to its uncached reference:

* ``semantic_pool`` (``repro.vca.media``): a sender's LZMA keypoint pool
  per (fps, seed, size), shared by ``SemanticSource`` and
  ``LadderedPersonaSource``; the SFU fast path builds uncached;
* ``_keystream_pad`` (``repro.transport.quic``): the 1,184-byte keystream
  pad per (secret, packet number), of which a payload of length L XORs
  the first L bytes;
* ``_reconstructs`` (``repro.vca.receiver``): whether a plaintext decodes
  to a reconstructible frame.

Each regression below fails on the code before its fix:

1. **Truncated long headers escaped as ``struct.error``** —
   ``parse_header`` accepted 15-17 byte long-form datagrams and then
   unpacked the packet number past their end, so a receiver crashed
   instead of counting a failed frame.  It now requires the full 18-byte
   long header.
2. **Non-finite fps passed ``MotionSynthesizer``** — ``fps <= 0`` is
   False for NaN and inf: NaN built a pool of undecodable all-NaN
   frames, inf stamped every frame at time 0.  Now ``0 < fps < inf``.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.testbed import default_two_user_testbed
from repro.faults.ladder import LadderLevel
from repro.faults.resilient import ResilienceConfig
from repro.faults.schedule import FaultEvent, FaultKind, FaultSchedule
from repro.faults.sources import LadderedPersonaSource
from repro.keypoints.codec import SemanticCodec
from repro.keypoints.layered import Layer
from repro.keypoints.motion import (
    KeypointFrame,
    MotionSynthesizer,
    capture_session,
)
from repro.netsim.packet import IPPROTO_UDP, Packet
from repro.transport import quic
from repro.transport.quic import (
    CONNECTION_ID_BYTES,
    LONG_HEADER_BYTES,
    QuicConnection,
    _keystream,
    _keystream_pad,
    parse_header,
)
from repro.vca import cohort, media
from repro.vca.cohort import CohortRunner, _semantic_pools, sfu_cohort_downlink
from repro.vca.media import (
    LayeredSemanticSource,
    SemanticSource,
    build_semantic_pool,
    quic_connection_for,
    semantic_pool,
)
from repro.vca.profiles import FACETIME
from repro.vca.receiver import SemanticReceiver, _reconstructs

from tests.test_motion_block import PerFrameSynthesizer

SECRET = b"cache-secret-000"
SENDER = "10.0.0.2"


def clear_caches() -> None:
    semantic_pool.cache_clear()
    _keystream_pad.cache_clear()
    _reconstructs.cache_clear()


def reference_pool(fps, seed, size):
    """The pool loop as it stood before the shared builder, on the
    frame-at-a-time synthesizer that block synthesis replaced."""
    codec = SemanticCodec(seed=seed)
    synth = PerFrameSynthesizer(fps=fps, seed=seed)
    return [
        codec.encode(frame, include_confidence=False).payload
        for frame in synth.frames(size)
    ]


def reference_xor(nonce, data, secret=SECRET):
    stream = _keystream(secret, nonce, len(data))
    return bytes(a ^ b for a, b in zip(data, stream))


def semantic_packet(payload: bytes) -> Packet:
    return Packet(
        src=SENDER, dst="10.0.1.2", src_port=40000, dst_port=40000,
        protocol=IPPROTO_UDP, payload=payload,
        meta={"kind": "semantic", "frame": 0, "origin": SENDER},
    )


class TestKeystreamPad:
    def test_pad_covers_the_largest_payload_in_whole_blocks(self):
        assert quic._PAD_BYTES == 37 * 32 == 1184
        assert quic._PAD_BYTES - 32 < quic.QUIC_MAX_PAYLOAD <= quic._PAD_BYTES

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=3000),
           st.integers(min_value=0, max_value=3000),
           st.integers(min_value=0, max_value=2**64 - 1),
           st.booleans(),
           st.randoms(use_true_random=False))
    def test_xor_equals_reference_cold_and_warm(self, first, second,
                                                nonce, cold, rng):
        """Any two lengths at one (secret, nonce), in either order, on both
        sides of the pad: the bytes of a bytewise XOR, no tolerance."""
        if cold:
            _keystream_pad.cache_clear()
        conn = QuicConnection(b"conn0001", SECRET)
        for length in (first, second, first):
            data = rng.randbytes(length)
            assert conn._xor(nonce, data) == reference_xor(nonce, data)

    @pytest.mark.parametrize("lengths", [
        (0, 1, 1175, 1183, 1184, 1185, 3000),
        (3000, 1185, 1184, 1183, 1175, 1, 0),
    ])
    def test_shorter_after_longer_and_reverse(self, lengths):
        rng = np.random.default_rng(0)
        conn = QuicConnection(b"conn0001", SECRET)
        for state in ("cold", "warm"):
            if state == "cold":
                _keystream_pad.cache_clear()
            for length in lengths:
                data = rng.integers(0, 256, length, dtype=np.uint8).tobytes()
                assert conn._xor(7, data) == reference_xor(7, data), (
                    state, length)

    def test_one_pad_serves_every_connection_at_a_packet_number(self):
        _keystream_pad.cache_clear()
        a = quic_connection_for("10.0.0.2", SECRET)
        b = quic_connection_for("10.0.0.3", SECRET)
        datagram = a.protect_frame(b"x" * 400)[0]
        b.protect_frame(b"y" * 80)
        assert _keystream_pad.cache_info().currsize == 1
        assert quic_connection_for("10.0.0.2", SECRET).unprotect(
            datagram) == b"x" * 400
        assert _keystream_pad.cache_info().currsize == 1


class TestSemanticPool:
    @pytest.mark.parametrize("fps,seed,size", [
        (90.0, 0, 8), (90, 3, 5), (60.0, 1001, 4), (30.0, 7, 1),
    ])
    def test_cache_equals_builder_and_reference_loop(self, fps, seed, size):
        semantic_pool.cache_clear()
        expected = reference_pool(fps, seed, size)
        built = build_semantic_pool(fps, seed, size)
        assert isinstance(built, tuple)
        assert list(built) == expected
        assert list(semantic_pool(fps, seed, size)) == expected  # miss
        assert list(semantic_pool(fps, seed, size)) == expected  # hit
        assert semantic_pool.cache_info().hits == 1

    def test_sources_read_the_same_bytes(self):
        clear_caches()
        fps = 90.0
        expected = reference_pool(fps, 1000, media.SEMANTIC_POOL_FRAMES)
        assert list(SemanticSource(SECRET, seed=1000)._pool) == expected
        laddered = LadderedPersonaSource(
            SECRET, lambda: LadderLevel.KEYPOINTS, seed=5, pool_size=1,
            keypoint_pool=16, textured_triangles=200,
            simplified_triangles=100, texture_resolution=16,
        )
        assert list(laddered._keypoints) == reference_pool(fps, 5, 16)
        lengths = _semantic_pools(1, 3, pool_library=2)
        assert lengths[0] == [len(p) for p in expected]
        assert lengths[1] == [
            len(p) for p in reference_pool(fps, 1001,
                                           media.SEMANTIC_POOL_FRAMES)
        ]
        assert lengths[2] == lengths[0]

    def test_sfu_fast_path_leaves_the_cache_alone(self):
        semantic_pool.cache_clear()
        semantic_pool(90.0, 0, 4)
        before = semantic_pool.cache_info()
        sfu_cohort_downlink(3, 1.0, seed=4, pool_library=2)
        after = semantic_pool.cache_info()
        assert after.currsize == before.currsize
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_fig6_fanouts_share_one_library(self, monkeypatch):
        """Three fan-outs past the 16-pool library build 16 pools, not
        16 each."""
        from repro.experiments import fig6

        built = []

        def counted(*key):
            built.append(key)
            return build_semantic_pool(*key)

        monkeypatch.setattr(cohort, "build_semantic_pool", counted)
        fig6.run_network_cohort(fanouts=(16, 20, 24), duration_s=3.0)
        assert len(built) == len(set(built)) == 16

    def test_shared_library_equals_one_library_per_fanout(self):
        """Fan-outs below, at and past the library size cycle the shared
        library exactly as their own would."""
        shared = cohort._sfu_cohorts((2, 3, 5), 3.0, seed=1, pool_library=3)
        assert shared == [sfu_cohort_downlink(n, 3.0, seed=1, pool_library=3)
                          for n in (2, 3, 5)]


def session_digest(result):
    """Receiver stats plus a digest of every capture record."""
    sha = hashlib.sha256()
    for user in result.addresses:
        for record in result.capture_of(user).records:
            sha.update(repr(record).encode())
    stats = {
        user: dict(result.receiver_of(user).stats)
        for user in sorted(result.receivers)
    }
    return sha.hexdigest(), stats


class TestReceiverOutcome:
    FAULTS = FaultSchedule.scripted([
        FaultEvent(FaultKind.LOSS_BURST, "U2", 1.0, 0.8, 0.25),
    ])
    # Without the ladder both users stream keypoints the whole call.
    KEYPOINTS_ONLY = ResilienceConfig(enable_ladder=False)

    def session(self, sim=None):
        return default_two_user_testbed().session(
            FACETIME, seed=3, sim=sim, faults=self.FAULTS,
            resilience=self.KEYPOINTS_ONLY, captures=("U1", "U2"))

    def run_scalar(self):
        return self.session().run(4.0)

    def test_session_identical_cold_warm_and_on_a_lane(self):
        clear_caches()
        cold = session_digest(self.run_scalar())
        hits = _reconstructs.cache_info().hits
        warm = session_digest(self.run_scalar())
        assert _reconstructs.cache_info().hits > hits
        runner = CohortRunner()
        runner.add(self.session)
        (laned,) = runner.run(4.0)
        lane = session_digest(laned)
        assert cold == warm == lane
        stats = cold[1]["U2"]
        (peer,) = stats.values()
        assert peer.frames_failed == 0
        assert 0 < peer.frames_reconstructed == peer.frames_received

    @pytest.mark.parametrize("corrupt", ["truncated", "non-finite"])
    def test_bad_plaintext_fails_on_miss_and_hit(self, corrupt):
        if corrupt == "truncated":
            plaintext = build_semantic_pool(90.0, 0, 1)[0][:-6]
        else:
            nan = np.full((68, 3), np.nan)
            frame = KeypointFrame(0, 0.0, nan, nan[:21], nan[:21])
            plaintext = SemanticCodec().encode(
                frame, include_confidence=False).payload
        good = build_semantic_pool(90.0, 0, 1)[0]
        _reconstructs.cache_clear()
        sender = quic_connection_for(SENDER, SECRET)
        rx = SemanticReceiver(SECRET, clock=lambda: 1.0)
        for _ in range(2):
            (bad_datagram,) = sender.protect_frame(plaintext)
            (good_datagram,) = sender.protect_frame(good)
            rx.handle(semantic_packet(bad_datagram))
            rx.handle(semantic_packet(good_datagram))
        record = rx.stats[SENDER]
        assert record.frames_received == 4
        assert record.frames_failed == 2
        assert record.frames_reconstructed == 2
        info = _reconstructs.cache_info()
        assert (info.misses, info.hits) == (2, 2)


class TestTruncatedLongHeader:
    def test_long_header_is_eighteen_bytes(self):
        conn = QuicConnection(b"conn0001", SECRET)
        packet = conn.initial_packet(client_hello_bytes=4)
        assert len(packet) == LONG_HEADER_BYTES + 4 == 18 + 4
        assert LONG_HEADER_BYTES == 10 + CONNECTION_ID_BYTES
        assert conn.unprotect(packet) == bytes(4)

    @pytest.mark.parametrize("length", [15, 16, 17])
    def test_parse_raises_value_error(self, length):
        with pytest.raises(ValueError, match="truncated long header"):
            parse_header(bytes([0xC0]) + bytes(length - 1))

    def test_eighteen_bytes_parse(self):
        header = parse_header(bytes([0xC0]) + bytes(17))
        assert header.long_form and header.packet_number == 0

    @pytest.mark.parametrize("length", [15, 16, 17])
    def test_receiver_counts_a_failed_frame(self, length):
        rx = SemanticReceiver(SECRET, clock=lambda: 0.5)
        rx.handle(semantic_packet(bytes([0xC0]) + bytes(length - 1)))
        record = rx.stats[SENDER]
        assert record.frames_received == 1
        assert record.frames_failed == 1
        assert record.frames_reconstructed == 0


@pytest.mark.parametrize("fps", [math.nan, math.inf])
class TestNonFiniteFps:
    def test_synthesizer_and_capture(self, fps):
        with pytest.raises(ValueError, match="finite"):
            MotionSynthesizer(fps=fps)
        with pytest.raises(ValueError, match="finite"):
            capture_session(4, fps=fps)

    def test_pool_builder_and_cache(self, fps):
        semantic_pool.cache_clear()
        with pytest.raises(ValueError, match="finite"):
            build_semantic_pool(fps, 0, 4)
        with pytest.raises(ValueError, match="finite"):
            semantic_pool(fps, 0, 4)
        assert semantic_pool.cache_info().currsize == 0

    def test_sources(self, fps):
        with pytest.raises(ValueError, match="finite"):
            SemanticSource(SECRET, fps=fps)
        with pytest.raises(ValueError, match="finite"):
            LayeredSemanticSource(SECRET, Layer.BASE, fps=fps)
        with pytest.raises(ValueError, match="finite"):
            LadderedPersonaSource(
                SECRET, lambda: LadderLevel.KEYPOINTS, fps=fps,
                pool_size=1, textured_triangles=200,
                simplified_triangles=100, texture_resolution=16,
            )


def test_caches_are_bounded():
    assert semantic_pool.cache_info().maxsize == 16
    assert _keystream_pad.cache_info().maxsize == 2048
    assert _reconstructs.cache_info().maxsize == 4096
