"""Mesh quality metrics and passive QoE estimation."""

import numpy as np
import pytest

from repro.analysis.qoe_estimation import estimate_from_capture
from repro.core.testbed import default_two_user_testbed
from repro.mesh.codec import DracoLikeCodec
from repro.mesh.generate import head_mesh
from repro.mesh.metrics import (
    quality_fraction,
    sample_surface,
    surface_distance,
)
from repro.mesh.simplify import decimate
from repro.netsim.capture import Direction
from repro.netsim.shaper import TrafficShaper
from repro.vca.profiles import FACETIME, WEBEX, ZOOM


@pytest.fixture(scope="module")
def head():
    return head_mesh(4000, seed=0, scan_like=False)


class TestSurfaceSampling:
    def test_samples_on_surface_scale(self, head):
        points = sample_surface(head, 500, seed=0)
        assert points.shape == (500, 3)
        lo, hi = head.bounding_box()
        assert (points >= lo - 1e-9).all()
        assert (points <= hi + 1e-9).all()

    def test_sampling_deterministic(self, head):
        a = sample_surface(head, 100, seed=3)
        b = sample_surface(head, 100, seed=3)
        assert np.array_equal(a, b)

    def test_invalid_count(self, head):
        with pytest.raises(ValueError):
            sample_surface(head, 0)


class TestSurfaceDistance:
    def test_identical_meshes_near_zero(self, head):
        distance = surface_distance(head, head, n_samples=500)
        # Samples sit inside triangles; nearest-vertex distance is
        # bounded by the edge lengths, tiny relative to the bbox.
        assert distance.normalized_mean < 0.02

    def test_decimation_increases_distance(self, head):
        mild = decimate(head, 48)
        harsh = decimate(head, 8)
        d_mild = surface_distance(head, mild, n_samples=500)
        d_harsh = surface_distance(head, harsh, n_samples=500)
        assert d_harsh.mean > d_mild.mean

    def test_codec_quantization_visible(self, head):
        coarse = DracoLikeCodec(quantization_bits=5)
        fine = DracoLikeCodec(quantization_bits=14)
        d_coarse = surface_distance(
            head, coarse.decode(coarse.encode(head)), n_samples=400
        )
        d_fine = surface_distance(
            head, fine.decode(fine.encode(head)), n_samples=400
        )
        assert d_coarse.mean > d_fine.mean

    def test_percentiles_ordered(self, head):
        distance = surface_distance(head, decimate(head, 12), n_samples=500)
        assert distance.mean <= distance.p95 <= distance.max


class TestQualityFraction:
    def test_identity_near_one(self, head):
        assert quality_fraction(head, head, n_samples=400) > 0.7

    def test_monotone_in_decimation(self, head):
        q_mild = quality_fraction(head, decimate(head, 48), n_samples=400)
        q_harsh = quality_fraction(head, decimate(head, 8), n_samples=400)
        assert 0.0 <= q_harsh < q_mild <= 1.0


class TestPassiveQoeEstimation:
    def test_clean_webex_scores_high(self):
        result = default_two_user_testbed().session(
            WEBEX, seed=0, captures=("U1",)).run(8.0)
        estimate = estimate_from_capture(
            result.capture_of("U1"), Direction.DOWNLINK,
            one_way_delay_ms=30.0,
        )
        assert estimate.protocol == "rtp"
        assert estimate.estimated_loss == pytest.approx(0.0)
        assert estimate.qoe_score > 0.9

    def test_lossy_zoom_scores_lower(self):
        session = default_two_user_testbed().session(ZOOM, seed=1,
                                                      captures=("U1",))
        session.shape_uplink("U2", TrafficShaper(loss=0.10, seed=5))
        result = session.run(8.0)
        estimate = estimate_from_capture(
            result.capture_of("U1"), Direction.DOWNLINK,
            one_way_delay_ms=30.0,
        )
        assert estimate.estimated_loss > 0.05
        assert estimate.qoe_score < 0.92

    def test_quic_hides_loss(self):
        result = default_two_user_testbed().session(
            FACETIME, seed=0, captures=("U1",)).run(6.0)
        estimate = estimate_from_capture(
            result.capture_of("U1"), Direction.DOWNLINK,
            one_way_delay_ms=30.0,
        )
        assert estimate.protocol == "quic"
        assert estimate.estimated_loss is None  # the Sec. 5 limitation
        assert estimate.estimated_fps == pytest.approx(90.0, abs=4.0)

    def test_long_path_penalized(self):
        result = default_two_user_testbed().session(
            WEBEX, seed=0, captures=("U1",)).run(6.0)
        near = estimate_from_capture(result.capture_of("U1"),
                                     one_way_delay_ms=30.0)
        far = estimate_from_capture(result.capture_of("U1"),
                                    one_way_delay_ms=220.0)
        assert far.qoe_score < near.qoe_score

    def test_empty_direction_rejected(self):
        from repro.netsim.capture import PacketCapture

        with pytest.raises(ValueError):
            estimate_from_capture(PacketCapture("10.0.0.2"))
