"""Telepresence sessions end to end, and the semantic receiver."""

import pytest

from repro import calibration
from repro.core.testbed import default_two_user_testbed, multi_user_testbed
from repro.devices.models import MacBook, VisionPro
from repro.geo.regions import city
from repro.netsim.capture import Direction
from repro.netsim.shaper import TrafficShaper
from repro.vca.cohort import CohortRunner
from repro.vca.profiles import FACETIME, PROFILES, WEBEX, ZOOM, PersonaKind, Protocol
from repro.vca.session import Participant, TelepresenceSession


def two_user_session(profile=FACETIME, u2=None, seed=0, captures=()):
    testbed = default_two_user_testbed(u2_device=u2)
    return testbed.session(profile, seed=seed, captures=captures)


class TestSessionSetup:
    def test_spatial_session_properties(self):
        session = two_user_session()
        assert session.persona_kind is PersonaKind.SPATIAL
        assert session.protocol is Protocol.QUIC
        assert not session.p2p
        assert session.server is not None

    def test_mixed_device_fallback(self):
        session = two_user_session(u2=MacBook())
        assert session.persona_kind is PersonaKind.TWO_D
        assert session.protocol is Protocol.RTP
        assert session.p2p
        assert session.server is None

    def test_server_follows_initiator(self):
        testbed = default_two_user_testbed(u1_city="washington",
                                           u2_city="san jose")
        session = testbed.session(WEBEX, seed=0)
        assert session.server.label == "E"
        flipped = testbed.session(WEBEX, seed=0, initiator_index=1)
        assert flipped.server.label == "W"

    def test_spatial_persona_user_cap(self):
        with pytest.raises(ValueError, match="at most"):
            multi_user_testbed(
                6, cities=["san jose", "dallas", "washington", "chicago",
                           "seattle", "miami"]
            ).session(FACETIME)

    def test_six_users_fine_for_2d_vcas(self):
        testbed = multi_user_testbed(
            6, cities=["san jose", "dallas", "washington", "chicago",
                       "seattle", "miami"]
        )
        session = testbed.session(WEBEX)
        assert session.persona_kind is PersonaKind.TWO_D

    def test_single_participant_rejected(self):
        with pytest.raises(ValueError):
            TelepresenceSession(
                FACETIME, [Participant("U1", VisionPro(), city("dallas"))]
            )


class TestSessionTraffic:
    def test_spatial_uplink_rate(self):
        result = two_user_session(captures=("U1",)).run(10.0)
        mbps = result.capture_of("U1").total_bytes(Direction.UPLINK) * 8 / 10 / 1e6
        assert mbps == pytest.approx(calibration.SPATIAL_PERSONA_MBPS, abs=0.1)

    def test_downlink_mirrors_uplink_two_users(self):
        result = two_user_session(captures=("U1",)).run(10.0)
        cap = result.capture_of("U1")
        up = cap.total_bytes(Direction.UPLINK)
        down = cap.total_bytes(Direction.DOWNLINK)
        assert down == pytest.approx(up, rel=0.1)

    def test_receiver_sees_full_availability(self):
        result = two_user_session().run(10.0)
        receiver = result.receiver_of("U2")
        u1 = result.addresses["U1"]
        assert receiver.stats[u1].availability() > 0.97
        assert not receiver.any_poor_connection()

    def test_2d_session_counts_video(self):
        result = two_user_session(u2=MacBook()).run(5.0)
        assert result.video_packets_received["U2"] > 0

    def test_shaped_uplink_starves_persona(self):
        session = two_user_session(seed=3)
        session.shape_uplink("U1", TrafficShaper(rate_bps=400_000))
        result = session.run(10.0)
        receiver = result.receiver_of("U2")
        u1 = result.addresses["U1"]
        assert receiver.stats[u1].poor_connection()

    def test_injected_delay_does_not_break_persona(self):
        session = two_user_session(seed=4)
        session.shape_uplink("U1", TrafficShaper(delay_ms=500))
        result = session.run(10.0)
        receiver = result.receiver_of("U2")
        u1 = result.addresses["U1"]
        assert not receiver.stats[u1].poor_connection()

    def test_multi_user_downlink_scales(self):
        rates = {}
        for n in (2, 4):
            testbed = multi_user_testbed(n)
            result = testbed.session(FACETIME, seed=0,
                                     captures=("U1",)).run(8.0)
            cap = result.capture_of("U1")
            rates[n] = cap.total_bytes(Direction.DOWNLINK) * 8 / 8.0 / 1e6
        assert rates[4] == pytest.approx(3 * rates[2], rel=0.15)

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            two_user_session().run(0)


class TestBatchCohortFacade:
    """The traffic scenarios above, re-run through the batch engine.

    One :class:`~repro.vca.cohort.CohortRunner` hosts the whole cohort
    on a shared engine; every lane must exhibit the same invariants a
    session on its own scalar simulator does.
    """

    @pytest.mark.parametrize("cohort_size", [1, 4, 32])
    def test_traffic_invariants_hold_on_every_lane(self, cohort_size):
        duration = 3.0 if cohort_size < 32 else 2.0
        runner = CohortRunner()
        for seed in range(cohort_size):
            runner.add(lambda sim, s=seed: default_two_user_testbed().session(
                FACETIME, seed=s, sim=sim, captures=("U1",)))
        for result in runner.run(duration):
            cap = result.capture_of("U1")
            up = cap.total_bytes(Direction.UPLINK)
            mbps = up * 8 / duration / 1e6
            assert mbps == pytest.approx(calibration.SPATIAL_PERSONA_MBPS,
                                         abs=0.15)
            assert cap.total_bytes(Direction.DOWNLINK) == pytest.approx(
                up, rel=0.1)
            receiver = result.receiver_of("U2")
            u1 = result.addresses["U1"]
            assert receiver.stats[u1].availability() > 0.97
            assert not receiver.any_poor_connection()

    @pytest.mark.parametrize("cohort_size", [1, 4])
    def test_shaped_lane_starves_only_itself(self, cohort_size):
        runner = CohortRunner()
        sessions = [
            runner.add(lambda sim, s=seed:
                       default_two_user_testbed().session(FACETIME, seed=s,
                                                          sim=sim))
            for seed in range(cohort_size)
        ]
        sessions[-1].shape_uplink("U1", TrafficShaper(rate_bps=400_000))
        results = runner.run(6.0)
        for i, result in enumerate(results):
            receiver = result.receiver_of("U2")
            u1 = result.addresses["U1"]
            starved = receiver.stats[u1].poor_connection()
            assert starved == (i == cohort_size - 1), i


class TestReceiverAccounting:
    def test_availability_zero_before_traffic(self):
        from repro.vca.receiver import PersonaAvailability

        fresh = PersonaAvailability("x")
        assert fresh.availability() == 0.0
        assert fresh.poor_connection()

    def test_expected_fps_validated(self):
        from repro.vca.receiver import PersonaAvailability

        with pytest.raises(ValueError):
            PersonaAvailability("x").availability(expected_fps=0)

    def test_corrupt_frames_counted_failed(self):
        from repro.netsim.packet import IPPROTO_UDP, Packet
        from repro.vca.receiver import SemanticReceiver

        receiver = SemanticReceiver(b"secret" * 4, clock=lambda: 1.0)
        bogus = Packet("10.0.0.2", "10.0.1.2", 1, 2, IPPROTO_UDP,
                       b"\x40" + b"junk" * 10, meta={"kind": "semantic"})
        receiver.handle(bogus)
        stats = receiver.stats["10.0.0.2"]
        assert stats.frames_failed == 1
        assert stats.frames_reconstructed == 0

    def test_non_semantic_packets_ignored(self):
        from repro.netsim.packet import IPPROTO_UDP, Packet
        from repro.vca.receiver import SemanticReceiver

        receiver = SemanticReceiver(b"secret" * 4, clock=lambda: 1.0)
        audio = Packet("10.0.0.2", "10.0.1.2", 1, 2, IPPROTO_UDP, b"a",
                       meta={"kind": "audio"})
        receiver.handle(audio)
        assert receiver.other_packets == 1
        assert receiver.stats == {}
