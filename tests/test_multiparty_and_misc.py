"""Multi-party statistics, report sections, and remaining odds and ends."""

import pytest

from repro import calibration
from repro.core.testbed import multi_user_testbed
from repro.devices.models import MacBook
from repro.geo.regions import city
from repro.netsim.capture import Direction
from repro.netsim.engine import Simulator
from repro.netsim.network import Network
from repro.netsim.node import Host
from repro.vca.profiles import PROFILES, TEAMS, WEBEX


class TestMultiPartyStats:
    @pytest.fixture(scope="class")
    def result(self):
        testbed = multi_user_testbed(
            3, device_factory=MacBook,
            cities=["san jose", "dallas", "washington"],
        )
        return testbed.session(WEBEX, seed=0, captures=("U1",)).run(8.0)

    def test_collector_tracks_every_remote_sender(self, result):
        stats = result.stats_of("U1")
        assert len(stats.origins()) == 2

    def test_each_stream_at_full_rate(self, result):
        stats = result.stats_of("U1")
        for origin in stats.origins():
            snapshot = stats.snapshot(origin)
            assert snapshot.frame_rate_fps == pytest.approx(30.0, abs=2.0)
            assert snapshot.receive_mbps == pytest.approx(4.3, rel=0.12)

    def test_downlink_double_of_two_party(self, result):
        down = result.capture_of("U1").total_bytes(
            Direction.DOWNLINK
        ) * 8 / 8.0 / 1e6
        assert down == pytest.approx(2 * 4.3, rel=0.12)

    def test_rtcp_rtts_collected(self, result):
        stats = result.stats_of("U1")
        assert stats.measured_rtts_ms
        # Relayed through the initiator-nearest (W) server: tens of ms.
        assert 10 < min(stats.measured_rtts_ms) < 120


class TestReportSections:
    def test_rate_section(self):
        from repro.report import ReportSettings, rate_section

        markdown = rate_section(ReportSettings.quick())
        assert "Cutoff" in markdown
        assert "700" in markdown

    def test_ablations_section_lists_all_four(self):
        from repro.report import ReportSettings, ablations_section

        markdown = ablations_section(ReportSettings.quick())
        for tag in ("A1", "A2", "A3", "A4"):
            assert tag in markdown

    def test_protocols_section(self):
        from repro.report import ReportSettings, protocols_section

        markdown = protocols_section(ReportSettings.quick())
        assert "quic" in markdown
        assert "unicast" in markdown


class TestNetsimOddsAndEnds:
    def test_network_stats_drop_accounting(self):
        from repro.netsim.packet import IPPROTO_UDP, Packet
        from repro.netsim.shaper import TrafficShaper

        sim = Simulator()
        network = Network(sim)
        a = Host("10.0.0.2", city("san jose"))
        b = Host("10.0.1.2", city("dallas"))
        network.attach(a)
        network.attach(b)
        network.set_uplink_shaper(
            a.address, TrafficShaper(loss=0.999, seed=0)
        )
        b.bind(5000, lambda p: None)
        for _ in range(5):
            a.send(Packet(a.address, b.address, 4000, 5000, IPPROTO_UDP, b"x"))
        sim.run()
        assert network.stats.packets_sent == 5
        assert network.stats.packets_dropped >= 4
        assert (
            network.stats.packets_delivered
            + network.stats.packets_dropped == 5
        )

    def test_host_unbind_reroutes_to_inbox(self):
        from repro.netsim.packet import IPPROTO_UDP, Packet

        sim = Simulator()
        network = Network(sim)
        a = Host("10.0.0.2", city("san jose"))
        b = Host("10.0.1.2", city("dallas"))
        network.attach(a)
        network.attach(b)
        b.bind(5000, lambda p: None)
        b.unbind(5000)
        a.send(Packet(a.address, b.address, 4000, 5000, IPPROTO_UDP, b"x"))
        sim.run()
        assert len(b.inbox) == 1

    def test_detached_host_cannot_send(self):
        host = Host("10.0.0.9", city("dallas"))
        from repro.netsim.packet import IPPROTO_UDP, Packet

        with pytest.raises(RuntimeError, match="not attached"):
            host.send(Packet(host.address, "10.0.0.1", 1, 2, IPPROTO_UDP, b""))

    def test_ap_accessor(self):
        sim = Simulator()
        network = Network(sim)
        a = Host("10.0.0.2", city("san jose"))
        attachment = network.attach(a)
        assert network.ap_of(a.address) is attachment.ap


class TestCalibrationCoherence:
    """Cross-module consistency of the calibrated pipeline."""

    def test_planner_agrees_with_measured_session(self):
        from repro.core.testbed import default_two_user_testbed
        from repro.vca.planner import plan_session
        from repro.devices.models import VisionPro
        from repro.vca.profiles import FACETIME

        plan = plan_session(FACETIME, [VisionPro(), VisionPro()])
        result = default_two_user_testbed().session(
            FACETIME, seed=0, captures=("U1",)).run(6.0)
        measured_up = result.capture_of("U1").total_bytes(
            Direction.UPLINK
        ) * 8 / 6.0 / 1e6
        assert measured_up == pytest.approx(plan.uplink_mbps, abs=0.1)

    def test_teams_single_server_matches_fleet(self):
        # The profile registry and fleet registry must stay consistent.
        from repro.geo.servers import ALL_FLEETS

        assert len(ALL_FLEETS[TEAMS.name].servers) == \
            calibration.SERVER_COUNTS["Teams"]

    def test_every_profile_has_a_fleet(self):
        from repro.geo.servers import ALL_FLEETS

        assert set(PROFILES) == set(ALL_FLEETS)

    def test_deadline_consistent_with_fps(self):
        from repro.rendering.framerate import vsync_slots

        # A frame exactly at the deadline still fits one slot.
        assert vsync_slots(calibration.FRAME_DEADLINE_MS) == 1
        assert vsync_slots(calibration.FRAME_DEADLINE_MS + 0.01) == 2
