"""SharePlay streams and the automated campaign runner."""

import pytest

from repro.core.campaign import Campaign, CampaignCell, CampaignRecord
from repro.core.testbed import multi_user_testbed
from repro.experiments import shareplay
from repro.netsim.capture import Direction
from repro.vca.profiles import PROFILES
from repro.vca.shareplay import (
    SHAREPLAY_SRC_PORT,
    SharedContentProfile,
    SharedContentSource,
)


class TestSharedContentSource:
    def _run(self, profile, duration_s=4.0):
        testbed = multi_user_testbed(3)
        session = testbed.session(PROFILES["FaceTime"], seed=0,
                                  captures=("U1", "U2"))
        source = SharedContentSource(profile, seed=0)
        target, port = session._media_target(0)
        source.attach(session.sim, session.host_of("U1"), target, port)
        result = session.run(duration_s)
        return source, result, duration_s

    def test_movie_rate_near_profile(self):
        source, result, duration = self._run(SharedContentProfile.movie())
        records = result.capture_of("U1").filter(direction=Direction.UPLINK)
        share = [r for r in records if r.src_port == SHAREPLAY_SRC_PORT]
        mbps = sum(r.wire_bytes for r in share) * 8 / duration / 1e6
        assert mbps == pytest.approx(8.0, rel=0.15)

    def test_content_forwarded_to_viewers(self):
        source, result, duration = self._run(SharedContentProfile.movie())
        down = result.capture_of("U2").filter(direction=Direction.DOWNLINK)
        share = [r for r in down if r.src_port == SHAREPLAY_SRC_PORT]
        assert share  # the SFU fans the content out like any stream

    def test_persona_coexists_on_fast_ap(self):
        source, result, _ = self._run(SharedContentProfile.game())
        receiver = result.receiver_of("U2")
        stats = receiver.stats[result.addresses["U1"]]
        assert stats.availability() > 0.97

    def test_whiteboard_is_light(self):
        source, result, duration = self._run(
            SharedContentProfile.whiteboard()
        )
        records = result.capture_of("U1").filter(direction=Direction.UPLINK)
        share = [r for r in records if r.src_port == SHAREPLAY_SRC_PORT]
        mbps = sum(r.wire_bytes for r in share) * 8 / duration / 1e6
        assert mbps < 0.5

    def test_invalid_profile(self):
        with pytest.raises(ValueError):
            SharedContentSource(SharedContentProfile(
                SharedContentProfile.movie().kind, 0.0, 24, 0.2
            ))


class TestSharePlayExperiment:
    @pytest.fixture(scope="class")
    def outcomes(self):
        return shareplay.run(duration_s=6.0, seed=0)

    def test_all_content_kinds_measured(self, outcomes):
        assert set(outcomes) == {"movie", "whiteboard", "game"}

    def test_content_dominates_bandwidth(self, outcomes):
        # A movie is an order of magnitude above the persona's 0.68 Mbps.
        assert outcomes["movie"].host_uplink_mbps > 5.0
        assert outcomes["whiteboard"].host_uplink_mbps < 2.0

    def test_persona_survives_unconstrained(self, outcomes):
        for outcome in outcomes.values():
            assert outcome.persona_survives_unconstrained

    def test_heavy_content_starves_persona_on_tight_uplink(self, outcomes):
        # The fixed-rate semantic stream cannot defend itself against a
        # bulky shared stream on a 2 Mbps uplink (no rate adaptation).
        assert outcomes["game"].shaped_persona_availability < 0.9
        assert outcomes["whiteboard"].shaped_persona_availability > 0.97

    def test_table_renders(self, outcomes):
        assert "movie" in shareplay.format_table(outcomes)


class TestCampaign:
    def test_cell_validation(self):
        with pytest.raises(ValueError):
            CampaignCell("Skype", 2)
        with pytest.raises(ValueError):
            CampaignCell("Zoom", 1)
        with pytest.raises(ValueError):
            CampaignCell("Zoom", 2, duration_s=0)

    def test_device_factory_must_return_device(self):
        # Regression: a factory returning a non-Device used to slip
        # through __post_init__ and blow up mid-campaign instead.
        with pytest.raises(ValueError, match="must return a Device"):
            CampaignCell("Zoom", 2, device_factory=lambda: "not a device")
        with pytest.raises(ValueError, match="callable"):
            CampaignCell("Zoom", 2, device_factory="VisionPro")

    def test_grid_skips_over_cap_facetime(self):
        campaign = Campaign.grid(["FaceTime", "Webex"], [2, 6],
                                 duration_s=1.0, repeats=1)
        facetime_counts = [
            c.n_users for c in campaign.cells if c.vca == "FaceTime"
        ]
        webex_counts = [
            c.n_users for c in campaign.cells if c.vca == "Webex"
        ]
        assert facetime_counts == [2]       # 6 exceeds the persona cap
        assert webex_counts == [2, 6]       # 2D personas have no cap

    def test_empty_campaign_rejected(self):
        with pytest.raises(ValueError):
            Campaign([])

    def test_run_produces_one_record_per_repeat(self):
        campaign = Campaign(
            [CampaignCell("Zoom", 2, duration_s=3.0, repeats=2)]
        )
        records = campaign.run()
        assert len(records) == 2
        assert all(isinstance(r, CampaignRecord) for r in records)
        assert records[0].seed != records[1].seed

    def test_records_capture_the_findings(self):
        campaign = Campaign([
            CampaignCell("FaceTime", 2, duration_s=3.0, repeats=1),
            CampaignCell("Webex", 2, duration_s=3.0, repeats=1),
        ])
        by_vca = {r.vca: r for r in campaign.run()}
        assert by_vca["FaceTime"].protocol == "quic"
        assert by_vca["FaceTime"].persona_kind == "spatial"
        assert by_vca["Webex"].protocol == "rtp"
        assert by_vca["FaceTime"].uplink_mbps_mean < \
            by_vca["Webex"].uplink_mbps_mean

    def test_csv_export(self, tmp_path):
        campaign = Campaign(
            [CampaignCell("Zoom", 2, duration_s=2.0, repeats=1)]
        )
        campaign.run()
        path = tmp_path / "campaign.csv"
        campaign.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("vca,n_users")
        assert len(lines) == 2

    def test_csv_before_run_rejected(self, tmp_path):
        campaign = Campaign(
            [CampaignCell("Zoom", 2, duration_s=2.0, repeats=1)]
        )
        with pytest.raises(RuntimeError):
            campaign.to_csv(tmp_path / "x.csv")

    def test_summary_groups(self):
        campaign = Campaign([
            CampaignCell("Zoom", 2, duration_s=4.0, repeats=2),
        ])
        campaign.run()
        summary = campaign.summary_by("vca")
        assert summary["Zoom"]["sessions"] == 2.0
        assert summary["Zoom"]["uplink_mbps_mean"] > 1.0

    def test_progress_callback(self):
        seen = []
        campaign = Campaign(
            [CampaignCell("Zoom", 2, duration_s=2.0, repeats=2)]
        )
        campaign.run(progress=seen.append)
        assert len(seen) == 2
