"""The fleet-scale fault gauntlet: engines, kernels, campaign, CLI.

Covers the acceptance criteria of the gauntlet PR:

- a cohort of one running the ``standard`` scenario writes a CSV that is
  byte-identical to a scalar-engine session's (the ``cmp`` criterion);
- grouped cohort arming leaves every lane equal to its session run
  alone on the scalar engine, while arming one cohort event per
  distinct domain event instead of lanes x events;
- the server-side defenses (failover re-assignment, QoE-aware load
  shedding, SFU admission control) keep their invariants;
- the campaign sweep is deterministic, cached, parallel and resumable
  byte for byte, and the CLI subcommand drives it end to end.
"""

import csv

import numpy as np
import pytest

from repro.core.testbed import default_two_user_testbed
from repro.experiments import gauntlet
from repro.experiments.gauntlet import (
    LANE_FIELDS,
    GauntletResult,
    evaluate_fleet_cell,
    run_cohort,
)
from repro.experiments.resilience import OBSERVER, VICTIM, lane_seed
from repro.faults.ladder import LadderLevel
from repro.faults.resilient import ResilienceConfig
from repro.faults.schedule import derive_seed, standard_disturbance
from repro.geo.servers import failover_assignment, shed_overload
from repro.vca.profiles import PROFILES

# Small-but-real fleet settings: coarse lattice, short campaign.
FAST = dict(seed=0, duration_s=60.0, tick_s=1.0, k=4, regions=8,
            session_size=2, site_step_deg=12.0)
SWEEP = dict(seed=0, duration_s=60.0, tick_s=1.0, k=4, regions=8,
             session_size=2, site_step_deg=12.0)
POLICIES = ["initiator-nearest", "load-aware"]


def scalar_session(profile_name, seed, duration_s, faults):
    """One two-user resilient session run on its own scalar engine."""
    session = default_two_user_testbed().session(
        PROFILES[profile_name], seed=seed, faults=faults,
        resilience=ResilienceConfig())
    return session.run(duration_s)


def scalar_lane_row(profile_name, duration_s, seed):
    """Lane 0's row, read off a scalar-engine session under the standard
    disturbance: the cohort-of-1 reference."""
    result = scalar_session(profile_name, seed, duration_s,
                            standard_disturbance(duration_s, VICTIM))
    resilience = result.resilience
    report = resilience.report(OBSERVER, VICTIM)
    occupancy = resilience.ladders[VICTIM].occupancy_fractions(duration_s)
    return {
        "lane": 0,
        "profile": profile_name,
        "persona": result.persona_kind.value,
        "p2p": result.p2p,
        "mos_mean": report.mos_mean,
        "total_stall_s": report.total_stall_s,
        "mean_ttr_s": report.mean_ttr_s,
        "max_ttr_s": report.max_ttr_s,
        "failovers": resilience.reconnects,
        "top_rung_fraction": occupancy.get(LadderLevel.TEXTURED_MESH, 0.0),
        "audio_only_fraction": occupancy.get(LadderLevel.AUDIO_ONLY, 0.0),
        "recovered": report.all_recovered,
    }


def lane_rows_to_csv(rows, path):
    """Write cohort lane rows with the shared column order."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(LANE_FIELDS)
        for row in rows:
            writer.writerow([row[field] for field in LANE_FIELDS])


class TestSeeds:
    def test_lane_zero_keeps_base_seed(self):
        assert lane_seed(7, 0) == 7

    def test_other_lanes_derive_independent_streams(self):
        assert lane_seed(7, 1) == derive_seed(7, "lane", 1)
        assert lane_seed(7, 1) != lane_seed(7, 2)

    def test_world_seed_is_policy_free(self):
        """Every policy of one row faces the identical incident."""
        a = evaluate_fleet_cell("mixed", "initiator-nearest", 20, **FAST)
        b = evaluate_fleet_cell("mixed", "load-aware", 20, **FAST)
        assert a["events"] == b["events"]


class TestFailoverAssignment:
    RTT = np.array([[10.0, 50.0, 90.0],
                    [80.0, 20.0, 60.0],
                    [70.0, 40.0, 30.0]])

    def test_all_up_is_identity(self):
        base = np.array([0, 1, 2])
        moved, displaced = failover_assignment(
            self.RTT, base, np.array([True, True, True]))
        assert moved.tolist() == [0, 1, 2]
        assert not displaced.any()

    def test_down_server_never_assigned(self):
        base = np.array([0, 1, 2])
        up = np.array([True, False, True])
        moved, displaced = failover_assignment(self.RTT, base, up)
        assert displaced.tolist() == [False, True, False]
        # user 1 fails over to its next-best *up* server (60 < 80)
        assert moved.tolist() == [0, 2, 2]

    def test_shed_users_stay_shed(self):
        base = np.array([0, -1, 2])
        moved, displaced = failover_assignment(
            self.RTT, base, np.array([False, True, True]))
        assert moved[1] == -1
        assert moved[0] == 1  # displaced user 0 -> nearest up server

    def test_total_outage_sheds_everyone(self):
        base = np.array([0, 1, 2])
        moved, displaced = failover_assignment(
            self.RTT, base, np.zeros(3, dtype=bool))
        assert moved.tolist() == [-1, -1, -1]
        assert displaced.all()


class TestShedOverload:
    def test_respects_capacity(self):
        rtt = np.array([[10.0, 40.0], [12.0, 42.0],
                        [14.0, 44.0], [16.0, 46.0]])
        base = np.zeros(4, dtype=np.int64)
        up = np.array([True, True])
        moved, shed, moves = shed_overload(rtt, base, up, capacity=2.0)
        occupancy = np.bincount(moved[moved >= 0], minlength=2)
        assert (occupancy <= 2).all()
        assert not shed.any()  # server 1 had headroom: moved, not shed
        assert moves == 2

    def test_sheds_when_no_alternative_fits(self):
        # One-way delays 75/125/175 ms straddle the 100 ms QoE knee, so
        # shedding the farthest users costs the least delay factor.
        rtt = np.array([[150.0], [250.0], [350.0]])
        base = np.zeros(3, dtype=np.int64)
        moved, shed, moves = shed_overload(
            rtt, base, np.array([True]), capacity=1.0)
        assert (moved >= 0).sum() == 1
        assert shed.sum() == 2
        assert moves == 0
        assert moved[0] == 0 and shed.tolist() == [False, True, True]

    def test_down_server_drains_completely(self):
        rtt = np.array([[10.0, 40.0], [12.0, 42.0]])
        base = np.zeros(2, dtype=np.int64)
        up = np.array([False, True])
        moved, shed, _ = shed_overload(rtt, base, up, capacity=10.0)
        assert (moved == 1).all()
        assert not shed.any()

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        rtt = rng.uniform(5.0, 95.0, size=(40, 3))
        base = rng.integers(0, 3, size=40)
        up = np.array([True, True, False])
        a = shed_overload(rtt, base, up, capacity=12.0)
        b = shed_overload(rtt, base, up, capacity=12.0)
        assert (a[0] == b[0]).all() and (a[1] == b[1]).all()
        assert a[2] == b[2]


class TestAdmissionControl:
    def test_generous_limit_is_bit_identical_to_default(self):
        from repro.vca.cohort import sfu_cohort_downlink

        plain = sfu_cohort_downlink(3, 6.0, seed=0, observers=[0])
        limited = sfu_cohort_downlink(3, 6.0, seed=0, observers=[0],
                                      admission_limit=3)
        assert limited == plain
        assert limited.shed_users == ()

    def test_sheds_farthest_users(self):
        from repro.vca.cohort import sfu_cohort_downlink

        full = sfu_cohort_downlink(4, 6.0, seed=0, observers=[0, 1, 2, 3])
        cut = sfu_cohort_downlink(4, 6.0, seed=0, observers=[0, 1, 2, 3],
                                  admission_limit=3)
        assert len(cut.shed_users) == 1
        victim = cut.shed_users[0]
        # a shed observer receives nothing
        assert cut.observer_windows_mbps[victim] == []
        assert cut.observer_late_fraction[victim] == 0.0
        # admitted users still hear from each other
        kept = [i for i in range(4) if i != victim]
        for index in kept:
            assert len(cut.observer_windows_mbps[index]) > 0
        # the full cohort saw traffic on every downlink
        assert all(len(full.observer_windows_mbps[i]) > 0
                   for i in range(4))

    def test_tiny_limit_rejected(self):
        from repro.vca.cohort import sfu_cohort_downlink

        with pytest.raises(ValueError, match="at least two"):
            sfu_cohort_downlink(3, 4.0, seed=0, admission_limit=1)


class TestEvaluateFleetCell:
    def test_deterministic(self):
        a = evaluate_fleet_cell("mixed", "load-aware", 20, **FAST)
        b = evaluate_fleet_cell("mixed", "load-aware", 20, **FAST)
        assert a == b

    def test_fault_free_twin_of_itself(self):
        record = evaluate_fleet_cell("none", "load-aware", 20, **FAST)
        assert record["events"] == 0
        assert record["peak_degraded_fraction"] == 0.0
        assert record["qoe_delta"] == 0.0
        assert record["recovered_fraction"] == 1.0
        assert record["ttr_max_s"] == 0.0

    def test_mixed_incident_degrades_and_recovers(self):
        record = evaluate_fleet_cell("mixed", "load-aware", 40, **FAST)
        assert record["events"] > 0
        assert record["qoe_delta"] < 0.0
        assert record["ever_degraded_fraction"] > 0.0
        assert record["ttr_max_s"] >= record["ttr_p95_s"] >= \
            record["ttr_p50_s"] >= 0.0
        assert 0.0 <= record["recovered_fraction"] <= 1.0

    def test_json_safe_record(self):
        import json

        record = evaluate_fleet_cell("region-outage", "initiator-nearest",
                                     20, **FAST)
        assert json.loads(json.dumps(record)) == record

    def test_validation(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            evaluate_fleet_cell("meteor-strike", "load-aware", 20, **FAST)
        with pytest.raises(ValueError, match="at least one session"):
            evaluate_fleet_cell("mixed", "load-aware", 0, **FAST)
        with pytest.raises(ValueError, match="positive"):
            evaluate_fleet_cell("mixed", "load-aware", 20, seed=0,
                                tick_s=0.0)

    def test_increments_obs_counters(self):
        from repro.obs import metrics as obs_metrics

        before = obs_metrics.counter("gauntlet.cells").value
        record = evaluate_fleet_cell("region-outage", "load-aware", 20,
                                     **FAST)
        assert obs_metrics.counter("gauntlet.cells").value == before + 1
        assert record["events"] >= 0


class TestRunSweep:
    def test_sweep_covers_the_grid(self):
        result = gauntlet.run(scenarios=["region-outage", "none"],
                              policies=POLICIES, fleet_sizes=[20],
                              **SWEEP)
        assert len(result.records) == 4
        assert result.scenarios() == ["region-outage", "none"]
        record = result.record("none", "load-aware", 20)
        assert record["qoe_delta"] == 0.0

    def test_worst_minimizes_qoe_delta(self):
        result = gauntlet.run(scenarios=["mixed", "none"],
                              policies=["load-aware"], fleet_sizes=[20],
                              **SWEEP)
        worst = result.worst()
        assert worst["qoe_delta"] == min(r["qoe_delta"]
                                         for r in result.records)
        assert worst["scenario"] == "mixed"

    def test_unknown_scenario_fails_fast(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            gauntlet.run(scenarios=["nope"], policies=POLICIES,
                         fleet_sizes=[20], **SWEEP)

    def test_unknown_policy_fails_fast(self):
        with pytest.raises(KeyError, match="unknown policy"):
            gauntlet.run(scenarios=["none"], policies=["warp-drive"],
                         fleet_sizes=[20], **SWEEP)

    def test_bad_fleet_sizes(self):
        with pytest.raises(ValueError, match="fleet_sizes"):
            gauntlet.run(scenarios=["none"], policies=POLICIES,
                         fleet_sizes=[0], **SWEEP)

    def test_cache_round_trip_identical(self, tmp_path):
        from repro.core.cache import ResultCache

        cache = ResultCache(tmp_path)
        cold = gauntlet.run(scenarios=["region-outage"], policies=POLICIES,
                            fleet_sizes=[20], cache=cache, **SWEEP)
        warm = gauntlet.run(scenarios=["region-outage"], policies=POLICIES,
                            fleet_sizes=[20], cache=cache, **SWEEP)
        assert cold.records == warm.records

    def test_resume_from_journal_byte_identical(self, tmp_path):
        from repro.core.journal import RunJournal, RunManifest

        journal_path = tmp_path / "gauntlet.journal"
        with RunJournal(journal_path) as journal:
            full = gauntlet.run(scenarios=["region-outage"],
                                policies=POLICIES, fleet_sizes=[20],
                                journal=journal, **SWEEP)
        manifest = RunManifest()
        with RunJournal(journal_path) as journal:
            resumed = gauntlet.run(scenarios=["region-outage"],
                                   policies=POLICIES, fleet_sizes=[20],
                                   journal=journal, resume=True,
                                   manifest=manifest, **SWEEP)
        assert resumed.records == full.records
        assert all(cell.status == "resumed" for cell in manifest.cells)
        a, b = tmp_path / "full.csv", tmp_path / "resumed.csv"
        full.to_csv(a)
        resumed.to_csv(b)
        assert a.read_bytes() == b.read_bytes()

    def test_parallel_matches_serial(self, tmp_path):
        serial = gauntlet.run(scenarios=["region-outage"],
                              policies=POLICIES, fleet_sizes=[20],
                              jobs=1, **SWEEP)
        pooled = gauntlet.run(scenarios=["region-outage"],
                              policies=POLICIES, fleet_sizes=[20],
                              jobs=2, **SWEEP)
        assert serial.records == pooled.records

    def test_format_table_and_csv(self, tmp_path):
        result = gauntlet.run(scenarios=["none"], policies=POLICIES,
                              fleet_sizes=[20], **SWEEP)
        table = result.format_table()
        assert "load-aware" in table and "qoe_delta" in table
        path = tmp_path / "cells.csv"
        result.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(GauntletResult.FIELDS)
        assert len(lines) == 1 + len(result.records)

    def test_missing_record_raises(self):
        with pytest.raises(KeyError, match="no record"):
            GauntletResult(records=[]).record("mixed", "load-aware", 20)


class TestCohortEngine:
    def test_cohort_of_one_matches_scalar_csv(self, tmp_path):
        """The acceptance ``cmp``: batch engine == scalar path, in bytes.

        FaceTime at the study's 30 s; the other profiles at the standard
        disturbance's 10 s minimum.
        """
        for profile, duration_s in (("FaceTime", 30.0), ("Zoom", 10.0),
                                    ("Webex", 10.0), ("Teams", 10.0)):
            rows = run_cohort(profile, 1, duration_s=duration_s, seed=0,
                              scenario="standard")
            reference = [scalar_lane_row(profile, duration_s, seed=0)]
            cohort_csv = tmp_path / f"{profile}-cohort.csv"
            scalar_csv = tmp_path / f"{profile}-scalar.csv"
            lane_rows_to_csv(rows, cohort_csv)
            lane_rows_to_csv(reference, scalar_csv)
            assert cohort_csv.read_bytes() == scalar_csv.read_bytes()

    def test_grouped_arming_matches_scalar_sessions(self):
        """Grouped cohort arming changes the engine, never the results.

        Seed 0 ``mixed`` over 15 s samples two region outages covering
        two lanes each: four (lane, event) pairs arm as two cohort
        events, and every lane's report equals its session run alone on
        the scalar engine with the same schedule and seed.
        """
        from repro.faults.cohort import CohortInjector
        from repro.faults.domains import build_plan, lane_schedules
        from repro.vca.cohort import CohortRunner

        n_lanes, duration_s, seed = 4, 15.0, 0
        lane_regions = np.arange(n_lanes) % 2
        plan = build_plan("mixed", seed, duration_s, lane_regions,
                          n_regions=2)
        assert len(plan.events) == 2  # the fixture this test relies on
        schedules = lane_schedules(plan, VICTIM)

        runner = CohortRunner()
        for lane in range(n_lanes):
            runner.add(lambda sim, lane=lane: (
                default_two_user_testbed().session(
                    PROFILES["FaceTime"], seed=lane_seed(seed, lane),
                    faults=schedules[lane], resilience=ResilienceConfig(),
                    sim=sim)))
        grouped = [r.resilience.report(OBSERVER, VICTIM)
                   for r in runner.run(duration_s)]
        scalar = [
            scalar_session("FaceTime", lane_seed(seed, lane), duration_s,
                           schedules[lane]).resilience.report(
                               OBSERVER, VICTIM)
            for lane in range(n_lanes)
        ]
        assert grouped == scalar
        injector = CohortInjector.of(runner.batch)
        assert injector.sealed
        assert injector.lane_events_covered == 4
        assert injector.cohort_events_armed == 2

    def test_no_faults_scenario_stays_healthy(self):
        rows = run_cohort("FaceTime", 1, duration_s=10.0, seed=0,
                          scenario="none")
        assert rows[0]["recovered"] is True
        assert rows[0]["failovers"] == 0
        assert rows[0]["total_stall_s"] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one lane"):
            run_cohort("FaceTime", 0)
        with pytest.raises(KeyError):
            run_cohort("FaceTime", 1, scenario="meteor-strike")


class TestCli:
    def test_gauntlet_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        csv_path = tmp_path / "out.csv"
        code = main([
            "gauntlet", "--scenarios", "region-outage,none",
            "--policies", "initiator-nearest,load-aware",
            "--fleet-sizes", "20", "--gauntlet-duration", "60",
            "--k", "4", "--regions", "8", "--session-size", "2",
            "--site-step", "12", "--no-cache", "--csv", str(csv_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "region-outage" in out
        assert "worst cell:" in out
        assert csv_path.exists()

    def test_resume_requires_journal(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="--resume needs --journal"):
            main(["gauntlet", "--resume", "--no-cache"])

    def test_comma_and_space_scenario_lists_agree(self):
        from repro.cli import build_parser

        by_comma = build_parser().parse_args(
            ["gauntlet", "--scenarios", "region-outage,mixed"])
        by_space = build_parser().parse_args(
            ["gauntlet", "--scenarios", "region-outage", "mixed"])
        split = [name for entry in by_comma.scenarios
                 for name in entry.split(",") if name]
        assert split == by_space.scenarios
