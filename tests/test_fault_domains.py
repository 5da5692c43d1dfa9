"""Property suite for correlated fault domains and the seeding contract.

Covers the gauntlet's sampling layer:

* :func:`repro.faults.schedule.derive_seed` — the documented
  sha256-salted derivation rule (stable values, salt sensitivity);
* :meth:`FaultSchedule.random` draw order — replayed against an
  independent reference generator, so an accidental extra draw (the
  pre-gauntlet eager-magnitude bug) can never sneak back in;
* domain-event sampling — determinism, per-kind stream independence
  (``mixed`` is exactly the union of the singles), duration/coverage
  bounds;
* fan-out — coverage fractions honored, no lane hit twice by one
  event, region membership respected;
* the vectorized impairment timeline against its scalar oracle;
* :meth:`FaultInjector.arm` on a batch lane: armed when the batch runs,
  equal to the scalar run, and refused once the batch has started.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.domains import (
    SCENARIOS,
    DomainEvent,
    DomainKind,
    build_plan,
    fan_out,
    impairment_timeline,
    impairment_timeline_scalar,
    lane_schedules,
    sample_domain_events,
    scenario_names,
    server_down_timeline,
)
from repro.faults.injector import FaultInjector, combine_impairment
from repro.faults.schedule import (
    SERVER_TARGET,
    FaultKind,
    FaultSchedule,
    derive_seed,
)

seeds = st.integers(min_value=0, max_value=2**31 - 1)


class TestDeriveSeed:
    def test_documented_rule(self):
        # The rule is part of the cross-process determinism contract:
        # sha256("faults:{base}:{salt}...") first 4 bytes little-endian.
        import hashlib

        digest = hashlib.sha256(b"faults:7:lane:3").digest()
        assert derive_seed(7, "lane", 3) == int.from_bytes(
            digest[:4], "little")

    @given(seeds)
    def test_deterministic_and_salt_sensitive(self, seed):
        assert derive_seed(seed, "lane", 1) == derive_seed(seed, "lane", 1)
        assert derive_seed(seed, "lane", 1) != derive_seed(seed, "lane", 2)
        assert derive_seed(seed, "lane", 1) != derive_seed(seed, "fanout", 1)

    @given(seeds)
    def test_in_uint32_range(self, seed):
        assert 0 <= derive_seed(seed, "domain", "ap-storm") < 2**32


class TestRandomScheduleDrawOrder:
    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_replay_against_reference(self, seed):
        """The per-event draw order is a contract: gap, kind, duration,
        target (skipped for server outages), one magnitude draw for
        range kinds and none otherwise."""
        from repro.faults.schedule import _MAGNITUDE_RANGES

        duration_s = 40.0
        targets = ["U1", "U2", "U3"]
        schedule = FaultSchedule.random(seed, duration_s, targets,
                                        events_per_minute=8.0)
        rng = np.random.default_rng(seed)
        allowed = list(FaultKind)
        expected = []
        time_s = float(rng.exponential(60.0 / 8.0))
        while time_s < duration_s:
            kind = allowed[int(rng.integers(len(allowed)))]
            duration = float(np.clip(rng.exponential(1.5), 0.25,
                                     max(0.5, duration_s - time_s)))
            if kind is FaultKind.SERVER_OUTAGE:
                target = SERVER_TARGET
            else:
                target = targets[int(rng.integers(len(targets)))]
            bounds = _MAGNITUDE_RANGES.get(kind)
            magnitude = float(rng.uniform(*bounds)) if bounds else 0.0
            expected.append((kind, target, time_s, duration, magnitude))
            time_s += float(rng.exponential(60.0 / 8.0))
        got = [(e.kind, e.target, e.start_s, e.duration_s, e.magnitude)
               for e in sorted(schedule, key=lambda e: e.start_s)]
        assert got == sorted(expected, key=lambda e: e[2])


class TestDomainSampling:
    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_deterministic(self, seed):
        a = sample_domain_events("mixed", seed, 90.0, 5)
        b = sample_domain_events("mixed", seed, 90.0, 5)
        assert a == b

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_mixed_is_union_of_singles(self, seed):
        """Per-kind generators draw from independent derived streams, so
        a kind's events are identical alone or inside ``mixed``."""
        mixed = sample_domain_events("mixed", seed, 90.0, 5)
        union = []
        for name in ("region-outage", "ap-storm", "brownout",
                     "flash-crowd"):
            union.extend(sample_domain_events(name, seed, 90.0, 5))
        assert sorted(mixed, key=lambda e: (e.start_s, e.kind.value)) == \
            sorted(union, key=lambda e: (e.start_s, e.kind.value))

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_bounds(self, seed):
        for event in sample_domain_events("mixed", seed, 60.0, 4):
            assert 0.0 <= event.start_s < 60.0
            assert event.end_s <= 60.0 + 1e-9
            assert 0 <= event.region_index < 4
            assert 0.0 < event.coverage <= 1.0

    def test_none_scenario_is_empty(self):
        assert sample_domain_events("none", 0, 60.0, 3) == ()

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            sample_domain_events("meteor-strike", 0, 60.0, 3)

    def test_catalog_names(self):
        assert set(scenario_names()) == set(SCENARIOS)
        assert "mixed" in scenario_names() and "none" in scenario_names()


lane_maps = st.lists(st.integers(min_value=0, max_value=5),
                     min_size=1, max_size=400)


class TestFanOut:
    @given(seeds, lane_maps,
           st.floats(min_value=0.05, max_value=1.0, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_no_lane_hit_twice_and_membership(self, seed, regions, cov):
        lane_regions = np.array(regions)
        event = DomainEvent(DomainKind.AP_STORM, 2, 1.0, 5.0, 0.3, cov)
        lanes = fan_out(event, 0, seed, lane_regions)
        assert len(np.unique(lanes)) == len(lanes)
        assert all(lane_regions[lane] == 2 for lane in lanes)

    @given(seeds, st.floats(min_value=0.05, max_value=0.95,
                            allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_coverage_fraction(self, seed, cov):
        lane_regions = np.zeros(200, dtype=np.int64)
        event = DomainEvent(DomainKind.AP_STORM, 0, 1.0, 5.0, 0.3, cov)
        lanes = fan_out(event, 3, seed, lane_regions)
        assert len(lanes) == int(np.ceil(cov * 200))

    def test_full_coverage_kinds_take_whole_region(self):
        lane_regions = np.array([0, 1, 0, 1, 1])
        for kind in (DomainKind.REGION_OUTAGE, DomainKind.BACKBONE_BROWNOUT,
                     DomainKind.FLASH_CROWD):
            event = DomainEvent(kind, 1, 1.0, 5.0, 20.0, 1.0)
            assert fan_out(event, 0, 0, lane_regions).tolist() == [1, 3, 4]

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_deterministic_per_event_index(self, seed):
        lane_regions = np.zeros(50, dtype=np.int64)
        event = DomainEvent(DomainKind.AP_STORM, 0, 1.0, 5.0, 0.3, 0.4)
        a = fan_out(event, 7, seed, lane_regions)
        b = fan_out(event, 7, seed, lane_regions)
        c = fan_out(event, 8, seed, lane_regions)
        assert np.array_equal(a, b)
        # Different event index draws an independent subsample.
        assert not np.array_equal(a, c) or len(a) == 50


class TestImpairmentTimeline:
    @given(seeds, st.integers(min_value=1, max_value=60))
    @settings(max_examples=25, deadline=None)
    def test_vectorized_matches_scalar_oracle(self, seed, n_lanes):
        lane_regions = np.arange(n_lanes) % 4
        plan = build_plan("mixed", seed, 60.0, lane_regions, n_regions=4)
        ticks = np.arange(0.0, 60.0, 1.0)
        vec = impairment_timeline(plan, ticks)
        ref = impairment_timeline_scalar(plan, ticks)
        assert np.array_equal(vec.delay_ms, ref.delay_ms)
        assert np.array_equal(vec.wifi_rate, ref.wifi_rate)
        assert np.array_equal(vec.load, ref.load)

    def test_empty_plan_is_identity(self):
        plan = build_plan("none", 0, 30.0, np.zeros(5, dtype=np.int64))
        ticks = np.arange(0.0, 30.0, 1.0)
        imp = impairment_timeline(plan, ticks)
        assert not imp.delay_ms.any()
        assert (imp.wifi_rate == 1.0).all()
        assert (imp.load == 1.0).all()

    def test_server_down_timeline_covers_window(self):
        events = (DomainEvent(DomainKind.REGION_OUTAGE, 1, 5.0, 10.0,
                              0.0, 1.0),)
        ticks = np.arange(0.0, 30.0, 1.0)
        down = server_down_timeline(events, np.array([0, 1, 1, 2]), ticks)
        assert down[:5].sum() == 0
        assert down[5:15, 1].all() and down[5:15, 2].all()
        assert not down[:, 0].any() and not down[:, 3].any()
        assert down[15:].sum() == 0


class TestLaneSchedules:
    def test_projection_kinds(self):
        lane_regions = np.array([0, 0, 1])
        events = (
            DomainEvent(DomainKind.REGION_OUTAGE, 0, 1.0, 2.0, 0.0, 1.0),
            DomainEvent(DomainKind.AP_STORM, 0, 4.0, 2.0, 0.3, 1.0),
            DomainEvent(DomainKind.BACKBONE_BROWNOUT, 1, 7.0, 2.0, 25.0,
                        1.0),
            DomainEvent(DomainKind.FLASH_CROWD, 1, 10.0, 2.0, 3.0, 1.0),
        )
        from repro.faults.domains import DomainPlan

        plan = DomainPlan(
            scenario="mixed", seed=0, duration_s=15.0, n_lanes=3,
            events=events,
            lane_events=tuple(fan_out(e, i, 0, lane_regions)
                              for i, e in enumerate(events)))
        schedules = lane_schedules(plan, "U2")
        assert [e.kind for e in schedules[0]] == [
            FaultKind.SERVER_OUTAGE, FaultKind.WIFI_DEGRADATION]
        assert schedules[0].for_target(SERVER_TARGET)[0].start_s == 1.0
        # Flash crowds act on server load, not on a lane's links.
        assert [e.kind for e in schedules[2]] == [FaultKind.JITTER_BURST]
        assert schedules[2].events[0].magnitude == 25.0

    def test_covered_lanes_share_frozen_events(self):
        """Identical event values across lanes are what lets the cohort
        injector group them into one cohort apply."""
        lane_regions = np.zeros(4, dtype=np.int64)
        plan = build_plan("brownout", 11, 120.0, lane_regions)
        schedules = lane_schedules(plan, "U2")
        nonempty = [s for s in schedules if s]
        if len(nonempty) >= 2:
            assert nonempty[0].events == nonempty[1].events


class TestInjectorBatchGuard:
    def test_bare_lane_session_applies_every_fault(self):
        """A faulted session on a bare lane, run by ``session.run``, arms
        through the batch's cohort injector when the lane runs: every
        fault applies and the call equals the scalar run."""
        from repro.core.testbed import default_two_user_testbed
        from repro.faults.resilient import ResilienceConfig
        from repro.faults.schedule import standard_disturbance
        from repro.netsim.batch import BatchSimulator
        from repro.vca.profiles import PROFILES

        def run(sim=None):
            return default_two_user_testbed().session(
                PROFILES["FaceTime"], faults=standard_disturbance(10.0),
                resilience=ResilienceConfig(), sim=sim,
                captures=("U1", "U2")).run(10.0)

        lane, scalar = run(BatchSimulator().add_lane()), run()
        log = lane.resilience.fault_log
        assert [entry.action for entry in log].count("apply") == 5
        assert log == scalar.resilience.fault_log
        assert (lane.resilience.report("U1", "U2")
                == scalar.resilience.report("U1", "U2"))
        for user in ("U1", "U2"):
            assert (lane.capture_of(user).records
                    == scalar.capture_of(user).records)

    def test_arming_after_the_batch_started_running_raises(self):
        """A late lane fails loudly instead of silently losing its faults."""
        from repro.netsim.batch import BatchSimulator
        from repro.netsim.network import Network

        def arm(lane):
            FaultInjector(lane, Network(lane), FaultSchedule.scripted([]),
                          address_of={}).arm()

        batch = BatchSimulator()
        early, late = batch.add_lane(), batch.add_lane()
        arm(early)
        batch.run(until=1.0)
        with pytest.raises(RuntimeError, match="already sealed"):
            arm(late)

    def test_combine_impairment_matches_scalar_semantics(self):
        from repro.faults.schedule import FaultEvent

        events = [
            FaultEvent(FaultKind.LOSS_BURST, "U2", 0.0, 1.0, 0.1),
            FaultEvent(FaultKind.WIFI_DEGRADATION, "U2", 0.0, 1.0, 0.5),
            FaultEvent(FaultKind.JITTER_BURST, "U2", 0.0, 1.0, 10.0),
        ]
        blackout, loss, jitter_ms, rate = combine_impairment(events)
        assert not blackout
        assert loss == pytest.approx(1.0 - 0.9 * 0.98)
        assert jitter_ms == pytest.approx(18.0)
        assert rate == 0.5
