"""Golden differential suite: the batch cohort engine vs the scalar oracle.

Every test here holds the two execution paths together:

* a session hosted on a :class:`~repro.netsim.batch.LaneSimulator` lane
  must be **bit-identical** to the same session on its own scalar
  :class:`~repro.netsim.engine.Simulator` (captures compared record by
  record, no tolerance);
* the vectorized SFU fast path (:func:`~repro.vca.cohort.
  sfu_cohort_downlink`) must reproduce the event-driven
  ``multi_user_testbed`` oracle at the paper's user counts;
* the numpy service kernels and batched analysis paths must match their
  scalar counterparts (exactly where the arithmetic is exact, within the
  documented few-ulp tolerance where prefix reductions reassociate float
  additions).

The window kernel every throughput window goes through is also held to a
per-record loop, on random captures, in ``test_capture_columns.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.throughput import (
    cohort_throughput_windows_mbps,
    throughput_windows_mbps,
)
from repro.core.testbed import default_two_user_testbed, multi_user_testbed
from repro.faults.schedule import FaultEvent, FaultKind, FaultSchedule
from repro.netsim.batch import (
    BatchSimulator,
    drop_tail_departures,
    fifo_departures,
)
from repro.netsim.capture import Direction, window_mbps
from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.netsim.packet import IPPROTO_UDP, Packet
from repro.vca.cohort import CohortRunner, sfu_cohort_downlink
from repro.vca.jitterbuffer import JitterBuffer
from repro.vca.profiles import FACETIME, ZOOM


def scalar_run(testbed_factory, profile, seed, duration_s, **session_kwargs):
    """The oracle: one session on its own scalar simulator."""
    return testbed_factory().session(
        profile, seed=seed, **session_kwargs
    ).run(duration_s)


def assert_results_identical(scalar, batched, users):
    """Captures equal record by record — the bit-identity contract."""
    assert scalar.addresses == batched.addresses
    for user in users:
        s_records = scalar.capture_of(user).records
        b_records = batched.capture_of(user).records
        assert len(s_records) == len(b_records), user
        assert s_records == b_records, user
    for user in users:
        if user not in scalar.receivers:  # 2D sessions have no semantics
            assert user not in batched.receivers
            continue
        s_stats = scalar.receiver_of(user).stats
        b_stats = batched.receiver_of(user).stats
        assert set(s_stats) == set(b_stats)
        for peer in s_stats:
            assert (s_stats[peer].availability()
                    == b_stats[peer].availability()), (user, peer)


class TestCohortOfOne:
    """A cohort of one is the scalar run, bit for bit."""

    def test_two_user_session_bit_identical(self):
        scalar = scalar_run(default_two_user_testbed, FACETIME, 0, 6.0,
                            captures=("U1", "U2"))
        runner = CohortRunner()
        runner.add(lambda sim: default_two_user_testbed().session(
            FACETIME, seed=0, sim=sim, captures=("U1", "U2")))
        (batched,) = runner.run(6.0)
        assert_results_identical(scalar, batched, ["U1", "U2"])

    def test_lane_counters_match_scalar_counters(self):
        testbed = default_two_user_testbed()
        session = testbed.session(FACETIME, seed=1)
        session.run(4.0)
        scalar_stats = session.sim.stats()

        runner = CohortRunner()
        runner.add(lambda sim: default_two_user_testbed().session(
            FACETIME, seed=1, sim=sim))
        runner.run(4.0)
        lane_stats = runner.batch.lane_stats(0)
        for key in ("events_scheduled", "events_fired", "events_cancelled",
                    "sim_time_s"):
            assert lane_stats[key] == scalar_stats[key], key

    def test_fault_schedule_bit_identical(self):
        """The cancel/fault path desyncs nothing (drop, rate collapse)."""
        faults = FaultSchedule.scripted([
            FaultEvent(FaultKind.LOSS_BURST, "U2", 1.0, 0.8, 0.2),
            FaultEvent(FaultKind.BANDWIDTH_COLLAPSE, "U2", 2.5, 0.6, 0.05),
        ])
        scalar = scalar_run(default_two_user_testbed, FACETIME, 2, 5.0,
                            faults=faults, captures=("U1", "U2"))
        runner = CohortRunner()
        runner.add(lambda sim: default_two_user_testbed().session(
            FACETIME, seed=2, sim=sim, faults=faults, captures=("U1", "U2")))
        (batched,) = runner.run(5.0)
        for user in ("U1", "U2"):
            assert (scalar.capture_of(user).records
                    == batched.capture_of(user).records)


class TestCohortOfMany:
    """N lanes equal N independent scalar runs; lanes never interact."""

    COHORT = [
        (FACETIME, 0),
        (ZOOM, 3),
        (FACETIME, 7),
        (FACETIME, 11),
    ]

    def test_mixed_cohort_matches_independent_scalar_runs(self):
        scalars = [
            scalar_run(default_two_user_testbed, profile, seed, 5.0,
                       captures=("U1", "U2"))
            for profile, seed in self.COHORT
        ]
        runner = CohortRunner()
        for profile, seed in self.COHORT:
            runner.add(lambda sim, p=profile, s=seed:
                       default_two_user_testbed().session(
                           p, seed=s, sim=sim, captures=("U1", "U2")))
        batched = runner.run(5.0)
        for scalar, batch in zip(scalars, batched):
            assert_results_identical(scalar, batch, ["U1", "U2"])

    def test_multi_user_sfu_sessions_batch_identically(self):
        users = ("U1", "U2", "U3")
        scalars = [
            scalar_run(lambda: multi_user_testbed(3), FACETIME, seed, 5.0,
                       captures=users)
            for seed in (0, 1)
        ]
        runner = CohortRunner()
        for seed in (0, 1):
            runner.add(lambda sim, s=seed:
                       multi_user_testbed(3).session(FACETIME, seed=s,
                                                     sim=sim, captures=users))
        batched = runner.run(5.0)
        for scalar, batch in zip(scalars, batched):
            assert_results_identical(scalar, batch, ["U1", "U2", "U3"])

    def test_aggregate_counters_fold_from_lanes(self):
        runner = CohortRunner()
        for seed in range(3):
            runner.add(lambda sim, s=seed: default_two_user_testbed().session(
                FACETIME, seed=s, sim=sim))
        runner.run(3.0)
        batch = runner.batch
        agg = batch.stats()
        lanes = [batch.lane_stats(i) for i in range(batch.n_lanes)]
        for key in ("events_scheduled", "events_fired", "events_cancelled"):
            assert agg[key] == sum(lane[key] for lane in lanes), key
        assert agg["lanes"] == 3

    def test_batched_analysis_matches_scalar_per_capture(self):
        runner = CohortRunner()
        for seed in (0, 5):
            runner.add(lambda sim, s=seed: default_two_user_testbed().session(
                FACETIME, seed=s, sim=sim, captures=("U1",)))
        captures = [r.capture_of("U1") for r in runner.run(6.0)]
        batched = cohort_throughput_windows_mbps(captures,
                                                 Direction.DOWNLINK)
        for capture, windows in zip(captures, batched):
            assert windows == throughput_windows_mbps(capture,
                                                      Direction.DOWNLINK)


class TestCounterAttribution:
    """Satellite: batch counters attribute per session, not one blob."""

    def test_per_lane_scheduled_fired_cancelled(self):
        batch = BatchSimulator(n_lanes=2)
        lane0, lane1 = batch.lane(0), batch.lane(1)
        handles = [lane0.schedule(0.1 * (i + 1), lambda: None)
                   for i in range(4)]
        lane1.schedule(0.05, lambda: None)
        lane0.cancel(handles[2])
        batch.run()
        assert lane0.stats()["events_scheduled"] == 4
        assert lane0.stats()["events_fired"] == 3
        assert lane0.stats()["events_cancelled"] == 1
        assert lane1.stats()["events_scheduled"] == 1
        assert lane1.stats()["events_fired"] == 1
        assert lane1.stats()["events_cancelled"] == 0

    def test_cancel_on_one_lane_leaves_others_untouched(self):
        batch = BatchSimulator(n_lanes=3)
        victim = batch.lane(0).schedule(1.0, lambda: None)
        before = [batch.lane_stats(i).copy() for i in range(3)]
        batch.cancel(victim)
        after = [batch.lane_stats(i) for i in range(3)]
        assert after[0]["events_cancelled"] == 1
        for i in (1, 2):
            assert before[i] == after[i], i

    def test_schedule_cohort_attributes_every_listed_lane(self):
        batch = BatchSimulator(n_lanes=3)
        fired = []
        batch.schedule_cohort(0.5, [0, 2], lambda: fired.append(batch.now))
        batch.run()
        assert fired == [0.5]
        assert batch.lane_stats(0)["events_fired"] == 1
        assert batch.lane_stats(1)["events_fired"] == 0
        assert batch.lane_stats(2)["events_fired"] == 1
        assert batch.events_fired == 2  # one callback, two lanes' work

    def test_cancelled_cohort_event_books_every_lane(self):
        batch = BatchSimulator(n_lanes=4)
        handle = batch.schedule_cohort(0.5, [1, 3], lambda: None)
        assert batch.cancel(handle)
        batch.run()
        assert batch.lane_stats(1)["events_cancelled"] == 1
        assert batch.lane_stats(3)["events_cancelled"] == 1
        assert batch.events_fired == 0

    def test_cohort_events_raise_listed_lanes_high_water(self):
        """Queued cohort events count toward each listed lane's depth,
        exactly as ``schedule_at`` events do."""
        batch = BatchSimulator(n_lanes=3)
        for i in range(3):
            batch.schedule_cohort(0.1 * (i + 1), [0, 2], lambda: None)
        batch.lane(2).schedule(0.5, lambda: None)
        assert batch.lane(0).pending_events() == 3
        assert batch.lane_stats(0)["queue_high_water"] == 3
        assert batch.lane_stats(1)["queue_high_water"] == 0
        assert batch.lane_stats(2)["queue_high_water"] == 4
        batch.run()
        assert batch.lane(0).queue_high_water == 3


class TestSfuFastPathVsOracle:
    """The struct-of-arrays fan-out reproduces the event-driven SFU."""

    @pytest.mark.parametrize("n,seed", [(2, 0), (3, 2), (5, 0)])
    def test_observer_downlink_windows_match(self, n, seed):
        duration = 8.0
        oracle = multi_user_testbed(n).session(
            FACETIME, seed=seed, captures=("U1",)).run(duration)
        oracle_windows = throughput_windows_mbps(
            oracle.capture_of("U1"), Direction.DOWNLINK)
        fast = sfu_cohort_downlink(n, duration, seed=seed, observers=[0])
        fast_windows = fast.observer_windows_mbps[0]
        assert len(fast_windows) == len(oracle_windows)
        assert fast_windows == pytest.approx(oracle_windows, rel=1e-9)

    def test_late_fraction_matches_oracle_buffer(self):
        fast = sfu_cohort_downlink(3, 8.0, seed=0, observers=[0, 1])
        for obs, late in fast.observer_late_fraction.items():
            assert 0.0 <= late <= 1.0


class TestKernelsVsScalarLink:
    """The vectorized service kernels against the event-driven link."""

    def _offer_to_scalar_link(self, times, wires, rate_bps, queue_bytes):
        sim = Simulator()
        link = Link(rate_bps, queue_bytes=queue_bytes)
        dep = np.full(len(times), np.nan)
        accepted = np.zeros(len(times), dtype=bool)

        def offer(i):
            pkt = Packet("10.0.0.2", "10.0.1.2", 1, 2, IPPROTO_UDP,
                         payload=bytes(int(wires[i]) - 28))
            def done(_p, i=i):
                dep[i] = sim.now
            accepted[i] = link.transmit(sim, pkt, done)

        for i, t in enumerate(times):
            sim.schedule_at(float(t), lambda i=i: offer(i))
        sim.run()
        return dep, accepted

    def test_drop_tail_kernel_is_bit_exact(self):
        rng = np.random.default_rng(7)
        times = np.sort(rng.uniform(0.0, 2.0, size=200))
        wires = rng.integers(100, 1500, size=200)
        rate, queue = 1e6, 4000  # slow + tiny queue: force drops
        k_dep, k_acc = drop_tail_departures(times, wires, rate, queue)
        s_dep, s_acc = self._offer_to_scalar_link(times, wires, rate, queue)
        assert np.array_equal(k_acc, s_acc)
        assert np.array_equal(k_dep[k_acc], s_dep[s_acc])  # no tolerance
        assert np.isnan(k_dep[~k_acc]).all()

    @settings(max_examples=60, deadline=None)
    @given(
        rate=st.floats(min_value=1e4, max_value=1e9, allow_nan=False),
        queue=st.integers(min_value=28, max_value=200_000),
        # (arrival slot, wire size): few slots, so arrivals often tie.
        offers=st.lists(st.tuples(st.integers(min_value=0, max_value=12),
                                  st.integers(min_value=28, max_value=1528)),
                        min_size=1, max_size=80),
        spacing=st.floats(min_value=1e-6, max_value=0.05, allow_nan=False),
    )
    def test_drop_tail_kernel_is_bit_exact_on_random_links(
            self, rate, queue, offers, spacing):
        """Link.transmit and the kernel agree with no tolerance: random
        rates, queue sizes and packet sizes, tied arrival times."""
        offers = sorted(offers, key=lambda offer: offer[0])
        times = np.array([slot * spacing for slot, _ in offers])
        wires = np.array([wire for _, wire in offers])
        k_dep, k_acc = drop_tail_departures(times, wires, rate, queue)
        s_dep, s_acc = self._offer_to_scalar_link(times, wires, rate, queue)
        assert np.array_equal(k_acc, s_acc)
        assert np.array_equal(k_dep[k_acc], s_dep[s_acc])
        assert np.isnan(k_dep[~k_acc]).all()

    def test_fifo_kernel_matches_sequential_recurrence(self):
        rng = np.random.default_rng(11)
        arr = np.sort(rng.uniform(0.0, 1.0, size=500))
        ser = rng.uniform(1e-4, 5e-3, size=500)
        dep = fifo_departures(arr, ser)
        busy = 0.0
        for i in range(len(arr)):
            busy = max(arr[i], busy) + ser[i]
            assert dep[i] == pytest.approx(busy, abs=1e-9), i
        # Idle-at-arrival packets are exact, not just close.
        gaps = np.concatenate(([True], arr[1:] >= dep[:-1]))
        assert np.array_equal(dep[gaps], (arr + ser)[gaps])

    def test_windowed_lane_bytes_matches_scalar_loop(self):
        rng = np.random.default_rng(3)
        n_lanes, window_s, skip_head_s = 4, 1.0, 1.0
        ts = np.sort(rng.uniform(0.0, 7.0, size=300))
        lanes = rng.integers(0, n_lanes, size=300)
        wires = rng.integers(64, 1500, size=300)
        for lane in range(n_lanes):
            lane_ts, lane_wires = ts[lanes == lane], wires[lanes == lane]
            got = window_mbps(lane_ts, lane_wires, window_s, skip_head_s)
            start = lane_ts[0] + skip_head_s
            n_windows = int((lane_ts[-1] - start) / window_s)
            want = np.zeros(n_windows)
            for t, w in zip(lane_ts, lane_wires):
                if t < start:
                    continue
                idx = int((t - start) / window_s)
                if idx < n_windows:
                    want[idx] += w
            assert n_windows >= 1
            assert got == list(want * 8.0 / window_s / 1e6), lane


class TestJitterBufferBatch:
    def test_play_batch_matches_scalar_play_per_lane(self):
        rng = np.random.default_rng(19)
        buffer = JitterBuffer(playout_delay_ms=20.0)
        n_lanes = 3
        send, arrival, lanes = [], [], []
        per_lane = []
        for lane in range(n_lanes):
            s = np.sort(rng.uniform(0.0, 5.0, size=120))
            a = s + rng.uniform(0.001, 0.050, size=120)
            per_lane.append(buffer.play(list(zip(s, a))))
            send.append(s)
            arrival.append(a)
            lanes.append(np.full(120, lane))
        reports = buffer.play_batch(
            np.concatenate(send), np.concatenate(arrival),
            np.concatenate(lanes), n_lanes)
        for scalar, batch in zip(per_lane, reports):
            assert batch.frames == scalar.frames
            assert batch.late_frames == scalar.late_frames
            assert batch.late_fraction == scalar.late_fraction
            assert batch.mean_wait_ms == pytest.approx(
                scalar.mean_wait_ms, rel=1e-9)

    def test_play_batch_rejects_empty_lane(self):
        buffer = JitterBuffer(playout_delay_ms=20.0)
        with pytest.raises(ValueError, match="no frames"):
            buffer.play_batch(np.array([0.0]), np.array([0.01]),
                              np.array([1]), 2)
        with pytest.raises(ValueError, match="no lanes"):
            buffer.play_batch(np.array([]), np.array([]), np.array([]), 0)
