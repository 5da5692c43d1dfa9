"""Property tests: the batch engine never desyncs its lanes.

Hypothesis drives the cohort engine with random lane counts, schedules,
and cancellations and checks the invariants the golden suite spells out
for fixed inputs:

* global firing order is (time, sequence) — identical to the scalar
  engine — and its projection onto any lane preserves that lane's
  scalar (time, insertion-order) order;
* lanes are isolated: cancelling or scheduling on one lane never
  changes what another lane observes;
* cohort-level accounting is the exact fold of per-lane accounting.
"""

from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim.batch import BatchSimulator
from repro.netsim.engine import Simulator

# A schedule: per-event (lane, delay) pairs over a small cohort.
lane_events = st.lists(
    st.tuples(st.integers(min_value=0, max_value=4),
              st.floats(min_value=0.0, max_value=50.0, allow_nan=False)),
    min_size=1, max_size=60,
)


class TestOrderingProperties:
    @given(lane_events)
    def test_global_order_is_time_then_sequence(self, events):
        batch = BatchSimulator(n_lanes=5)
        fired = []
        for i, (lane, delay) in enumerate(events):
            batch.schedule(lane, delay,
                           lambda d=delay, i=i: fired.append((d, i)))
        batch.run()
        assert len(fired) == len(events)
        assert fired == sorted(fired)  # time asc, insertion order on ties

    @given(lane_events)
    def test_lane_projection_equals_scalar_order(self, events):
        """Each lane sees exactly what its own scalar engine would."""
        batch = BatchSimulator(n_lanes=5)
        batch_fired = defaultdict(list)
        scalars = [Simulator() for _ in range(5)]
        scalar_fired = defaultdict(list)
        for i, (lane, delay) in enumerate(events):
            batch.schedule(lane, delay,
                           lambda lane=lane, i=i: batch_fired[lane].append(i))
            scalars[lane].schedule(
                delay, lambda lane=lane, i=i: scalar_fired[lane].append(i))
        batch.run()
        for sim in scalars:
            sim.run()
        for lane in range(5):
            assert batch_fired[lane] == scalar_fired[lane], lane

    @given(lane_events, st.floats(min_value=1.0, max_value=40.0,
                                  allow_nan=False))
    def test_run_until_stops_every_lane_at_the_same_clock(self, events,
                                                          until):
        batch = BatchSimulator(n_lanes=5)
        fired = []
        for lane, delay in events:
            batch.schedule(lane, delay, lambda d=delay: fired.append(d))
        batch.run(until=until)
        assert all(d <= until for d in fired)
        assert batch.now == until
        remaining = [d for _lane, d in events if d > until]
        assert batch.pending_events() == len(remaining)


class TestIsolationProperties:
    @given(lane_events, st.data())
    def test_cancellation_on_other_lanes_changes_nothing(self, events, data):
        """Lane 0's firing trace is invariant to other lanes' cancels."""
        def run(cancel_indexes):
            batch = BatchSimulator(n_lanes=5)
            fired = []
            handles = []
            for i, (lane, delay) in enumerate(events):
                handles.append(batch.schedule(
                    lane, delay,
                    lambda lane=lane, i=i: fired.append((lane, i))))
            for i in cancel_indexes:
                batch.cancel(handles[i])
            batch.run()
            return [entry for entry in fired if entry[0] == 0], batch

        victims = [i for i, (lane, _d) in enumerate(events) if lane != 0]
        chosen = data.draw(st.lists(st.sampled_from(victims), unique=True)
                           if victims else st.just([]))
        baseline, _ = run([])
        pruned, batch = run(chosen)
        assert pruned == baseline
        assert batch.lane_stats(0)["events_cancelled"] == 0

    @given(lane_events)
    def test_aggregate_equals_fold_of_lane_counters(self, events):
        batch = BatchSimulator(n_lanes=5)
        handles = []
        for lane, delay in events:
            handles.append(batch.schedule(lane, delay, lambda: None))
        for handle in handles[::3]:  # cancel every third event
            batch.cancel(handle)
        batch.run()
        lanes = [batch.lane_stats(i) for i in range(5)]
        for key in ("events_scheduled", "events_fired", "events_cancelled"):
            assert batch.stats()[key] == sum(s[key] for s in lanes), key
        assert batch.events_scheduled == len(events)
        assert (batch.events_fired + batch.events_cancelled
                == batch.events_scheduled)

    @given(st.integers(min_value=1, max_value=6),
           st.floats(min_value=0.01, max_value=0.5, allow_nan=False))
    def test_periodic_lanes_tick_in_lockstep(self, n_lanes, interval):
        """Identical periodic schedules fire identically on every lane."""
        batch = BatchSimulator(n_lanes=n_lanes)
        ticks = defaultdict(list)
        for lane in range(n_lanes):
            view = batch.lane(lane)
            view.schedule_every(interval,
                                lambda lane=lane: ticks[lane].append(
                                    batch.now),
                                until=2.0)
        batch.run(until=2.0)
        scalar = Simulator()
        expected = []
        scalar.schedule_every(interval, lambda: expected.append(scalar.now),
                              until=2.0)
        scalar.run(until=2.0)
        for lane in range(n_lanes):
            assert ticks[lane] == expected, lane  # bit-identical tick times


class TestCohortEventProperties:
    @given(st.lists(st.sets(st.integers(min_value=0, max_value=4),
                            min_size=1),
                    min_size=1, max_size=20))
    def test_cohort_counters_fold_per_listed_lane(self, memberships):
        batch = BatchSimulator(n_lanes=5)
        fired = [0]
        for i, lanes in enumerate(memberships):
            batch.schedule_cohort(0.1 * (i + 1), sorted(lanes),
                                  lambda: fired.__setitem__(
                                      0, fired[0] + 1))
        batch.run()
        assert fired[0] == len(memberships)  # one callback per event
        for lane in range(5):
            expected = sum(1 for lanes in memberships if lane in lanes)
            assert batch.lane_stats(lane)["events_fired"] == expected, lane

    def test_cohort_lane_out_of_range_rejected(self):
        batch = BatchSimulator(n_lanes=2)
        with pytest.raises(IndexError):
            batch.schedule_cohort(0.1, [0, 2], lambda: None)
        with pytest.raises(ValueError):
            batch.schedule_cohort(0.1, [], lambda: None)


class TestSessionCohortProperties:
    """Random cohorts of real sessions stay equal to scalar runs."""

    @settings(max_examples=5, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=40),
                    min_size=1, max_size=3))
    def test_cohort_capture_bytes_equal_scalar(self, seeds):
        from repro.core.testbed import default_two_user_testbed
        from repro.netsim.capture import Direction
        from repro.vca.cohort import CohortRunner
        from repro.vca.profiles import FACETIME

        duration = 2.0
        scalar_bytes = []
        for seed in seeds:
            result = default_two_user_testbed().session(
                FACETIME, seed=seed, captures=("U1",)).run(duration)
            scalar_bytes.append(
                result.capture_of("U1").total_bytes(Direction.DOWNLINK))
        runner = CohortRunner()
        for seed in seeds:
            runner.add(lambda sim, s=seed: default_two_user_testbed().session(
                FACETIME, seed=s, sim=sim, captures=("U1",)))
        for result, want in zip(runner.run(duration), scalar_bytes):
            assert (result.capture_of("U1").total_bytes(Direction.DOWNLINK)
                    == want)
