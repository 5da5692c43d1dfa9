"""Bench: the fault gauntlet's two performance contracts.

Two gates, both asserted before anything is reported:

* **faults-disabled overhead**: attaching a
  :class:`~repro.faults.cohort.CohortInjector` to a cohort, which seals
  it with *zero* fault events when the timed run starts, must cost < 2%
  wall clock against the plain cohort engine.  The runs are paired: each
  pair times both variants back to back, the first alternating, with
  garbage collected before each run and the collector off during it,
  and the gate reads the median of the per-pair ratios, so drift in the
  machine's speed cancels within a pair.  The fault layer is
  pay-for-what-you-break: a cohort that schedules nothing must run at
  baseline speed.
* **vectorized fan-out**: :func:`~repro.faults.domains.
  impairment_timeline` (one ``np.ix_`` window per domain event) must
  clear 10x the per-(event, tick, lane) scalar oracle
  :func:`~repro.faults.domains.impairment_timeline_scalar` on a
  fleet-sized plan — after the two are checked exactly equal.

Usage::

    PYTHONPATH=src python benchmarks/bench_gauntlet.py [--quick]
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time

import numpy as np

from repro.faults.domains import (
    build_plan,
    impairment_timeline,
    impairment_timeline_scalar,
)

MAX_OVERHEAD = 0.02  # gate (a): sealed-empty injector vs PR 7 cohort
MIN_SPEEDUP = 10.0  # gate (b): vectorized fan-out vs scalar oracle


def test_gauntlet_sweep(benchmark):
    from repro.experiments import gauntlet

    result = benchmark.pedantic(
        gauntlet.run,
        kwargs={"scenarios": ["region-outage", "mixed"],
                "fleet_sizes": [50, 200], "seed": 0},
        rounds=1, iterations=1,
    )
    print("\n" + result.format_table())
    worst = result.worst()
    # A correlated incident must actually hurt — and the defenses must
    # bring some sessions back before the campaign ends.
    assert worst["qoe_delta"] < 0.0
    assert worst["events"] > 0
    assert all(r["recovered_fraction"] > 0.0 for r in result.records)


# ---------------------------------------------------------------------------
# gate (a): faults-disabled cohort overhead
# ---------------------------------------------------------------------------


def _cohort_run_s(with_injector: bool, n_lanes: int,
                  duration_s: float) -> float:
    """One cohort run's wall clock, with or without the fault layer."""
    from repro.core.testbed import default_two_user_testbed
    from repro.experiments.resilience import lane_seed
    from repro.faults.cohort import CohortInjector
    from repro.vca.cohort import CohortRunner
    from repro.vca.profiles import PROFILES

    profile = PROFILES["FaceTime"]
    runner = CohortRunner()
    injector = CohortInjector.of(runner.batch) if with_injector else None
    for lane in range(n_lanes):
        testbed = default_two_user_testbed()
        runner.add(lambda sim, lane=lane, testbed=testbed: testbed.session(
            profile, seed=lane_seed(0, lane), sim=sim))
    gc.collect()
    gc.disable()
    try:
        t_start = time.perf_counter()
        runner.run(duration_s)  # seals the injector before the first event
        elapsed = time.perf_counter() - t_start
    finally:
        gc.enable()
    if injector is not None:
        assert injector.sealed and injector.cohort_events_armed == 0
    return elapsed


def bench_overhead(n_lanes: int, duration_s: float, pairs: int) -> dict:
    """The median of ``pairs`` per-pair ratios: both variants of a pair
    ride the same machine weather, and the first of a pair alternates."""
    _cohort_run_s(False, n_lanes, duration_s)  # warm caches
    baseline, armed = [], []
    for pair in range(pairs):
        times = {}
        for with_injector in (pair % 2 == 1, pair % 2 == 0):
            times[with_injector] = _cohort_run_s(with_injector, n_lanes,
                                                 duration_s)
        baseline.append(times[False])
        armed.append(times[True])
    overhead = statistics.median(
        a / b for a, b in zip(armed, baseline)) - 1.0
    return {"lanes": n_lanes, "duration_s": duration_s, "pairs": pairs,
            "baseline_s": statistics.median(baseline),
            "armed_s": statistics.median(armed), "overhead": overhead}


# ---------------------------------------------------------------------------
# gate (b): vectorized domain fan-out vs the scalar oracle
# ---------------------------------------------------------------------------


def bench_fanout(n_lanes: int, duration_s: float, repeats: int) -> dict:
    lane_regions = np.arange(n_lanes) % 12
    plan = build_plan("mixed", 1, duration_s, lane_regions, n_regions=12)
    ticks = np.arange(0.0, duration_s, 1.0)

    # equivalence first: the array path must reproduce the oracle exactly
    vec = impairment_timeline(plan, ticks)
    ref = impairment_timeline_scalar(plan, ticks)
    assert (vec.delay_ms == ref.delay_ms).all()
    assert (vec.wifi_rate == ref.wifi_rate).all()
    assert (vec.load == ref.load).all()

    t0 = time.perf_counter()
    for _ in range(repeats):
        impairment_timeline(plan, ticks)
    vec_s = (time.perf_counter() - t0) / repeats

    t0 = time.perf_counter()
    impairment_timeline_scalar(plan, ticks)
    scalar_s = time.perf_counter() - t0

    return {"lanes": n_lanes, "events": len(plan.events),
            "ticks": len(ticks), "scalar_s": scalar_s, "vector_s": vec_s,
            "speedup": scalar_s / vec_s}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI mode: smaller cohort and fleet")
    args = parser.parse_args(argv)
    if args.quick:
        overhead_args = (2, 6.0, 41)
        fanout_args = (200, 120.0, 20)
    else:
        overhead_args = (4, 10.0, 41)
        fanout_args = (400, 240.0, 20)
    gate_ok = True

    row = bench_overhead(*overhead_args)
    print(f"faults-disabled cohort: {row['lanes']} lanes x "
          f"{row['duration_s']:.0f}s, {row['pairs']} pairs  median "
          f"baseline {row['baseline_s']:.3f}s  sealed-empty injector "
          f"{row['armed_s']:.3f}s  overhead {row['overhead']:+.2%}")
    if row["overhead"] >= MAX_OVERHEAD:
        gate_ok = False
        print(f"  FAIL: overhead {row['overhead']:+.2%} "
              f">= allowed {MAX_OVERHEAD:.0%}")

    row = bench_fanout(*fanout_args)
    print(f"domain fan-out: {row['events']} events x {row['ticks']} ticks "
          f"x {row['lanes']} lanes (exact equality checked)  "
          f"scalar {row['scalar_s']:.3f}s  vector {row['vector_s']:.4f}s  "
          f"speedup {row['speedup']:.0f}x")
    if row["speedup"] < MIN_SPEEDUP:
        gate_ok = False
        print(f"  FAIL: speedup {row['speedup']:.1f}x "
              f"< required {MIN_SPEEDUP:.0f}x")

    if not gate_ok:
        return 1
    print(f"gates: empty-injector overhead < {MAX_OVERHEAD:.0%} and "
          f"vectorized fan-out >= {MIN_SPEEDUP:.0f}x scalar: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
