"""Regression tests for three latent bugs fixed alongside the obs layer.

Each test fails on the pre-fix code:

1. **Heap growth under mass cancellation** — lazily-cancelled events used
   to sit in the simulator heap until they reached the front, so a
   fault-heavy run (long blackouts revoking far-future deliveries) grew
   the heap without bound.  The fix compacts the heap whenever cancelled
   entries outnumber live ones; these tests pin the bound *and* prove
   compaction cannot change ``pending_events()`` or firing order, on the
   scalar engine and on a batch lane (whose heap compacts by the same
   code, cohort events included).

2. **Numpy scalars poisoned cache keys** — ``canonical()`` raised
   ``TypeError`` for ``np.int64``/``np.float32`` kwargs and let
   ``np.float64`` through only by accident (float subclass).  The fix
   coerces numpy scalars to their native twins, so a numpy-typed kwarg
   and its native twin key identically.

3. **Workers re-hashed the source tree** — ``code_fingerprint()`` is
   memoized per process, so every *spawned* worker re-read ~180 source
   files for its first cell.  The runner now computes it once in the
   parent and ships it with the task payload; the test proves a spawned
   worker observes the parent's (sentinel) fingerprint instead of
   computing its own.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

import repro.core.cache as cache_mod
import repro.core.parallel as parallel_mod
from repro.core.cache import code_fingerprint, set_code_fingerprint, task_key
from repro.core.parallel import CellTask, TaskRunner
from repro.netsim.batch import BatchSimulator
from repro.netsim.engine import COMPACT_MIN_QUEUE, Simulator


# ----------------------------------------------------------------------
# 1. heap compaction under mass cancellation
# ----------------------------------------------------------------------


def scalar_engine():
    """The scalar engine: one object schedules and owns the heap."""
    sim = Simulator()
    return sim, sim, sim.schedule_at


def lane_engine():
    """Lane 0 of a batch engine; its group events are cohort events."""
    batch = BatchSimulator(n_lanes=2)

    def cohort_at(time_s, callback):
        return batch.schedule_cohort(time_s - batch.now, [0, 1], callback)

    return batch.lane(0), batch, cohort_at


#: Each case yields ``(sim, heap, group_at)``: the scheduling surface, the
#: engine that owns the heap, and how to schedule a group event (a cohort
#: event on a batch lane, a plain event on the scalar engine).
ENGINES = pytest.mark.parametrize("make_engine", [scalar_engine, lane_engine],
                                  ids=["scalar", "lane"])


@ENGINES
def test_mass_cancellation_keeps_heap_bounded(make_engine):
    sim, heap, group_at = make_engine()
    live = [sim.schedule_at(float(i), lambda: None) for i in range(10)]
    doomed = [sim.schedule_at(1000.0 + i * 1e-3, lambda: None)
              for i in range(5000)]
    doomed.insert(2500, group_at(1002.5, lambda: None))
    for handle in doomed:
        sim.cancel(handle)
    # Pre-fix: all 5000 cancelled entries linger (len(_queue) == 5010).
    assert len(heap._queue) < 2 * (len(live) + COMPACT_MIN_QUEUE)
    assert heap.heap_compactions >= 1
    assert sim.pending_events() == len(live)
    assert sim.events_cancelled == len(doomed)


@ENGINES
def test_compaction_preserves_firing_order_and_counts(make_engine):
    fired = []
    reference = []
    # Two identical schedules; only one suffers mass cancellation.
    (noisy, heap, group_at), (clean, _, _) = make_engine(), make_engine()
    for i in range(400):
        time_s = (i * 37 % 100) + i * 1e-4  # interleaved, all distinct
        noisy.schedule_at(time_s, lambda t=time_s: fired.append(t))
        clean.schedule_at(time_s, lambda t=time_s: reference.append(t))
    doomed = [noisy.schedule_at(500.0 + i * 1e-3, lambda: None)
              for i in range(3000)]
    doomed.insert(1500, group_at(501.5, lambda: None))
    for handle in doomed:
        noisy.cancel(handle)
    assert heap.heap_compactions >= 1
    noisy.run()
    clean.run()
    assert fired == reference
    assert noisy.events_fired == 400
    assert noisy.now == clean.now


@ENGINES
def test_compaction_mid_run_keeps_hoisted_queue_valid(make_engine):
    """Cancelling (and compacting) from inside a callback must not strand
    the run loop on a stale queue list."""
    sim, heap, group_at = make_engine()
    fired = []
    doomed = [sim.schedule_at(100.0 + i * 1e-3, lambda: None)
              for i in range(200)]
    doomed.insert(100, group_at(100.1, lambda: None))

    def cancel_all() -> None:
        for handle in doomed:
            sim.cancel(handle)

    sim.schedule_at(1.0, cancel_all)
    sim.schedule_at(2.0, lambda: fired.append("after"))
    sim.run()
    assert fired == ["after"]
    assert heap.heap_compactions >= 1
    assert sim.pending_events() == 0


@ENGINES
def test_small_queues_never_compact(make_engine):
    sim, heap, group_at = make_engine()
    handles = [sim.schedule_at(float(i + 1), lambda: None)
               for i in range(COMPACT_MIN_QUEUE - 3)]
    handles.append(group_at(0.5, lambda: None))
    for handle in handles:
        sim.cancel(handle)
    assert heap.heap_compactions == 0  # rebuild would cost more than lazy pops
    sim.run()
    assert sim.pending_events() == 0


def test_queue_high_water_tracks_peak_depth():
    sim = Simulator()
    for i in range(25):
        sim.schedule_at(float(i), lambda: None)
    sim.run(until=10.0)
    for i in range(3):
        sim.schedule_at(20.0 + i, lambda: None)
    assert sim.queue_high_water == 25
    assert sim.stats()["queue_high_water"] == 25


# ----------------------------------------------------------------------
# 2. numpy scalars in cache keys
# ----------------------------------------------------------------------


def test_numpy_scalar_kwargs_key_like_native_twins():
    native = task_key("cell_fn", {"seed": 3, "scale": 0.5, "deep": True,
                                  "ratio": 0.25})
    numpyed = task_key("cell_fn", {"seed": np.int64(3),
                                   "scale": np.float64(0.5),
                                   "deep": np.bool_(True),
                                   "ratio": np.float32(0.25)})
    assert native == numpyed


def test_numpy_scalars_nested_in_containers():
    native = task_key("cell_fn", {"grid": [1, 2], "cfg": {"w": 0.1}})
    numpyed = task_key("cell_fn", {"grid": [np.int32(1), np.int64(2)],
                                   "cfg": {"w": np.float64(0.1)}})
    assert native == numpyed


def test_canonical_coerces_to_native_types():
    from repro.core.cache import canonical

    assert canonical(np.int64(7)) == 7
    assert type(canonical(np.int64(7))) is int
    assert type(canonical(np.float32(0.5))) is float
    assert type(canonical(np.float64(0.5))) is float
    assert type(canonical(np.bool_(False))) is bool
    with pytest.raises(TypeError):
        canonical(object())  # everything else still fails loudly


# ----------------------------------------------------------------------
# 3. parent fingerprint ships to workers
# ----------------------------------------------------------------------

SENTINEL_FINGERPRINT = "f" * 64


def test_set_code_fingerprint_validates_digest():
    with pytest.raises(ValueError):
        set_code_fingerprint("not-a-digest")
    with pytest.raises(ValueError):
        set_code_fingerprint("F" * 64)  # uppercase hex is not canonical


def test_spawned_worker_adopts_parent_fingerprint(monkeypatch):
    """A spawn-context worker must see the parent's memoized fingerprint.

    ``spawn`` matters: the default fork context inherits the parent memo
    and masks the bug.  The cell function *is* ``code_fingerprint``, so
    the result is whatever the worker would key its cells with — with the
    fix it is the parent's sentinel, without it the worker re-hashes the
    source tree and returns the real digest.
    """
    monkeypatch.setattr(cache_mod, "_CODE_FINGERPRINT",
                        SENTINEL_FINGERPRINT)
    assert code_fingerprint() == SENTINEL_FINGERPRINT
    spawn_ctx = multiprocessing.get_context("spawn")
    monkeypatch.setattr(parallel_mod.multiprocessing, "get_context",
                        lambda: spawn_ctx)
    tasks = [CellTask(name="fingerprint-probe", fn=code_fingerprint)]
    results = TaskRunner(jobs=2).run(tasks)
    assert results == [SENTINEL_FINGERPRINT]


def test_inline_runner_uses_memoized_fingerprint(monkeypatch):
    monkeypatch.setattr(cache_mod, "_CODE_FINGERPRINT",
                        SENTINEL_FINGERPRINT)
    results = TaskRunner(jobs=1).run(
        [CellTask(name="fingerprint-probe", fn=code_fingerprint)]
    )
    assert results == [SENTINEL_FINGERPRINT]
