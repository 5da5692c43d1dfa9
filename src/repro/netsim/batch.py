"""Multi-session cohort engine: N lanes on one shared event heap.

One :class:`BatchSimulator` advances *N independent sessions* ("lanes")
through a single event loop.  It schedules on the scalar engine's binary
heap of ``(time, seq, callback, handle)`` entries
(:class:`~repro.netsim.engine.EventQueue`, the same push, lazy
cancellation and compaction as :class:`~repro.netsim.engine.Simulator`)
and adds only what lanes need: per-lane counters, per-lane probes, and
cohort events (:meth:`BatchSimulator.schedule_cohort`) that one callback
fires for many lanes at once.

Equivalence contract (enforced by ``tests/test_batch_equivalence.py``):

* Events fire globally in ``(time, seq)`` order, exactly like the scalar
  engine.  Because sequence numbers increase monotonically with
  scheduling, the projection of that order onto any one lane equals the
  scalar engine's per-session ``(time, insertion-order)`` order — so a
  session driven through a :class:`LaneSimulator` view observes *bit
  identical* behaviour to the same session on its own scalar
  ``Simulator``.  Lanes share the clock but no mutable state, so a
  cohort of N sessions equals N independent scalar runs.
* Built-in counters (scheduled / fired / cancelled, queue high-water)
  are attributed **per lane**, not pooled into one global blob, and the
  aggregate equals the fold of the per-lane counters.

Alongside the exact event loop, the module provides the numpy kernels
the cohort fast path and ``benchmarks/bench_batch_engine.py`` use to
advance whole cohorts without per-packet Python callbacks:

* :func:`drop_tail_departures` — the scalar :class:`~repro.netsim.link.
  Link` admission/serialization recurrence over arrays (bit-exact,
  including the backlog int truncation);
* :func:`fifo_departures` — fully vectorized Lindley recurrence for
  uncontended/work-conserving FIFOs (documented fp tolerance: the
  prefix-max association differs from the sequential recurrence by a
  few ulps when the queue is busy).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.netsim.engine import EventHandle, EventQueue, schedule_periodic
from repro.obs import metrics as obs_metrics


class BatchHandle(EventHandle):
    """A cancellable event scheduled on one lane of a batch engine."""

    __slots__ = ("lane",)

    def __init__(self, time: float, seq: int, lane: int) -> None:
        # Every lane event builds one: setting the slots here instead of
        # calling EventHandle.__init__ saves ~10% of a lane event's cost.
        self.time = time
        self._seq = seq
        self._cancelled = False
        self._fired = False
        self.lane = lane


class CohortHandle(EventHandle):
    """One scheduled event whose firing is attributed to many lanes.

    Used by vectorized cohort stages: a single callback advances a whole
    array of sessions, and the engine books one fired event *per lane*
    so per-session accounting stays truthful.
    """

    __slots__ = ("lanes",)

    #: No single lane: the event is booked to every lane in ``lanes``.
    lane = None

    def __init__(self, time: float, seq: int, lanes: np.ndarray) -> None:
        super().__init__(time, seq)
        self.lanes = lanes


class BatchSimulator(EventQueue):
    """Shared event loop advancing N independent lanes (sessions).

    Every lane event is an ordinary heap entry whose handle names its
    lane (:class:`BatchHandle`) or lanes (:class:`CohortHandle`); the
    fire loop books each event to those lanes as it pops it.
    """

    def __init__(self, n_lanes: int = 0) -> None:
        super().__init__()
        # Per-lane attribution: counters are not one global blob in
        # batch mode.  Fired is derived: scheduled - cancelled - live.
        self._scheduled: List[int] = []
        self._cancelled: List[int] = []
        self._live: List[int] = []
        self._lane_high_water: List[int] = []
        self._lane_probes: Dict[int, Callable[[str, float, EventHandle], Any]] = {}
        for _ in range(n_lanes):
            self.add_lane()

    # ------------------------------------------------------------------
    # Lanes
    # ------------------------------------------------------------------

    @property
    def n_lanes(self) -> int:
        """Number of lanes (sessions) hosted by this engine."""
        return len(self._scheduled)

    def add_lane(self) -> "LaneSimulator":
        """Add one lane and return its scalar-compatible view."""
        lane = len(self._scheduled)
        self._scheduled.append(0)
        self._cancelled.append(0)
        self._live.append(0)
        self._lane_high_water.append(0)
        return LaneSimulator(self, lane)

    def lane(self, index: int) -> "LaneSimulator":
        """The view of an existing lane."""
        if not 0 <= index < self.n_lanes:
            raise IndexError(f"no lane {index} (have {self.n_lanes})")
        return LaneSimulator(self, index)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(self, lane: int, delay: float,
                 callback: Callable[[], Any]) -> BatchHandle:
        """Run ``callback`` on ``lane``, ``delay`` seconds from now."""
        if not delay >= 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(lane, self._now + delay, callback)

    def schedule_at(self, lane: int, time: float,
                    callback: Callable[[], Any]) -> BatchHandle:
        """Run ``callback`` on ``lane`` at absolute simulated ``time``."""
        # EventQueue._push and _book, inlined like Simulator.schedule_at:
        # every lane event of every session comes through here.
        if not time >= self._now:
            raise ValueError(
                f"cannot schedule at {time:.6f}, clock already at {self._now:.6f}"
            )
        seq = self._seq
        self._seq = seq + 1
        handle = BatchHandle(time, seq, lane)
        queue = self._queue
        heapq.heappush(queue, (time, seq, callback, handle))
        if len(queue) > self.queue_high_water:
            self.queue_high_water = len(queue)
        self._scheduled[lane] += 1
        live = self._live[lane] + 1
        self._live[lane] = live
        if live > self._lane_high_water[lane]:
            self._lane_high_water[lane] = live
        if self._lane_probes:
            probe = self._lane_probes.get(lane)
            if probe is not None:
                probe("schedule", time, handle)
        return handle

    def schedule_cohort(self, delay: float, lanes: Sequence[int],
                        callback: Callable[[], Any]) -> CohortHandle:
        """Schedule one vectorized event attributed to many lanes.

        The callback runs once; scheduled/fired counters and queue
        high-water marks advance on every listed lane, so per-session
        accounting folds correctly even when a whole cohort advances in
        one struct-of-arrays step.
        """
        if not delay >= 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        lanes_arr = np.asarray(lanes, dtype=np.int64)
        if lanes_arr.size == 0:
            raise ValueError("a cohort event needs at least one lane")
        if lanes_arr.min() < 0 or lanes_arr.max() >= self.n_lanes:
            raise IndexError("cohort lane out of range")
        handle = self._push(self._now + delay, callback, CohortHandle,
                            lanes_arr)
        for lane in lanes_arr.tolist():  # tolist: cheap Python ints
            self._book(lane)
        return handle

    def _book(self, lane: int) -> None:
        """Count one newly scheduled event on ``lane``."""
        self._scheduled[lane] += 1
        live = self._live[lane] + 1
        self._live[lane] = live
        if live > self._lane_high_water[lane]:
            self._lane_high_water[lane] = live

    def cancel(self, handle: EventHandle) -> bool:
        """Revoke a scheduled event before it fires (lazy, O(1))."""
        if not self._revoke(handle):
            return False
        lane = handle.lane  # type: ignore[attr-defined]
        if lane is None:
            for lane in handle.lanes.tolist():  # type: ignore[attr-defined]
                self._cancelled[lane] += 1
                self._live[lane] -= 1
        else:
            self._cancelled[lane] += 1
            self._live[lane] -= 1
            if self._lane_probes:
                probe = self._lane_probes.get(lane)
                if probe is not None:
                    probe("cancel", handle.time, handle)
        return True

    def run(self, until: Optional[float] = None) -> None:
        """Fire events in global ``(time, seq)`` order.

        Semantics mirror :meth:`repro.netsim.engine.Simulator.run`: with
        ``until`` the clock stops there and later events stay queued;
        without it the queue drains completely.
        """
        self._enter_run(until)
        queue = self._queue  # compaction mutates in place, never rebinds
        pop = heapq.heappop
        live = self._live
        probes = self._lane_probes
        try:
            while queue:
                time, _seq, callback, handle = queue[0]
                if handle._cancelled:
                    pop(queue)
                    self._cancelled_pending -= 1
                    continue
                if until is not None and time > until:
                    break
                pop(queue)
                self._now = time
                handle._fired = True
                lane = handle.lane
                if lane is None:
                    for lane in handle.lanes.tolist():
                        live[lane] -= 1
                else:
                    live[lane] -= 1
                    if probes:
                        probe = probes.get(lane)
                        if probe is not None:
                            probe("fire", time, handle)
                callback()
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False
            self._publish_metrics()

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    @property
    def events_scheduled(self) -> int:
        """Total events scheduled across all lanes."""
        return sum(self._scheduled)

    @property
    def events_fired(self) -> int:
        """Total callbacks fired across all lanes."""
        return (sum(self._scheduled) - sum(self._cancelled)
                - sum(self._live))

    @property
    def events_cancelled(self) -> int:
        """Total cancellations across all lanes."""
        return sum(self._cancelled)

    def _lane_fired(self, lane: int) -> int:
        # Every scheduled event is exactly one of fired, cancelled, live.
        return (self._scheduled[lane] - self._cancelled[lane]
                - self._live[lane])

    def lane_stats(self, lane: int) -> Dict[str, float]:
        """One lane's counters — same keys as ``Simulator.stats()``."""
        return {
            "events_scheduled": self._scheduled[lane],
            "events_fired": self._lane_fired(lane),
            "events_cancelled": self._cancelled[lane],
            "heap_compactions": self.heap_compactions,
            "queue_high_water": self._lane_high_water[lane],
            "sim_time_s": self._now,
        }

    def stats(self) -> Dict[str, float]:
        """Aggregate counters (the fold of every lane's counters)."""
        return {
            "events_scheduled": self.events_scheduled,
            "events_fired": self.events_fired,
            "events_cancelled": self.events_cancelled,
            "heap_compactions": self.heap_compactions,
            "queue_high_water": self.queue_high_water,
            "lanes": self.n_lanes,
            "sim_time_s": self._now,
        }

    def _publish_metrics(self) -> None:
        """Flush counter deltas to the process metrics registry.

        ``netsim.batch.merges`` counts heap compactions, like the scalar
        ``netsim.heap_compactions``; the name stays so existing readers
        of the metric keep working.
        """
        self._flush_counters({
            "netsim.batch.events_scheduled": self.events_scheduled,
            "netsim.batch.events_fired": self.events_fired,
            "netsim.batch.events_cancelled": self.events_cancelled,
            "netsim.batch.merges": self.heap_compactions,
            "netsim.batch.sim_time_s": self._now,
        })
        obs_metrics.gauge("netsim.batch.lanes").set_max(self.n_lanes)
        obs_metrics.gauge("netsim.batch.queue_high_water").set_max(
            self.queue_high_water
        )


class LaneSimulator:
    """One lane's scalar-compatible view of a :class:`BatchSimulator`.

    Implements the :class:`~repro.netsim.engine.Simulator` surface —
    ``now``, ``schedule``/``schedule_at``/``schedule_every``, ``cancel``,
    ``run``, counters, ``stats()`` — so existing session machinery runs
    on a shared batch engine unchanged.  ``run`` advances the *whole*
    batch; calling it again for further lanes of the same cohort is a
    no-op because the shared clock has already reached ``until``.
    """

    __slots__ = ("_batch", "_lane")

    def __init__(self, batch: BatchSimulator, lane: int) -> None:
        self._batch = batch
        self._lane = lane

    @property
    def batch(self) -> BatchSimulator:
        """The shared engine behind this lane."""
        return self._batch

    @property
    def lane_index(self) -> int:
        """This lane's index within the batch."""
        return self._lane

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._batch._now

    @property
    def on_event(self):
        """Optional per-lane probe, same contract as ``Simulator``."""
        return self._batch._lane_probes.get(self._lane)

    @on_event.setter
    def on_event(self, probe) -> None:
        if probe is None:
            self._batch._lane_probes.pop(self._lane, None)
        else:
            self._batch._lane_probes[self._lane] = probe

    @property
    def events_scheduled(self) -> int:
        """Events this lane has scheduled."""
        return self._batch._scheduled[self._lane]

    @property
    def events_fired(self) -> int:
        """Callbacks of this lane that ran."""
        return self._batch._lane_fired(self._lane)

    @property
    def events_cancelled(self) -> int:
        """Events this lane cancelled."""
        return self._batch._cancelled[self._lane]

    @property
    def queue_high_water(self) -> int:
        """Most live events this lane ever had queued."""
        return self._batch._lane_high_water[self._lane]

    def schedule(self, delay: float,
                 callback: Callable[[], Any]) -> BatchHandle:
        """Run ``callback`` ``delay`` seconds from now on this lane."""
        if not delay >= 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        batch = self._batch
        return batch.schedule_at(self._lane, batch._now + delay, callback)

    def schedule_at(self, time: float,
                    callback: Callable[[], Any]) -> BatchHandle:
        """Run ``callback`` at absolute ``time`` on this lane."""
        return self._batch.schedule_at(self._lane, time, callback)

    def schedule_every(self, interval: float, callback: Callable[[], Any],
                       *, start: float = 0.0,
                       until: Optional[float] = None) -> None:
        """Periodic scheduling — the exact scalar tick arithmetic."""
        schedule_periodic(self, interval, callback, start=start, until=until)

    def cancel(self, handle: EventHandle) -> bool:
        """Revoke one of this batch's scheduled events."""
        return self._batch.cancel(handle)

    def run(self, until: Optional[float] = None) -> None:
        """Advance the shared batch engine (all lanes move together)."""
        self._batch.run(until=until)

    def pending_events(self) -> int:
        """Live events still queued on this lane."""
        return self._batch._live[self._lane]

    def stats(self) -> Dict[str, float]:
        """This lane's counters, scalar ``Simulator.stats()`` shaped."""
        return self._batch.lane_stats(self._lane)


# ----------------------------------------------------------------------
# Vectorized service kernels (the struct-of-arrays fast path)
# ----------------------------------------------------------------------


def drop_tail_departures(
    times: np.ndarray,
    wire_bytes: np.ndarray,
    rate_bps: float,
    queue_bytes: int,
    busy0: float = 0.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact :class:`~repro.netsim.link.Link` admission over arrays.

    Packets must be offered in non-decreasing time order.  Returns
    ``(departures, accepted)`` where rejected packets carry NaN
    departures.  The recurrence — including the backlog ``int``
    truncation of ``Link.backlog_bytes`` — matches the scalar link
    bit for bit, so kernels built on it reproduce event-driven runs.
    """
    times = np.asarray(times, dtype=np.float64)
    wire = np.asarray(wire_bytes)
    n = len(times)
    dep = np.full(n, np.nan)
    accepted = np.zeros(n, dtype=bool)
    busy = busy0
    byte_rate = rate_bps / 8.0
    for i in range(n):
        now = times[i]
        backlog = int((busy - now) * byte_rate) if busy > now else 0
        w = int(wire[i])
        if backlog + w > queue_bytes:
            continue
        start = now if now > busy else busy
        busy = start + w * 8.0 / rate_bps
        dep[i] = busy
        accepted[i] = True
    return dep, accepted


def fifo_departures(
    arrivals: np.ndarray,
    service_s: np.ndarray,
    busy0: float = 0.0,
) -> np.ndarray:
    """Vectorized work-conserving FIFO (Lindley recurrence), no drops.

    ``dep[i] = max(arr[i], dep[i-1]) + ser[i]`` computed with prefix
    reductions instead of a Python loop.  When a packet finds the link
    idle the result is exactly ``arr + ser`` (bit-identical to the
    scalar link); inside a busy period the prefix-max association can
    differ from the sequential recurrence by a few ulps — the documented
    fp tolerance of the batch fast path.
    """
    arr = np.asarray(arrivals, dtype=np.float64)
    ser = np.asarray(service_s, dtype=np.float64)
    if len(arr) == 0:
        return np.empty(0)
    csum = np.cumsum(ser)
    prev = np.concatenate(([0.0], csum[:-1]))
    slack = arr - prev
    slack[0] = max(slack[0], busy0)
    run_max = np.maximum.accumulate(slack)
    dep = run_max + csum
    idle = run_max == slack  # link idle at arrival: keep arr + ser exact
    dep[idle] = arr[idle] + ser[idle]
    return dep
