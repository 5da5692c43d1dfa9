"""Deterministic discrete-event scheduler.

The simulator is a plain priority queue of timestamped callbacks.  Ties are
broken by insertion order, which makes runs fully deterministic for a given
seed and schedule — a property the test suite relies on.

Every ``schedule``/``schedule_at`` call returns an :class:`EventHandle` that
can be passed to :meth:`Simulator.cancel` to revoke the event before it
fires.  Cancellation is lazy: the queue entry stays in the heap and is
skipped (without advancing the clock) when it reaches the front, so
cancelling is O(1) and the heap invariant is never disturbed.  The fault
layer uses this to revoke in-flight packet deliveries when a link blacks
out mid-transfer.

Lazy cancellation alone would let a fault-heavy run grow the heap without
bound — a cancelled far-future delivery is only popped when it reaches the
heap front, which for long blackouts is effectively never.  Whenever
cancelled entries outnumber live ones the queue is therefore *compacted*:
one O(n) in-place rebuild that drops every cancelled entry and re-heapifies.
Entries keep their ``(time, seq)`` ordering keys, so compaction can never
change firing order, and the cost is amortized O(1) per cancellation.

The engine is also self-measuring: it keeps cheap built-in counters
(events scheduled/fired/cancelled, compactions, queue-depth high-water
mark; see :meth:`Simulator.stats`) which every ``run`` flushes to the
:mod:`repro.obs.metrics` registry, and an optional :attr:`Simulator.on_event`
probe observes every schedule/cancel/fire edge.  The disabled-probe path
is one ``None`` check per event, held to < 2% loop overhead by
``benchmarks/bench_obs_overhead.py``.

The heap, its clock, lazy cancellation and compaction live once, in
:class:`EventQueue`, which both engines extend: :class:`Simulator` adds
the scalar scheduling surface and fire loop, and
:class:`repro.netsim.batch.BatchSimulator` adds per-lane counters, lane
probes and cohort events on the same heap entries.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs import metrics as obs_metrics

#: Below this queue size compaction is pointless (the rebuild would cost
#: more than lazily popping the handful of cancelled entries).
COMPACT_MIN_QUEUE = 64


def schedule_periodic(
    sim: Any,
    interval: float,
    callback: Callable[[], Any],
    *,
    start: float = 0.0,
    until: Optional[float] = None,
) -> None:
    """Run ``callback`` periodically on any scheduler exposing the
    ``now``/``schedule_at`` surface.

    The callback fires at start, start+interval, ... strictly before
    ``until`` (when given).  Shared by the scalar :class:`Simulator` and
    the batch engine's lane views so both produce bit-identical tick
    times: each tick is computed multiplicatively from the base
    (``base + (tick + 1) * interval``) with the same float operations.
    """
    if not interval > 0:
        raise ValueError(f"interval must be positive, got {interval}")
    base = max(start, sim.now)

    def fire(tick: int) -> None:
        callback()
        # Tick times are computed multiplicatively from the base so
        # floating-point drift cannot accumulate an extra firing.
        next_time = base + (tick + 1) * interval
        if until is None or next_time < until - 1e-12:
            sim.schedule_at(next_time, lambda: fire(tick + 1))

    if until is None or base < until - 1e-12:
        sim.schedule_at(base, lambda: fire(0))


class EventHandle:
    """A scheduled event that can be cancelled before it fires."""

    __slots__ = ("time", "_seq", "_cancelled", "_fired")

    def __init__(self, time: float, seq: int) -> None:
        self.time = time
        self._seq = seq
        self._cancelled = False
        self._fired = False

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`Simulator.cancel` revoked this event."""
        return self._cancelled

    @property
    def fired(self) -> bool:
        """Whether the callback already ran."""
        return self._fired

    @property
    def active(self) -> bool:
        """Still queued: neither fired nor cancelled."""
        return not (self._cancelled or self._fired)

    def __repr__(self) -> str:
        state = "cancelled" if self._cancelled else (
            "fired" if self._fired else "pending"
        )
        return f"EventHandle(t={self.time:.6f}, {state})"


class EventQueue:
    """The binary heap of ``(time, seq, callback, handle)`` entries.

    Owns what both engines share: the simulated clock, sequence numbers,
    the queue high-water mark, push, lazy cancellation and compaction.
    Subclasses add a scheduling surface and a fire loop that pops entries
    in ``(time, seq)`` order and skips cancelled ones without touching
    the clock.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[
            Tuple[float, int, Callable[[], Any], EventHandle]
        ] = []
        self._seq = 0
        self._running = False
        self._cancelled_pending = 0
        self.heap_compactions = 0
        self.queue_high_water = 0
        self._published: Dict[str, float] = {}

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def _push(self, time: float, callback: Callable[[], Any],
              handle_type: Callable[..., EventHandle],
              owner: Any) -> EventHandle:
        """Check ``time``, number the event and queue it.

        Returns:
            The entry's handle, ``handle_type(time, seq, owner)``: the
            subclass handle records who the event is booked to.
        """
        # ``not >=`` rather than ``<``: one comparison that also rejects NaN.
        if not time >= self._now:
            raise ValueError(
                f"cannot schedule at {time:.6f}, clock already at {self._now:.6f}"
            )
        seq = self._seq
        self._seq = seq + 1
        handle = handle_type(time, seq, owner)
        queue = self._queue
        heapq.heappush(queue, (time, seq, callback, handle))
        if len(queue) > self.queue_high_water:
            self.queue_high_water = len(queue)
        return handle

    def _revoke(self, handle: EventHandle) -> bool:
        """Cancel lazily: mark the entry, compact when cancelled ones win.

        Returns:
            False when the event had already fired or been cancelled.
        """
        if not handle.active:
            return False
        handle._cancelled = True
        self._cancelled_pending += 1
        if (self._cancelled_pending * 2 > len(self._queue)
                and len(self._queue) >= COMPACT_MIN_QUEUE):
            self._compact()
        return True

    def _compact(self) -> None:
        """Drop every cancelled entry and rebuild the heap in place.

        In place (slice assignment) because the fire loops hold a local
        reference to the queue list; ordering keys are untouched, so
        firing order is exactly what lazy popping would have produced.
        """
        queue = self._queue
        queue[:] = [entry for entry in queue if not entry[3]._cancelled]
        heapq.heapify(queue)
        self._cancelled_pending = 0
        self.heap_compactions += 1

    def _enter_run(self, until: Optional[float]) -> None:
        if self._running:
            raise RuntimeError("simulator is not reentrant")
        if until is not None and not until >= self._now:
            raise ValueError(
                f"cannot run until {until:.6f}, clock already at "
                f"{self._now:.6f}"
            )
        self._running = True

    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._queue) - self._cancelled_pending

    def _flush_counters(self, totals: Dict[str, float]) -> None:
        """Add each counter's growth since the last flush to the registry.

        Called once per ``run``, so many engines (one per session, one
        session per sweep cell) aggregate into one process view; the
        per-event hot path never touches the registry.
        """
        published = self._published
        for name, total in totals.items():
            moved = total - published.get(name, 0)
            if moved:
                obs_metrics.counter(name).inc(moved)
        self._published = totals


class Simulator(EventQueue):
    """Event loop with a simulated clock measured in seconds.

    Attributes:
        on_event: Optional probe called on every event edge as
            ``on_event(kind, time, handle)`` with kind one of
            ``"schedule"``, ``"cancel"``, ``"fire"``.  Read once at
            :meth:`run` entry for the fire edge, so install it before
            running.  ``None`` (the default) costs one pointer check.
    """

    def __init__(self) -> None:
        super().__init__()
        self.on_event: Optional[
            Callable[[str, float, EventHandle], Any]
        ] = None
        self.events_cancelled = 0

    @property
    def events_scheduled(self) -> int:
        """Total events ever scheduled on this simulator."""
        return self._seq

    @property
    def events_fired(self) -> int:
        """Total callbacks that actually ran.

        Derived, not counted: every scheduled event is exactly one of
        fired, cancelled, or still queued live — so the hot loop never
        pays for the bookkeeping.  (Cancelled entries not yet popped are
        in both ``events_cancelled`` and the queue; the pending term
        keeps them from being subtracted twice.)
        """
        return (self._seq - self.events_cancelled
                - (len(self._queue) - self._cancelled_pending))

    def schedule(self, delay: float, callback: Callable[[], Any]) -> EventHandle:
        """Run ``callback`` ``delay`` seconds from now.

        Returns:
            A cancellable handle for the scheduled event.

        Raises:
            ValueError: If ``delay`` is negative or NaN — the past is
                immutable.
        """
        if not delay >= 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], Any]) -> EventHandle:
        """Run ``callback`` at absolute simulated ``time``.

        Returns:
            A cancellable handle for the scheduled event.
        """
        # EventQueue._push, inlined for the owner-less EventHandle: one
        # more call per event costs ~5% on the probe-off overhead gate
        # (benchmarks/bench_obs_overhead.py).
        if not time >= self._now:
            raise ValueError(
                f"cannot schedule at {time:.6f}, clock already at {self._now:.6f}"
            )
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq)
        queue = self._queue
        heapq.heappush(queue, (time, seq, callback, handle))
        if len(queue) > self.queue_high_water:
            self.queue_high_water = len(queue)
        if self.on_event is not None:
            self.on_event("schedule", time, handle)
        return handle

    def cancel(self, handle: EventHandle) -> bool:
        """Revoke a scheduled event before it fires.

        Returns:
            True when the event was still pending and is now cancelled;
            False when it had already fired or was already cancelled
            (cancelling twice is a harmless no-op).
        """
        if not self._revoke(handle):
            return False
        self.events_cancelled += 1
        if self.on_event is not None:
            self.on_event("cancel", handle.time, handle)
        return True

    def schedule_every(
        self,
        interval: float,
        callback: Callable[[], Any],
        *,
        start: float = 0.0,
        until: Optional[float] = None,
    ) -> None:
        """Run ``callback`` periodically from ``start`` until ``until``.

        The callback fires at start, start+interval, ... strictly before
        ``until`` (when given).
        """
        schedule_periodic(self, interval, callback, start=start, until=until)

    def run(self, until: Optional[float] = None) -> None:
        """Process events in timestamp order.

        Args:
            until: Stop once the clock would pass this time; remaining
                events stay queued.  When None, drain the queue completely.

        Raises:
            ValueError: If ``until`` lies before the current clock — time
                cannot run backwards.
        """
        self._enter_run(until)
        queue = self._queue  # compaction mutates in place, never rebinds
        pop = heapq.heappop
        probe = self.on_event
        try:
            while queue:
                time, _seq, callback, handle = queue[0]
                if handle._cancelled:
                    # Skip without touching the clock: a cancelled event
                    # must leave no observable trace.
                    pop(queue)
                    self._cancelled_pending -= 1
                    continue
                if until is not None and time > until:
                    break
                pop(queue)
                self._now = time
                handle._fired = True
                if probe is not None:
                    probe("fire", time, handle)
                callback()
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False
            self._publish_metrics()

    def stats(self) -> Dict[str, float]:
        """The engine's built-in counters, as plain numbers."""
        return {
            "events_scheduled": self.events_scheduled,
            "events_fired": self.events_fired,
            "events_cancelled": self.events_cancelled,
            "heap_compactions": self.heap_compactions,
            "queue_high_water": self.queue_high_water,
            "sim_time_s": self._now,
        }

    def _publish_metrics(self) -> None:
        """Flush counter deltas to the process metrics registry."""
        self._flush_counters({
            "netsim.events_scheduled": self.events_scheduled,
            "netsim.events_fired": self.events_fired,
            "netsim.events_cancelled": self.events_cancelled,
            "netsim.heap_compactions": self.heap_compactions,
            "netsim.sim_time_s": self._now,
        })
        obs_metrics.gauge("netsim.queue_high_water").set_max(
            self.queue_high_water
        )
