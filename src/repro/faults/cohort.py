"""Fault injection for cohorts: one batch engine, many armed lanes.

A :class:`~repro.faults.injector.FaultInjector` owns one scalar session's
faults; a cohort hosts hundreds of sessions on one
:class:`~repro.netsim.batch.BatchSimulator`, and a correlated domain event
(a regional outage, an AP-degradation storm) hits many of them at the same
instant.  Arming each lane independently would schedule ``lanes x events``
apply callbacks plus as many reverts; the :class:`CohortInjector` instead
groups identical events across lanes and schedules **one cohort event per
group edge** (`schedule_cohort`), so a fault covering 200 lanes costs two
engine events, not 400.  Every lane arms this way: ``FaultInjector.arm()``
on a lane enrolls here, and the injector seals when its batch starts
running (``BatchSimulator.on_run_start``), however the lane is run.

Bit-identity is the contract, not an aspiration:

- per-lane apply/revert runs through the *same*
  :meth:`~repro.faults.injector.FaultInjector.apply_event` /
  :meth:`~repro.faults.injector.FaultInjector.revert_event` code and the
  shared :func:`~repro.faults.injector.combine_impairment` arithmetic the
  scalar path uses;
- grouped applies fire at the event's exact onset, scheduled at the top
  of ``run``: at a shared timestamp they follow the events sessions
  scheduled while being built and precede every later one;
- the grouped revert is scheduled *when the apply fires* — the scalar
  injector's semantics — at ``now + duration_s``, which equals ``end_s``
  bit-for-bit because the apply fired at exactly ``start_s``.

``tests/test_gauntlet.py`` holds grouped lanes equal to independent
scalar sessions.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultEvent
from repro.netsim.batch import BatchSimulator, LaneSimulator
from repro.obs import metrics as obs_metrics


class CohortInjector:
    """Arms the fault schedules of a whole cohort on one batch engine.

    Lanes :meth:`enroll` while their sessions are built; :meth:`seal`,
    which runs when the batch next starts running, arms everything at
    once with identical events grouped across lanes into single cohort
    apply/revert pairs.  One injector per batch: :meth:`of` stores the
    instance on the batch object, so every lane of a cohort enrolls into
    the same grouping.
    """

    _ATTR = "_repro_cohort_injector"

    def __init__(self, batch: BatchSimulator) -> None:
        self.batch = batch
        self.sealed = False
        self._injectors: Dict[int, FaultInjector] = {}
        #: Engine events this injector armed (applies only; reverts are
        #: scheduled at apply time): the number of distinct events, not
        #: lanes x events.
        self.cohort_events_armed = 0
        #: Total (lane, event) pairs covered — the scalar-equivalent count.
        self.lane_events_covered = 0
        batch.on_run_start.append(self.seal)

    @classmethod
    def of(cls, batch: BatchSimulator) -> "CohortInjector":
        """The batch's cohort injector, created on first use."""
        existing = getattr(batch, cls._ATTR, None)
        if existing is not None:
            return existing
        injector = cls(batch)
        setattr(batch, cls._ATTR, injector)
        return injector

    def enroll(self, lane: LaneSimulator, injector: FaultInjector) -> None:
        """Register one lane's scalar injector; it arms at :meth:`seal`.

        Raises:
            RuntimeError: Once the batch has started running: a lane
                enrolled then would silently miss its faults.
        """
        if not isinstance(lane, LaneSimulator) or lane.batch is not self.batch:
            raise ValueError("enroll takes a lane of this injector's batch")
        if self.sealed:
            raise RuntimeError("cohort injector already sealed")
        self._injectors[lane.lane_index] = injector

    def seal(self) -> None:
        """Arm every enrolled lane, grouping identical events across lanes.

        Grouping key is the (frozen, hashable) :class:`FaultEvent` itself:
        domain fan-out hands every covered lane the same event object
        values, so one regional outage over 200 lanes becomes one cohort
        apply.  Groups keep first-seen order, which preserves each lane's
        schedule order for the homogeneous schedules domain plans emit.
        Sealing twice is a no-op.
        """
        if self.sealed:
            return
        self.sealed = True
        groups: Dict[FaultEvent, List[int]] = {}
        for lane, injector in self._injectors.items():
            for event in injector.schedule:
                groups.setdefault(event, []).append(lane)
        for event, lanes in groups.items():
            self.batch.schedule_cohort(
                event.start_s - self.batch.now, lanes,
                lambda e=event, ls=tuple(lanes): self._apply_group(e, ls))
            self.cohort_events_armed += 1
            self.lane_events_covered += len(lanes)
        obs_metrics.counter("faults.cohort.sealed").inc()
        obs_metrics.counter("faults.cohort.groups").inc(len(groups))

    # ------------------------------------------------------------------
    # Grouped apply / revert
    # ------------------------------------------------------------------

    def _apply_group(self, event: FaultEvent,
                     lanes: Tuple[int, ...]) -> None:
        """Apply one event to every covered lane; one shared revert."""
        live: List[Tuple[FaultInjector, str]] = []
        live_lanes: List[int] = []
        for lane in lanes:
            injector = self._injectors[lane]
            address = injector.apply_event(event, schedule_revert=False)
            if address is not None:
                live.append((injector, address))
                live_lanes.append(lane)
        obs_metrics.counter("faults.cohort.applies").inc()
        if not live:
            return
        # now == event.start_s exactly (this callback fired at onset), so
        # now + duration_s == end_s bit-for-bit — the scalar revert time.
        self.batch.schedule_cohort(
            event.duration_s, live_lanes,
            lambda: self._revert_group(event, live))

    def _revert_group(self, event: FaultEvent,
                      live: List[Tuple[FaultInjector, str]]) -> None:
        for injector, address in live:
            injector.revert_event(event, address)
        obs_metrics.counter("faults.cohort.reverts").inc()


__all__ = ["CohortInjector"]
