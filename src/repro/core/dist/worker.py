"""The distributed worker agent: claim, execute, commit, repeat.

A worker is one process (``repro worker --store DIR`` from the CLI, or
:class:`WorkerAgent` embedded) that joins a shared store, then loops:
claim a cell from the queue (stealing stale leases when the pending
directory is dry), execute it through the local runner's cell loop
(:func:`~repro.core.parallel.execute_cell`: transient failures retried
with seeded-jitter backoff, salted with the worker id so a fleet never
retries in lockstep), and commit the outcome through the fencing
protocol with :func:`commit_lease`.  Every commit is also checkpointed
to the worker's own journal and manifest, which the coordinator later
merges.

Parallelism across a host is "run more workers": each agent is serial
inside, which keeps the failure unit (one process == one lease == one
cell) aligned with what SIGKILL, OOM, and partitions actually take out.

Shutdown paths:

- **queue drained** — every published cell has a commit marker; exit 0.
- **SIGINT/SIGTERM** — the CLI turns these into
  :class:`~repro.core.errors.CampaignInterrupted`; the agent releases
  its current lease back to ``pending/`` (no waiting out a staleness
  deadline), flushes journal and manifest, withdraws its heartbeat, and
  reports itself drained.
- **SIGKILL / power loss** — nothing runs, and nothing needs to: the
  heartbeat goes stale and survivors steal the lease.  That path is the
  chaos suite's favorite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.checks import non_negative, positive
from repro.core.cache import ResultCache, code_fingerprint
from repro.core.dist import heartbeat as hb
from repro.core.dist.queue import Lease, QueueError, WorkQueue
from repro.core.dist.store import StoreLayout, layout as make_layout, worker_id
from repro.core.errors import CampaignInterrupted, RetryPolicy
from repro.core.journal import (
    STATUS_CACHED,
    STATUS_FENCED,
    STATUS_OK,
    STATUS_QUARANTINED,
    CellOutcome,
    RunJournal,
    RunManifest,
)
from repro.core.parallel import execute_cell
from repro.obs import trace as obs_trace

#: Default fraction of backoff jitter for fleet retries — high enough to
#: decorrelate a fleet, too small to distort the schedule.
DEFAULT_JITTER = 0.25


@dataclass
class WorkerStats:
    """What one :meth:`WorkerAgent.run` actually did."""

    claimed: int = 0
    stolen: int = 0
    executed: int = 0
    cache_hits: int = 0
    committed: int = 0
    fenced: int = 0
    released: int = 0
    retries: int = 0
    failed: int = 0
    quarantined: int = 0
    idle_polls: int = 0
    elapsed_s: float = 0.0
    interrupted: bool = False

    def summary_line(self) -> str:
        parts = [f"{self.committed} committed"]
        if self.cache_hits:
            parts.append(f"{self.cache_hits} cached")
        if self.stolen:
            parts.append(f"{self.stolen} stolen")
        if self.fenced:
            parts.append(f"{self.fenced} fenced")
        if self.retries:
            parts.append(f"{self.retries} retries")
        if self.failed:
            parts.append(f"{self.failed} failed")
        if self.quarantined:
            parts.append(f"{self.quarantined} quarantined")
        if self.released:
            parts.append(f"{self.released} released")
        return ", ".join(parts) + f" in {self.elapsed_s:.1f} s"


def commit_lease(queue: WorkQueue, lease: Lease, cell: CellOutcome,
                 payload: Any, *, cache: ResultCache, journal: RunJournal,
                 manifest: RunManifest,
                 progress: Optional[Callable[[str], None]] = None) -> bool:
    """Turn a finished cell into a committed lease; True when it won.

    ``cell`` is the outcome its executor recorded (``worker`` set) and
    ``payload`` its packed result (ok and cached cells).  The outcome is
    committed through the fencing protocol.  A won commit puts a fresh
    payload in the shared cache, checkpoints the cell in the executor's
    journal and ticks ``progress``.  A lost one means the lease was
    taken over: the cell is recorded as fenced and its effects dropped.
    The manifest records the cell either way.  Workers and the
    coordinator's inline fallback both commit through here.
    """
    outcome: Dict[str, Any] = {
        "name": lease.spec.name,
        "status": cell.status,
        "attempts": cell.attempts,
        "retries": cell.retries,
        "duration_s": round(cell.duration_s, 6),
        "sim_time_s": round(cell.sim_time_s, 6),
    }
    if cell.status in (STATUS_OK, STATUS_CACHED):
        outcome["payload"] = payload
    if cell.error is not None:
        outcome["error"] = cell.error
    if cell.metrics is not None:
        outcome["metrics"] = cell.metrics
    committed = queue.commit(lease, outcome)
    if committed:
        if cell.status == STATUS_OK:
            cache.put(lease.key, payload)
        journal.append(key=lease.key, name=lease.spec.name,
                       status=cell.status, payload=payload,
                       attempts=cell.attempts, duration_s=cell.duration_s,
                       error=cell.error)
        label = cell.status
    else:
        cell = replace(cell, status=STATUS_FENCED)
        label = "fenced: lease taken over"
    manifest.record(cell)
    if progress is not None:
        progress(f"{lease.spec.name} [{label}]")
    return committed


class WorkerAgent:
    """One pull-based execution agent against a shared store.

    Args:
        store: The shared store directory (same value the coordinator
            got via ``--store``).
        worker: Explicit worker id (default: host-pid-nonce).
        poll_s: Sleep between claim attempts when nothing is claimable.
        heartbeat_interval_s: Seconds between liveness beacons.
        lease_timeout_s: Owner-silence span after which a lease is
            stealable (default: 3x the heartbeat interval).
        cell_timeout_s: Self-watchdog — a cell running past this stops
            the agent's own heartbeat, inviting takeover and fencing.
        retries: Local transient-retry budget per cell.
        jitter: Backoff jitter fraction (see
            :class:`~repro.core.errors.RetryPolicy`).
        join_timeout_s: How long to wait for a campaign to be published
            before giving up (workers may legally start first).
        idle_exit_s: Exit after this much continuous idleness even if
            the campaign has not finished (opportunistic fleets).
        max_cells: Commit at most this many cells, then exit (chaos
            tests and bounded scavengers).
    """

    def __init__(
        self,
        store: Union[str, Path, StoreLayout],
        worker: Optional[str] = None,
        *,
        poll_s: float = 0.25,
        heartbeat_interval_s: float = hb.DEFAULT_INTERVAL_S,
        lease_timeout_s: Optional[float] = None,
        cell_timeout_s: Optional[float] = None,
        retries: int = 1,
        jitter: float = DEFAULT_JITTER,
        seed: int = 0,
        join_timeout_s: float = 60.0,
        idle_exit_s: Optional[float] = None,
        max_cells: Optional[int] = None,
        progress: Optional[Callable[[str], None]] = None,
        sleep: Callable[[float], None] = time.sleep,
        monotonic: Callable[[], float] = time.monotonic,
    ) -> None:
        self.layout = (store if isinstance(store, StoreLayout)
                       else make_layout(store))
        self.worker = worker_id(worker)
        self.poll_s = positive(poll_s, "poll_s")
        self.heartbeat_interval_s = positive(heartbeat_interval_s,
                                             "heartbeat_interval_s")
        self.lease_timeout_s = (
            positive(lease_timeout_s, "lease_timeout_s")
            if lease_timeout_s is not None
            else heartbeat_interval_s * hb.STALE_FACTOR
        )
        self.cell_timeout_s = (None if cell_timeout_s is None else
                               positive(cell_timeout_s, "cell_timeout_s"))
        self.policy = RetryPolicy(max_retries=retries, jitter=jitter,
                                  seed=seed)
        self.join_timeout_s = non_negative(join_timeout_s, "join_timeout_s")
        self.idle_exit_s = (None if idle_exit_s is None else
                            non_negative(idle_exit_s, "idle_exit_s"))
        self.max_cells = max_cells
        self.progress = progress
        self._sleep = sleep
        self._monotonic = monotonic
        self.queue = WorkQueue(self.layout, worker=self.worker)
        self.stats = WorkerStats()
        self.manifest = RunManifest()
        self._stop = False

    # ------------------------------------------------------------------
    # control
    # ------------------------------------------------------------------

    def request_stop(self) -> None:
        """Ask the loop to drain after the current cell (signal-safe)."""
        self._stop = True

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def run(self) -> WorkerStats:
        """Work the queue until it finishes (or stop/idle-exit/max).

        The liveness beacon starts before the agent waits for a campaign,
        so a fleet already waiting to join counts as live the moment the
        campaign is published.
        """
        started = self._monotonic()
        self.stats = WorkerStats()
        self.manifest = RunManifest()
        self.layout.create()
        beacon = hb.HeartbeatWriter(
            self.layout, self.worker,
            interval_s=self.heartbeat_interval_s,
            busy_timeout_s=self.cell_timeout_s,
        )
        with beacon:
            self._join()
            journal = RunJournal(self.layout.journals_dir
                                 / f"{self.worker}.jsonl")
            journal.reset()
            cache = ResultCache(self.layout.cache_dir)
            lease: Optional[Lease] = None
            idle_since: Optional[float] = None
            try:
                with obs_trace.span("worker.run", cat="dist",
                                    worker=self.worker):
                    while not self._stop:
                        if self.queue.finished():
                            break
                        if (self.max_cells is not None
                                and self.stats.committed >= self.max_cells):
                            break
                        lease = self.queue.claim(
                            stale_after_s=self.lease_timeout_s
                        )
                        if lease is None:
                            now = self._monotonic()
                            idle_since = idle_since if idle_since is not None \
                                else now
                            if (self.idle_exit_s is not None
                                    and now - idle_since >= self.idle_exit_s):
                                break
                            self.stats.idle_polls += 1
                            self._sleep(self.poll_s)
                            continue
                        idle_since = None
                        self.stats.claimed += 1
                        if lease.token > 1:
                            self.stats.stolen += 1
                            self._tick(f"stole {lease.spec.name} "
                                       f"(token {lease.token})")
                        self._work_lease(lease, cache, journal, beacon)
                        lease = None
            except CampaignInterrupted:
                self.stats.interrupted = True
                if lease is not None and self.queue.release(lease):
                    self.stats.released += 1
            finally:
                journal.close()
                self._write_manifest()
                self.stats.elapsed_s = self._monotonic() - started
        return self.stats

    def _join(self) -> None:
        """Wait for a campaign to appear, then validate compatibility."""
        deadline = self._monotonic() + self.join_timeout_s
        fingerprint = code_fingerprint()
        while True:
            try:
                self.queue.join(fingerprint)
                return
            except QueueError as exc:
                if ("no campaign published" not in str(exc)
                        or self._monotonic() >= deadline or self._stop):
                    raise
                self._sleep(self.poll_s)

    # ------------------------------------------------------------------
    # one lease, end to end
    # ------------------------------------------------------------------

    def _work_lease(self, lease: Lease, cache: ResultCache,
                    journal: RunJournal, beacon: hb.HeartbeatWriter) -> None:
        beacon.cell_started()
        try:
            payload = cache.get(lease.key)
            if payload is not None:
                self.stats.cache_hits += 1
                cell = CellOutcome(name=lease.spec.name, key=lease.key,
                                   status=STATUS_CACHED, attempts=0,
                                   worker=self.worker)
            else:
                cell, payload = self._execute(lease)
        finally:
            beacon.cell_finished()
        if commit_lease(self.queue, lease, cell, payload, cache=cache,
                        journal=journal, manifest=self.manifest,
                        progress=self._tick):
            self.stats.committed += 1
        else:
            self.stats.fenced += 1
        self._write_manifest()

    def _execute(self, lease: Lease) -> Tuple[CellOutcome, Any]:
        """Run the leased cell; its outcome and packed payload."""
        task = lease.spec.task
        started = self._monotonic()
        run = execute_cell(task, self.policy, f"{lease.key}:{self.worker}",
                           sleep=self._sleep, progress=self._tick)
        self.stats.retries += run.retries
        payload = None
        if run.status == STATUS_OK:
            self.stats.executed += 1
            payload = task.pack(run.result) if task.pack else run.result
        elif run.status == STATUS_QUARANTINED:
            self.stats.quarantined += 1
        else:
            self.stats.failed += 1
        cell = run.outcome(lease.spec.name, lease.key,
                           self._monotonic() - started, worker=self.worker)
        return cell, payload

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    def _write_manifest(self) -> None:
        try:
            self.manifest.write(self.layout.manifests_dir
                                / f"{self.worker}.json")
        except OSError:
            pass  # a partition: done/ markers still hold the truth

    def _tick(self, label: str) -> None:
        if self.progress is not None:
            self.progress(f"[{self.worker}] {label}")
