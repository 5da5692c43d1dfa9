"""The distributed campaign coordinator.

The coordinator is the only process that knows the full task list.  It
publishes one spec per cell into the shared queue, then *waits*: workers
(started independently, on any host that sees the store) claim, execute
and commit cells on their own.  The coordinator's job afterwards is
assembly — collect every committed outcome, fold per-worker journals and
manifests into single deterministic files, and hand back results **in
task order**, exactly as :class:`~repro.core.parallel.TaskRunner` would
have.

Two deliberate degradations keep a distributed campaign from being
*worse* than a local one:

- **No workers?  No problem.**  If no worker heartbeat appears within
  ``worker_wait_s`` (or the whole fleet dies mid-run), the coordinator
  claims cells itself — through the same lease protocol, so a late
  worker can still join — executes them on the local process pool
  (``jobs`` workers, watchdog, retry taxonomy), and commits each one
  with :func:`~repro.core.dist.worker.commit_lease`, exactly as a worker
  does.  A distributed campaign with zero workers is therefore just a
  parallel campaign with extra bookkeeping.
- **Crash anywhere, resume anywhere.**  Commit markers are the ground
  truth.  Re-running the same campaign against the same store re-enqueues
  only unfinished cells; finished ones are collected from their committed
  outcomes without re-execution.

The merged journal the coordinator writes is a plain
:class:`~repro.core.journal.RunJournal`, so a later *single-process*
``--resume`` can pick up where a distributed fleet left off.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Union

from repro.checks import positive
from repro.core.cache import ResultCache, code_fingerprint
from repro.core.dist import heartbeat as hb
from repro.core.dist.merge import (
    merge_journals,
    merge_manifests,
    read_worker_manifests,
)
from repro.core.dist.queue import Lease, QueueError, TaskSpec, WorkQueue
from repro.core.dist.store import StoreLayout, layout as make_layout, worker_id
from repro.core.dist.worker import commit_lease
from repro.core.errors import CellFailure, RetryPolicy
from repro.core.journal import (
    STATUS_CACHED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_QUARANTINED,
    STATUS_RESUMED,
    CellOutcome,
    RunJournal,
    RunManifest,
    run_fingerprint,
)
from repro.core.parallel import CellTask, RunStats, TaskRunner
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

#: Completed statuses an outcome may carry a payload under.
_COMPLETED = (STATUS_OK, STATUS_CACHED)


class _HeldCache:
    """The store cache as the inline fallback's runner sees it.

    Reads go through, so cached cells replay.  Writes are held here:
    a payload enters the store cache only once its lease commits, which
    :func:`~repro.core.dist.worker.commit_lease` does, as for a worker.
    """

    def __init__(self, cache: ResultCache) -> None:
        self.cache = cache
        self.payloads: Dict[str, Any] = {}

    def get(self, key: str) -> Any:
        self.payloads[key] = self.cache.get(key)
        return self.payloads[key]

    def put(self, key: str, payload: Any) -> None:
        self.payloads[key] = payload


class Coordinator:
    """Publishes a campaign to a shared store and assembles its results.

    Args:
        store: Shared store directory (workers point ``--store`` here).
        jobs: Pool width of the *inline fallback* runner (irrelevant
            while external workers are doing the work).
        worker_wait_s: Grace period to wait for a first worker heartbeat
            before the coordinator starts executing cells itself.
        poll_s: Wait-loop polling interval.
        heartbeat_interval_s: The coordinator's own beacon interval (its
            fallback leases deserve the same takeover protection).
        lease_timeout_s: Owner-silence span after which a lease is
            stealable (default: 3x the heartbeat interval).
        timeout: Per-cell watchdog deadline for the fallback pool.
        max_retries: Transient-retry budget (fallback execution).
        jitter: Seeded backoff jitter fraction for fallback retries.
        journal: As for :class:`TaskRunner`: receives the merged
            distributed checkpoint, so the operator's ``--journal`` file
            stays resumable locally.
        manifest: As for :class:`TaskRunner`: every merged outcome is
            recorded into it (a fresh one is created when omitted).
        failfast: When True, a cell that failed (not quarantined)
            raises after the merges; when False it surfaces as a
            :class:`CellFailure` result slot.
    """

    def __init__(
        self,
        store: Union[str, Path, StoreLayout],
        *,
        jobs: int = 1,
        worker_wait_s: float = 10.0,
        poll_s: float = 0.25,
        heartbeat_interval_s: float = hb.DEFAULT_INTERVAL_S,
        lease_timeout_s: Optional[float] = None,
        timeout: Optional[float] = None,
        max_retries: int = 1,
        jitter: float = 0.25,
        seed: int = 0,
        journal: Optional[RunJournal] = None,
        manifest: Optional[RunManifest] = None,
        failfast: bool = True,
        progress: Optional[Callable[[str], None]] = None,
        sleep: Callable[[float], None] = time.sleep,
        monotonic: Callable[[], float] = time.monotonic,
    ) -> None:
        self.layout = (store if isinstance(store, StoreLayout)
                       else make_layout(store))
        self.worker = worker_id(None)
        self.jobs = jobs
        self.worker_wait_s = worker_wait_s
        self.poll_s = poll_s
        self.heartbeat_interval_s = heartbeat_interval_s
        self.lease_timeout_s = (
            lease_timeout_s if lease_timeout_s is not None
            else heartbeat_interval_s * hb.STALE_FACTOR
        )
        self.timeout = None if timeout is None else positive(timeout, "timeout")
        self.policy = RetryPolicy(max_retries=max_retries, jitter=jitter,
                                  seed=seed)
        self.journal = journal
        self.manifest = manifest if manifest is not None else RunManifest()
        self.failfast = failfast
        self.progress = progress
        self._sleep = sleep
        self._monotonic = monotonic
        self.queue = WorkQueue(self.layout, worker=self.worker)
        self.stats = RunStats()
        self.dist: Dict[str, Any] = {}         # distributed-run summary
        self._inline_keys: Set[str] = set()

    # ------------------------------------------------------------------
    # top level
    # ------------------------------------------------------------------

    def run(self, tasks: Sequence[CellTask]) -> List[Any]:
        """Run ``tasks`` through the store; results come in task order."""
        started = self._monotonic()
        self.stats = RunStats(tasks=len(tasks))
        self._inline_keys = set()
        keys = [task.cache_key() for task in tasks]
        specs = self._dedup_specs(tasks, keys)
        fingerprint = run_fingerprint(keys)
        self.layout.create()
        self._reset_side_files(fingerprint)
        counts = self.queue.publish(specs, fingerprint, code_fingerprint())
        resumed_keys = set(self.queue.done_tokens())
        self._tick(f"[dist] published {counts['published']} cells "
                   f"({len(resumed_keys)} already done) in "
                   f"{self.layout.root}")
        cache = ResultCache(self.layout.cache_dir)
        session = RunManifest()
        for key in sorted(resumed_keys):
            name = next((t.name for t, k in zip(tasks, keys) if k == key),
                        key)
            session.record(CellOutcome(name=name, key=key,
                                       status=STATUS_RESUMED, attempts=0))
        beacon = hb.HeartbeatWriter(self.layout, self.worker,
                                    interval_s=self.heartbeat_interval_s)
        own_journal = RunJournal(self.layout.journals_dir
                                 / f"{self.worker}.jsonl")
        try:
            with beacon, obs_trace.span("dist.coordinate", cat="dist",
                                        tasks=len(tasks), jobs=self.jobs):
                self._wait(cache, own_journal, session)
        finally:
            own_journal.close()
            self._write_session_manifest(session)
        results = self._assemble(tasks, keys, resumed_keys)
        self.stats.elapsed_s = self._monotonic() - started
        return results

    def _dedup_specs(self, tasks: Sequence[CellTask],
                     keys: Sequence[str]) -> List[TaskSpec]:
        specs: List[TaskSpec] = []
        seen: Set[str] = set()
        for task, key in zip(tasks, keys):
            if key in seen:
                continue
            seen.add(key)
            specs.append(TaskSpec(key=key, name=task.name, task=task))
        return specs

    def _reset_side_files(self, fingerprint: str) -> None:
        """A different campaign in this store orphans old side files.

        The queue wipes itself on a fingerprint change; journals and
        manifests from the previous campaign must go too, or they would
        leak foreign cells into this run's merge.  The shared cache
        stays — it is content-addressed, so stale entries are unreachable
        by construction.
        """
        from repro.core.dist.store import read_json
        existing = read_json(self.layout.campaign_file)
        if existing is None or existing.get("fingerprint") == fingerprint:
            return
        for directory in (self.layout.journals_dir, self.layout.manifests_dir):
            if directory.exists():
                for path in directory.iterdir():
                    path.unlink(missing_ok=True)
        self.layout.merged_journal.unlink(missing_ok=True)
        self.layout.merged_manifest.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # the wait loop (plus inline fallback)
    # ------------------------------------------------------------------

    def _wait(self, cache: ResultCache, own_journal: RunJournal,
              session: RunManifest) -> None:
        fallback_at = self._monotonic() + self.worker_wait_s
        inline = False
        last_done = -1
        while not self.queue.finished():
            live = {
                worker: data
                for worker, data in hb.live_workers(
                    self.layout, self.lease_timeout_s
                ).items()
                if worker != self.worker
            }
            done = len(self.queue.done_tokens())
            if done != last_done:
                last_done = done
                total = int((self.queue.campaign() or {}).get("total", 0))
                self._tick(f"[dist] {done}/{total} cells done, "
                           f"{len(live)} worker(s) live")
            if not live and (inline or self._monotonic() >= fallback_at):
                if not inline:
                    self._tick("[dist] no live workers — "
                               "falling back to in-process execution")
                inline = True
                if self._drain_inline(cache, own_journal, session):
                    continue
            self._sleep(self.poll_s)

    def _drain_inline(self, cache: ResultCache, own_journal: RunJournal,
                      session: RunManifest) -> bool:
        """Claim one batch of cells, run them on the local pool, commit.

        Goes through the very same lease protocol workers use, so a
        worker that shows up late can still steal from a stalled
        coordinator, and vice versa.  Returns False when nothing was
        claimable (all remaining leases belong to live owners).
        """
        leases: List[Lease] = []
        while len(leases) < max(self.jobs, 1):
            lease = self.queue.claim(stale_after_s=self.lease_timeout_s)
            if lease is None:
                break
            leases.append(lease)
        if not leases:
            return False
        held = _HeldCache(cache)
        runner = TaskRunner(jobs=self.jobs, cache=held, policy=self.policy,
                            timeout=self.timeout, failfast=False,
                            progress=self.progress)
        try:
            runner.run([lease.spec.task for lease in leases])
        except BaseException:
            # Interrupted mid-batch: hand the cells straight back rather
            # than making survivors wait out the staleness deadline.
            for lease in leases:
                self.queue.release(lease)
            raise
        # Retries are folded from committed outcomes later; counting the
        # runner's here as well would double-book inline cells.
        self.stats.timeouts += runner.stats.timeouts
        self.stats.fallbacks += runner.stats.fallbacks
        cells = {cell.key: cell for cell in runner.manifest.cells}
        for lease in leases:
            cell = cells.get(lease.key)
            if cell is None:
                self.queue.release(lease)
            elif commit_lease(self.queue, lease,
                              dataclasses.replace(cell, worker=self.worker),
                              held.payloads.get(lease.key), cache=cache,
                              journal=own_journal, manifest=session):
                self._inline_keys.add(lease.key)
        return True

    def _write_session_manifest(self, session: RunManifest) -> None:
        if not session.cells:
            return
        try:
            session.write(self.layout.manifests_dir / f"{self.worker}.json")
        except OSError:
            pass  # done/ markers still hold the truth

    # ------------------------------------------------------------------
    # assembly: outcomes -> results, merges, stats
    # ------------------------------------------------------------------

    def _assemble(self, tasks: Sequence[CellTask], keys: Sequence[str],
                  resumed_keys: Set[str]) -> List[Any]:
        done = self.queue.done_tokens()
        outcomes: Dict[str, Dict[str, Any]] = {}
        for key, token in done.items():
            outcome = self.queue.outcome_for(key, token)
            if outcome is not None:
                outcomes[key] = outcome
        self._merge_artifacts()
        self._fold_stats(outcomes, set(keys), resumed_keys)
        self.dist = {
            "workers": sorted({
                str(o.get("worker", "")) for o in outcomes.values()
            } - {""}),
            "takeovers": sum(1 for t in done.values() if t > 1),
            "fenced_zombies": len(self.queue.zombie_outcomes()),
            "resumed": len(resumed_keys),
            "inline_cells": len(self._inline_keys),
        }
        results: List[Any] = [None] * len(tasks)
        first_failure: Optional[str] = None
        for index, task in enumerate(tasks):
            key = keys[index]
            outcome = outcomes.get(key)
            if outcome is None:
                raise QueueError(
                    f"cell {task.name!r} has a commit marker but no "
                    f"readable outcome in {self.layout.outcomes_dir}"
                )
            status = outcome.get("status")
            if status in _COMPLETED:
                payload = outcome.get("payload")
                results[index] = (task.unpack(payload) if task.unpack
                                  else payload)
                continue
            error = outcome.get("error") or {}
            results[index] = CellFailure(
                name=task.name, key=key,
                category=str(error.get("category", "deterministic")),
                error_type=str(error.get("type", "Exception")),
                message=str(error.get("message", "")),
                attempts=int(outcome.get("attempts", 1)),
            )
            if (self.failfast and status == STATUS_FAILED
                    and first_failure is None):
                first_failure = (
                    f"cell {task.name!r} failed on worker "
                    f"{outcome.get('worker', '?')}: "
                    f"{error.get('type', 'Exception')}: "
                    f"{error.get('message', '')}"
                )
        if first_failure is not None:
            # Merges above already ran: the failure loses no finished work.
            raise RuntimeError(first_failure)
        return results

    def _merge_artifacts(self) -> None:
        journal_paths = sorted(self.layout.journals_dir.glob("*.jsonl"))
        merged_journal = merge_journals(journal_paths,
                                        self.layout.merged_journal)
        if self.journal is not None:
            self._replicate_journal(merged_journal, self.journal)
        merged = merge_manifests(
            read_worker_manifests(self.layout.manifests_dir)
        )
        merged.write(self.layout.merged_manifest)
        for cell in merged.cells:
            self.manifest.record(cell)

    @staticmethod
    def _replicate_journal(merged: RunJournal, journal: RunJournal) -> None:
        """Copy the merged entries into the operator's ``--journal`` file."""
        entries = merged.load()
        journal.ensure_fresh()
        for key in sorted(entries):
            entry = entries[key]
            journal.append(
                key=key, name=str(entry.get("name", "")),
                status=str(entry.get("status", "")),
                payload=entry.get("payload"),
                attempts=int(entry.get("attempts", 1)),
                duration_s=float(entry.get("duration_s", 0.0)),
                error=entry.get("error"),
            )
        journal.flush()

    def _fold_stats(self, outcomes: Dict[str, Dict[str, Any]],
                    wanted: Set[str], resumed_keys: Set[str]) -> None:
        for key, outcome in outcomes.items():
            if key not in wanted:
                continue
            status = outcome.get("status")
            if key in resumed_keys:
                self.stats.resumed += 1
            elif status == STATUS_CACHED:
                self.stats.cache_hits += 1
            elif status == STATUS_OK:
                self.stats.executed += 1
            elif status == STATUS_QUARANTINED:
                self.stats.quarantined += 1
            elif status == STATUS_FAILED:
                self.stats.failed += 1
            if key not in resumed_keys:
                self.stats.retries += int(outcome.get("retries", 0))
            # Fold foreign workers' per-cell metrics into this registry
            # so ``--metrics`` reports fleet totals; inline cells already
            # landed in it when they executed here.
            snap = outcome.get("metrics")
            if (snap and status == STATUS_OK
                    and outcome.get("worker") != self.worker):
                obs_metrics.REGISTRY.merge(snap)

    def _tick(self, label: str) -> None:
        if self.progress is not None:
            self.progress(label)
