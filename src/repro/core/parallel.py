"""Crash-safe process-pool execution engine for campaign sweeps.

Sec. 5 of the paper calls for "automated and large-scale" measurement
campaigns; a grid of independent, seeded cells is embarrassingly parallel,
so every sweep in the package funnels through one runner — and a sweep
that takes hours must *finish*, not merely start, so the runner is built
to survive real execution failures:

- a :class:`CellTask` names a module-level function, its keyword
  arguments (seed included), and optional pack/unpack codecs for the
  on-disk cache and the checkpoint journal;
- :class:`TaskRunner` executes a task list serially (``jobs <= 1``) or on
  a window of worker processes (``jobs > 1``), always returning results
  in task order;
- a per-cell **deadline watchdog** (``timeout``) kills a hung worker
  instead of blocking the sweep forever;
- failures are classified by the taxonomy in :mod:`repro.core.errors`:
  transient ones (worker SIGKILL/OOM, timeouts,
  :class:`~repro.core.errors.TransientError`) are retried with
  exponential backoff, deterministic ones fail fast, and
  :class:`~repro.core.errors.PoisonCell` configurations are quarantined
  on first failure so one bad cell cannot sink the run;
- a worker that keeps dying gets one final **in-process fallback** —
  recorded in the run manifest and warned about, never silent;
- with a :class:`~repro.core.cache.ResultCache` attached, cells whose key
  (config x seed x calibration x code fingerprint) is already on disk are
  replayed without recomputation;
- with a :class:`~repro.core.journal.RunJournal` attached, every
  completed cell is checkpointed (fsynced JSONL) and ``resume=True``
  replays finished cells after SIGINT, SIGKILL, or a machine crash —
  byte-identical to an undisturbed run;
- every executed cell is wrapped in an observability span
  (:mod:`repro.obs.trace` — workers append to the same trace file as
  the parent) and its :mod:`repro.obs.metrics` delta rides back with
  the result, so the run manifest records per-cell wall time,
  *simulated* time, and a metrics snapshot, and the parent registry
  aggregates sweep-wide totals.  The parent also computes the code
  fingerprint once and ships it to each worker, which would otherwise
  re-hash every source file on its first cell.

Determinism is the contract that makes all of this safe: every cell
function is a pure function of its arguments, so serial, parallel,
cache-replayed and journal-resumed sweeps produce identical results — the
equivalence and chaos test suites assert byte-identical CSV exports
across all of these paths.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing
import pickle
import time
import traceback
import warnings
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from repro.checks import at_least, positive
from repro.core.cache import (
    ResultCache,
    code_fingerprint,
    set_code_fingerprint,
    task_key,
)
from repro.core.errors import (
    Category,
    CellFailure,
    CellTimeoutError,
    RemoteErrorInfo,
    RetryPolicy,
    WorkerCrashError,
    classify,
)
from repro.core.journal import (
    STATUS_CACHED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_QUARANTINED,
    STATUS_RESUMED,
    CellOutcome,
    RunJournal,
    RunManifest,
)
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace


@dataclass(frozen=True)
class CellTask:
    """One independent, seeded unit of sweep work.

    Attributes:
        name: Human-readable label (progress lines, error messages).
        fn: A **module-level** callable — it crosses process boundaries by
            pickling, so lambdas and bound methods are rejected.
        kwargs: Keyword arguments for ``fn``; must be picklable, and
            canonicalizable for the cache key (see
            :func:`repro.core.cache.canonical`).
        pack: Result -> JSON-serializable payload (cache/journal write).
        unpack: Payload -> result (cache/journal replay).
            ``pack``/``unpack`` must round-trip exactly for replays to be
            equivalent.
    """

    name: str
    fn: Callable[..., Any]
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    pack: Optional[Callable[[Any], Any]] = None
    unpack: Optional[Callable[[Any], Any]] = None

    def __post_init__(self) -> None:
        if not callable(self.fn):
            raise TypeError("CellTask.fn must be callable")
        qualname = getattr(self.fn, "__qualname__", "")
        if "<lambda>" in qualname or "<locals>" in qualname:
            raise ValueError(
                f"CellTask.fn must be a module-level function, got {qualname!r}"
            )

    def cache_key(self) -> str:
        """The content-addressed identity of this cell."""
        return task_key(self.fn, self.kwargs)

    def execute(self) -> Any:
        """Run the cell in the current process."""
        return self.fn(**self.kwargs)


def _describe_exception(exc: BaseException) -> RemoteErrorInfo:
    """Package an exception so it survives the process boundary."""
    pickled: Optional[bytes] = None
    try:
        pickled = pickle.dumps(exc)
    except Exception:  # noqa: BLE001 - unpicklable exception objects
        pickled = None
    return RemoteErrorInfo(
        error_type=type(exc).__name__,
        message=str(exc),
        mro_names=[c.__name__ for c in type(exc).__mro__],
        traceback=traceback.format_exc(),
        pickled=pickled,
    )


def _sim_time_of(snap: Dict[str, Any]) -> float:
    """Simulated seconds recorded in one metrics snapshot/delta."""
    return float(snap.get("counters", {}).get("netsim.sim_time_s", 0.0))


def _traced_attempt(name: str,
                    call: Callable[[], Any]) -> Tuple[Any, Dict[str, Any]]:
    """One attempt inside the ``cell.<name>`` span: (result, metrics delta)."""
    before = obs_metrics.snapshot()
    with obs_trace.span(f"cell.{name}", cat="cell") as cell_span:
        result = call()
        snap = obs_metrics.delta(before, obs_metrics.snapshot())
        cell_span.set(sim_dur_s=_sim_time_of(snap))
    return result, snap


@dataclass
class CellRun:
    """One cell's record across all its attempts.

    ``status`` is ``ok``, ``failed`` or ``quarantined``; ``result`` is
    the cell's return value once it succeeded, ``error`` and
    ``category`` its terminal failure otherwise.
    """

    status: str = STATUS_OK
    result: Any = None
    error: Optional[BaseException] = None
    category: Optional[Category] = None
    attempts: int = 0
    retries: int = 0
    backoff_s: List[float] = field(default_factory=list)
    sim_time_s: float = 0.0
    metrics: Optional[Dict[str, Any]] = None

    def fail(self, exc: BaseException, category: Category) -> None:
        """Record the terminal failure: poison quarantines, else fails."""
        self.error = exc
        self.category = category
        self.status = (STATUS_QUARANTINED if category is Category.POISON
                       else STATUS_FAILED)

    def error_record(self) -> Optional[Dict[str, Any]]:
        """The error as manifests, journals and lease outcomes store it."""
        if self.error is None:
            return None
        return {
            "type": type(self.error).__name__,
            "message": str(self.error),
            "category": self.category.value,
        }

    def outcome(self, name: str, key: str, duration_s: float,
                **extra: Any) -> CellOutcome:
        """This record as a manifest entry."""
        return CellOutcome(
            name=name, key=key, status=self.status, attempts=self.attempts,
            retries=self.retries, duration_s=duration_s,
            backoff_s=list(self.backoff_s), error=self.error_record(),
            sim_time_s=self.sim_time_s, metrics=self.metrics, **extra,
        )


def _book_retry(run: CellRun, name: str, category: Category,
                policy: RetryPolicy, salt: str,
                progress: Optional[Callable[[str], None]]) -> Optional[float]:
    """Count one retry of a transient failure and return its backoff.

    None when the failure is not transient or the budget is spent.
    Salting the jitter with the cell identity keeps each cell's schedule
    deterministic but uncorrelated with its neighbours'.
    """
    if category is not Category.TRANSIENT or run.retries >= policy.max_retries:
        return None
    run.retries += 1
    delay = policy.delay_for(run.retries, salt=salt)
    run.backoff_s.append(delay)
    if progress is not None:
        progress(f"{name} [retry {run.retries} in {delay:.2f}s]")
    return delay


def execute_cell(task: CellTask, policy: RetryPolicy, salt: str, *,
                 sleep: Callable[[float], None] = time.sleep,
                 progress: Optional[Callable[[str], None]] = None,
                 run: Optional[CellRun] = None) -> CellRun:
    """Run one cell in this process under the error taxonomy.

    Every attempt calls :meth:`CellTask.execute` inside the
    ``cell.<name>`` span and takes the metrics delta around it.  A
    failure is classified; a transient one is retried while
    ``policy.max_retries`` allows, sleeping ``policy.delay_for(n,
    salt=salt)`` in between, and anything else ends the loop.  ``run``
    continues a record earlier attempts already counted into (the
    pool's fallback).  The local runner salts with the cell key, a
    fleet worker with ``key:worker`` so a fleet never retries in
    lockstep.
    """
    run = CellRun() if run is None else run
    while True:
        run.attempts += 1
        try:
            run.result, run.metrics = _traced_attempt(task.name, task.execute)
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:  # noqa: BLE001 - classified below
            category = classify(exc)
            delay = _book_retry(run, task.name, category, policy, salt,
                                progress)
            if delay is None:
                run.fail(exc, category)
                return run
            sleep(delay)
        else:
            run.sim_time_s = _sim_time_of(run.metrics)
            return run


def _child_main(conn: Any, task: CellTask,
                obs_context: Optional[Dict[str, Any]] = None) -> None:
    """Worker entry point: run one cell attempt, report exactly one outcome.

    ``obs_context`` carries the parent's observability state across the
    process boundary: the parent-computed code fingerprint (so workers
    never re-hash the source tree) and the trace path (so worker spans
    land in the same JSONL file).
    """
    obs_context = obs_context or {}
    fingerprint = obs_context.get("code_fingerprint")
    if fingerprint:
        set_code_fingerprint(fingerprint)
    if obs_context.get("trace_path"):
        obs_trace.configure(obs_context["trace_path"])
    try:
        result, snap = _traced_attempt(task.name, task.execute)
        outcome: Dict[str, Any] = {"status": "ok", "result": result,
                                   "metrics": snap}
    except BaseException as exc:  # noqa: BLE001 - report, don't die silently
        outcome = {"status": "error", "info": _describe_exception(exc)}
    finally:
        obs_trace.shutdown()
    try:
        conn.send(outcome)
    except Exception as exc:  # noqa: BLE001 - e.g. unpicklable result
        if outcome["status"] == "ok":
            try:
                conn.send({"status": "error",
                           "info": _describe_exception(exc)})
            except Exception:  # noqa: BLE001 - nothing left to report with
                pass
    finally:
        conn.close()


@dataclass
class RunStats:
    """What one :meth:`TaskRunner.run` actually did."""

    tasks: int = 0
    executed: int = 0
    cache_hits: int = 0
    retries: int = 0
    elapsed_s: float = 0.0
    resumed: int = 0
    timeouts: int = 0
    fallbacks: int = 0
    quarantined: int = 0
    failed: int = 0

    def hit_rate(self) -> float:
        """Fraction of tasks replayed from cache."""
        return self.cache_hits / self.tasks if self.tasks else 0.0


@dataclass
class _CellState(CellRun):
    """A :class:`CellRun` plus the runner's per-cell bookkeeping."""

    index: int = 0
    timeouts: int = 0
    fallback: bool = False
    first_started: Optional[float] = None
    key: Optional[str] = None


@dataclass
class _Active:
    """One in-flight worker process."""

    state: _CellState
    process: Any
    conn: Any
    started: float
    deadline: Optional[float]


class TaskRunner:
    """Executes :class:`CellTask` lists serially or on worker processes.

    Args:
        jobs: Worker processes (0/1 mean serial, in-process).
        cache: Optional content-addressed result cache.
        retries: Transient-failure retry budget per cell (shorthand for
            ``policy=RetryPolicy(max_retries=retries)``).
        progress: Per-cell progress callback.
        timeout: Per-cell deadline in seconds; a worker running past it
            is killed by the watchdog and the cell retried as transient.
            Enforced on the pool path only (``jobs > 1``).
        policy: Full retry/backoff policy (overrides ``retries``).
        journal: Checkpoint journal; every completed cell is appended and
            fsynced so an interrupted run can resume.
        resume: Replay cells the journal already holds instead of
            truncating it and starting fresh.
        manifest: Run manifest to append outcomes to (a fresh one is
            created when omitted; share one instance across several
            sweeps to get a single audit record).
        failfast: When True (default), deterministic failures and
            exhausted transients raise; when False they are recorded in
            the manifest and surface as :class:`CellFailure` result
            slots.  Poison cells are quarantined either way.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        retries: int = 1,
        progress: Optional[Callable[[str], None]] = None,
        *,
        timeout: Optional[float] = None,
        policy: Optional[RetryPolicy] = None,
        journal: Optional[RunJournal] = None,
        resume: bool = False,
        manifest: Optional[RunManifest] = None,
        failfast: bool = True,
        sleep: Callable[[float], None] = time.sleep,
        monotonic: Callable[[], float] = time.monotonic,
    ) -> None:
        at_least(retries, 0, "retries")
        self.jobs = at_least(jobs, 0, "jobs")
        self.cache = cache
        self.policy = policy or RetryPolicy(max_retries=retries)
        self.retries = self.policy.max_retries
        self.progress = progress
        self.timeout = None if timeout is None else positive(timeout, "timeout")
        self.journal = journal
        self.resume = resume
        self.manifest = manifest if manifest is not None else RunManifest()
        self.failfast = failfast
        self.stats = RunStats()
        self._sleep = sleep
        self._monotonic = monotonic

    # ------------------------------------------------------------------
    # top-level run
    # ------------------------------------------------------------------

    def run(self, tasks: Sequence[CellTask]) -> List[Any]:
        """Execute every task; results come back in task order.

        Quarantined (and, with ``failfast=False``, failed) cells occupy
        their result slot with a :class:`CellFailure` marker.
        """
        started = self._monotonic()
        self.stats = RunStats(tasks=len(tasks))
        with obs_trace.span("runner.run", cat="runner", tasks=len(tasks),
                            jobs=self.jobs):
            results = self._run_traced(tasks)
        self.stats.elapsed_s = self._monotonic() - started
        return results

    def _run_traced(self, tasks: Sequence[CellTask]) -> List[Any]:
        results: List[Any] = [None] * len(tasks)
        # Keys are only needed (and their kwargs only need to be
        # canonicalizable) when something content-addressed consumes them.
        need_keys = self.cache is not None or self.journal is not None
        states = {
            i: _CellState(index=i, key=t.cache_key() if need_keys else None)
            for i, t in enumerate(tasks)
        }
        pending: List[int] = list(range(len(tasks)))

        if self.journal is not None:
            if self.resume:
                pending = self._replay_journal(tasks, states, results,
                                               pending)
            else:
                self.journal.ensure_fresh()

        pending = self._replay_cache(tasks, states, results, pending)

        if pending:
            if self.jobs > 1:
                self._run_pool(tasks, states, pending, results)
            else:
                for index in pending:
                    self._execute_inline(tasks[index], states[index], results)
        return results

    def _replay_journal(self, tasks: Sequence[CellTask],
                        states: Dict[int, _CellState], results: List[Any],
                        pending: List[int]) -> List[int]:
        """Fill result slots from a prior run's checkpoint journal."""
        self.journal.load()
        payloads = self.journal.completed_payloads()
        remaining: List[int] = []
        for index in pending:
            state = states[index]
            if state.key in payloads:
                self.stats.resumed += 1
                self._replay(tasks[index], state, payloads[state.key],
                             STATUS_RESUMED, results)
            else:
                remaining.append(index)
        return remaining

    def _replay_cache(self, tasks: Sequence[CellTask],
                      states: Dict[int, _CellState], results: List[Any],
                      pending: List[int]) -> List[int]:
        """Fill result slots from the content-addressed result cache."""
        if self.cache is None:
            return pending
        remaining: List[int] = []
        for index in pending:
            task, state = tasks[index], states[index]
            payload = self.cache.get(state.key)
            if payload is None:
                remaining.append(index)
                continue
            self.stats.cache_hits += 1
            self._journal(task, state, STATUS_CACHED, payload)
            self._replay(task, state, payload, STATUS_CACHED, results)
        return remaining

    def _replay(self, task: CellTask, state: _CellState, payload: Any,
                status: str, results: List[Any]) -> None:
        """Fill one result slot from a stored payload, executing nothing."""
        results[state.index] = task.unpack(payload) if task.unpack else payload
        self.manifest.record(CellOutcome(name=task.name, key=state.key,
                                         status=status, attempts=0))
        self._tick(f"{task.name} [{status}]")

    # ------------------------------------------------------------------
    # serial path (also the pool's last-resort fallback)
    # ------------------------------------------------------------------

    def _execute_inline(self, task: CellTask, state: _CellState,
                        results: List[Any]) -> None:
        """Run one cell in-process through :func:`execute_cell`.

        The watchdog cannot enforce deadlines here (there is no worker to
        kill), so ``timeout`` only applies on the pool path.
        """
        if state.first_started is None:
            state.first_started = self._monotonic()
        retries = state.retries
        execute_cell(task, self.policy, state.key or task.name,
                     sleep=self._sleep, progress=self.progress, run=state)
        self.stats.retries += state.retries - retries
        if state.status == STATUS_OK:
            self._complete(task, state, state.result, results)
        else:
            self._dispose_failure(task, state, results)

    # ------------------------------------------------------------------
    # pool path: sliding window of watched worker processes
    # ------------------------------------------------------------------

    def _run_pool(self, tasks: Sequence[CellTask],
                  states: Dict[int, _CellState], pending: List[int],
                  results: List[Any]) -> None:
        """Dispatch to a window of worker processes with a watchdog.

        Each cell runs in its own process (at most ``jobs`` in flight),
        so the watchdog can kill exactly the hung worker; a worker that
        dies without an answer (SIGKILL, OOM, segfault) retries on its
        own budget, and a cell whose workers keep dying gets one final
        in-process fallback — recorded and warned, never silent.
        """
        ctx = multiprocessing.get_context()
        queue: deque = deque(pending)
        delayed: List[Tuple[float, int, int]] = []  # (ready_at, seq, index)
        seq = itertools.count()
        active: Dict[Any, _Active] = {}
        fallbacks: List[int] = []

        def requeue(index: int, ready_at: float) -> None:
            heapq.heappush(delayed, (ready_at, next(seq), index))

        try:
            while queue or delayed or active:
                now = self._monotonic()
                while delayed and delayed[0][0] <= now:
                    _, _, index = heapq.heappop(delayed)
                    queue.append(index)
                while queue and len(active) < self.jobs:
                    index = queue.popleft()
                    self._spawn(ctx, tasks[index], states[index], active)
                tick = self._next_tick(active, delayed)
                conns = [entry.conn for entry in active.values()]
                if conns:
                    ready = mp_connection.wait(conns, timeout=tick)
                else:
                    if tick:
                        self._sleep(tick)
                    ready = ()
                for conn in ready:
                    entry = active.pop(conn)
                    self._reap(tasks, entry, results, requeue, fallbacks)
                self._enforce_deadlines(tasks, active, results, requeue,
                                        fallbacks)
        except BaseException:
            self._drain_and_kill(tasks, active, results)
            raise
        for index in fallbacks:
            self._execute_inline(tasks[index], states[index], results)

    def _spawn(self, ctx: Any, task: CellTask, state: _CellState,
               active: Dict[Any, _Active]) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        obs_context = {
            # Computed once per parent (memoized) and shipped, so a
            # fresh worker never re-hashes the whole source tree just
            # to key its first cell.
            "code_fingerprint": code_fingerprint(),
            "trace_path": obs_trace.trace_path(),
        }
        process = ctx.Process(target=_child_main,
                              args=(child_conn, task, obs_context),
                              daemon=True)
        process.start()
        child_conn.close()
        started = self._monotonic()
        if state.first_started is None:
            state.first_started = started
        deadline = started + self.timeout if self.timeout else None
        active[parent_conn] = _Active(state, process, parent_conn, started,
                                      deadline)

    def _reap(self, tasks: Sequence[CellTask], entry: _Active,
              results: List[Any],
              requeue: Callable[[int, float], None],
              fallbacks: List[int]) -> None:
        """Collect one worker's outcome (message, or death without one)."""
        state = entry.state
        task = tasks[state.index]
        state.attempts += 1
        try:
            message = entry.conn.recv()
        except (EOFError, OSError):
            message = None
        entry.conn.close()
        entry.process.join()
        if message is None:
            exc = WorkerCrashError(task.name, entry.process.exitcode)
            self._after_pool_failure(task, state, Category.TRANSIENT, exc,
                                     results, requeue, fallbacks,
                                     crash=True)
        elif message.get("status") == "ok":
            self._accept(task, state, message, results)
        else:
            info: RemoteErrorInfo = message["info"]
            self._after_pool_failure(task, state, info.category(),
                                     info.rebuild(), results, requeue,
                                     fallbacks, crash=False)

    def _enforce_deadlines(self, tasks: Sequence[CellTask],
                           active: Dict[Any, _Active], results: List[Any],
                           requeue: Callable[[int, float], None],
                           fallbacks: List[int]) -> None:
        """Kill workers past their deadline; retry their cells."""
        if self.timeout is None:
            return
        now = self._monotonic()
        for conn, entry in list(active.items()):
            if entry.deadline is None or now < entry.deadline:
                continue
            if entry.conn.poll():
                # Finished just under the wire: harvest, don't kill.
                del active[conn]
                self._reap(tasks, entry, results, requeue, fallbacks)
                continue
            del active[conn]
            entry.process.kill()
            entry.process.join()
            entry.conn.close()
            state = entry.state
            state.attempts += 1
            state.timeouts += 1
            self.stats.timeouts += 1
            task = tasks[state.index]
            exc = CellTimeoutError(task.name, self.timeout, state.attempts)
            self._after_pool_failure(task, state, Category.TRANSIENT, exc,
                                     results, requeue, fallbacks,
                                     crash=False)

    def _after_pool_failure(self, task: CellTask, state: _CellState,
                            category: Category, exc: BaseException,
                            results: List[Any],
                            requeue: Callable[[int, float], None],
                            fallbacks: List[int], crash: bool) -> None:
        """Route a pool-side failure through the taxonomy."""
        delay = _book_retry(state, task.name, category, self.policy,
                            state.key or task.name, self.progress)
        if delay is not None:
            self.stats.retries += 1
            requeue(state.index, self._monotonic() + delay)
            return
        if crash:
            # Workers keep dying under this cell: degrade to in-process
            # execution so the real exception (if the cell, not the
            # environment, is at fault) can surface.  Loud, not silent.
            warnings.warn(
                f"cell {task.name!r}: worker died "
                f"{state.attempts} time(s); falling back to in-process "
                f"execution (recorded in the run manifest)",
                RuntimeWarning,
                stacklevel=2,
            )
            state.fallback = True
            self.stats.fallbacks += 1
            fallbacks.append(state.index)
            return
        state.fail(exc, category)
        self._dispose_failure(task, state, results)

    def _next_tick(self, active: Dict[Any, _Active],
                   delayed: List[Tuple[float, int, int]]) -> Optional[float]:
        """How long the event loop may block before something is due."""
        now = self._monotonic()
        candidates: List[float] = []
        for entry in active.values():
            if entry.deadline is not None:
                candidates.append(entry.deadline - now)
        if delayed:
            candidates.append(delayed[0][0] - now)
        if not candidates:
            return None
        return max(0.0, min(candidates)) + 0.005

    def _drain_and_kill(self, tasks: Sequence[CellTask],
                        active: Dict[Any, _Active],
                        results: List[Any]) -> None:
        """On interrupt: harvest finished workers, kill the rest.

        Completed cells that already sent their result are journaled
        (they are done work — losing them would betray ``--resume``);
        everything still running is killed so the process exits promptly.
        """
        for conn, entry in list(active.items()):
            try:
                if entry.conn.poll():
                    message = entry.conn.recv()
                    if (isinstance(message, dict)
                            and message.get("status") == "ok"):
                        entry.state.attempts += 1
                        self._accept(tasks[entry.state.index], entry.state,
                                     message, results)
            except Exception:  # noqa: BLE001 - best-effort during shutdown
                pass
            finally:
                if entry.process.is_alive():
                    entry.process.kill()
                entry.process.join()
                entry.conn.close()
                del active[conn]
        if self.journal is not None:
            self.journal.flush()

    # ------------------------------------------------------------------
    # outcome bookkeeping
    # ------------------------------------------------------------------

    def _accept(self, task: CellTask, state: _CellState,
                message: Dict[str, Any], results: List[Any]) -> None:
        """Complete a cell from a worker's ok message."""
        snap = message.get("metrics")
        if snap:
            state.metrics = snap
            state.sim_time_s = _sim_time_of(snap)
            # Fold the worker's process-local counters into the parent
            # registry so ``--metrics`` reports sweep totals.
            obs_metrics.REGISTRY.merge(snap)
        self._complete(task, state, message["result"], results)

    def _complete(self, task: CellTask, state: _CellState, result: Any,
                  results: List[Any]) -> None:
        results[state.index] = result
        if self.cache is not None or self.journal is not None:
            payload = task.pack(result) if task.pack else result
            if self.cache is not None:
                self.cache.put(state.key or task.cache_key(), payload)
            self._journal(task, state, STATUS_OK, payload)
        self.stats.executed += 1
        self.manifest.record(self._outcome(task, state))
        self._tick(task.name + (" [fallback]" if state.fallback else ""))

    def _dispose_failure(self, task: CellTask, state: _CellState,
                         results: List[Any]) -> None:
        """Terminal failure: quarantine, record, or raise."""
        if state.status == STATUS_QUARANTINED:
            self.stats.quarantined += 1
        else:
            self.stats.failed += 1
        self.manifest.record(self._outcome(task, state))
        self._journal(task, state, state.status)
        # Quarantine never sinks the sweep, even in failfast mode.
        if state.status == STATUS_FAILED and self.failfast:
            raise state.error
        results[state.index] = CellFailure(
            name=task.name, key=state.key or "",
            category=state.category.value,
            error_type=type(state.error).__name__, message=str(state.error),
            attempts=state.attempts,
        )
        self._tick(f"{task.name} [{state.status}]")

    def _outcome(self, task: CellTask, state: _CellState) -> CellOutcome:
        return state.outcome(task.name, state.key or "",
                             self._elapsed(state), fallback=state.fallback,
                             timeouts=state.timeouts)

    def _elapsed(self, state: _CellState) -> float:
        if state.first_started is None:
            return 0.0
        return self._monotonic() - state.first_started

    def _journal(self, task: CellTask, state: _CellState, status: str,
                 payload: Any = None) -> None:
        """Checkpoint one cell (a no-op without a journal)."""
        if self.journal is None:
            return
        try:
            self.journal.append(
                key=state.key or task.cache_key(), name=task.name,
                status=status, payload=payload, attempts=state.attempts,
                duration_s=self._elapsed(state), error=state.error_record(),
            )
        except TypeError:
            # A task without a pack codec returned something JSON cannot
            # hold; the run still works, it just cannot resume this cell.
            warnings.warn(
                f"cell {task.name!r}: result is not JSON-serializable; "
                f"not journaled (add pack/unpack codecs to enable resume)",
                RuntimeWarning,
                stacklevel=2,
            )

    def _tick(self, label: str) -> None:
        if self.progress is not None:
            self.progress(label)


def run_tasks(
    tasks: Sequence[CellTask],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    retries: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    *,
    timeout: Optional[float] = None,
    policy: Optional[RetryPolicy] = None,
    journal: Optional[RunJournal] = None,
    resume: bool = False,
    manifest: Optional[RunManifest] = None,
    failfast: bool = True,
) -> List[Any]:
    """One-shot convenience wrapper around :class:`TaskRunner`."""
    return TaskRunner(
        jobs=jobs, cache=cache, retries=retries, progress=progress,
        timeout=timeout, policy=policy, journal=journal, resume=resume,
        manifest=manifest, failfast=failfast,
    ).run(tasks)
