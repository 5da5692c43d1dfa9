"""Distributed chaos harness: the fleet under deliberate abuse.

The ISSUE 6 acceptance test, literally: run a campaign across worker
processes, SIGKILL one while it holds a lease, SIGSTOP another past the
heartbeat deadline (then SIGCONT it so it comes back as a zombie), and
assert exactly-once cell effects — every cell has exactly one commit
marker, the takeover happened (a fencing token moved past 1), the
zombie's late commit was fenced, and the merged CSV is byte-identical
to an undisturbed serial run.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.core.campaign import Campaign
from repro.core.dist.queue import WorkQueue
from repro.core.dist.store import SEP, layout

#: Two VCAs, one user count, two repeats: four cells, each slow enough
#: (~1 s wall) that signals reliably land mid-lease.
GRID = dict(vcas=("Zoom", "Webex"), user_counts=(2,), duration_s=4.0,
            repeats=2)


def _campaign() -> Campaign:
    return Campaign.grid(**GRID, base_seed=23)


@pytest.fixture(scope="module")
def golden_csv(tmp_path_factory) -> bytes:
    """The undisturbed serial run every distributed path must reproduce."""
    campaign = _campaign()
    campaign.run(jobs=1)
    path = tmp_path_factory.mktemp("golden") / "golden.csv"
    campaign.to_csv(path)
    return path.read_bytes()


def _worker_env() -> dict:
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _spawn_worker(store: Path, worker_id: str, **extra) -> subprocess.Popen:
    cmd = [sys.executable, "-m", "repro", "worker", "--store", str(store),
           "--id", worker_id, "--poll", "0.05",
           "--heartbeat-interval", "0.2", "--idle-exit", "30", "--quiet"]
    for flag, value in extra.items():
        cmd += [f"--{flag.replace('_', '-')}", str(value)]
    return subprocess.Popen(cmd, env=_worker_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)


def _active_owner_of(store, worker_id: str):
    """The active-lease path held by ``worker_id``, if any."""
    suffix = f"{SEP}{worker_id}.json"
    try:
        for path in store.active_dir.iterdir():
            if path.name.endswith(suffix):
                return path
    except OSError:
        pass
    return None


def _await_heartbeats(store, worker_ids, timeout_s: float = 30.0) -> None:
    """Wait until every worker in ``worker_ids`` has beaten once.

    A worker beats before it waits for a campaign, so once this returns
    all of them are polling when the cells are published.
    """
    deadline = time.monotonic() + timeout_s
    paths = [store.heartbeats_dir / f"{worker}.json" for worker in worker_ids]
    while not all(path.exists() for path in paths):
        assert time.monotonic() < deadline, (
            f"no first heartbeat from {worker_ids} within {timeout_s} s")
        time.sleep(0.02)


def _run_distributed(store: Path, tmp_path: Path,
                     worker_wait_s: float = 15.0) -> tuple:
    campaign = _campaign()
    campaign.run(store=store, worker_wait_s=worker_wait_s)
    csv_path = tmp_path / "dist.csv"
    campaign.to_csv(csv_path)
    return campaign, csv_path.read_bytes()


@pytest.mark.slow
class TestFleetChaos:
    def test_sigkill_and_sigstop_workers_exactly_once(self, golden_csv,
                                                      tmp_path):
        """3 workers; one SIGKILLed mid-lease, one frozen past the
        heartbeat deadline and resumed as a zombie.  The campaign must
        finish with exactly one commit per cell and a byte-identical
        CSV."""
        store_root = tmp_path / "store"
        store = layout(store_root)
        workers = {
            "ka": _spawn_worker(store_root, "ka"),   # the SIGKILL victim
            "zb": _spawn_worker(store_root, "zb"),   # the SIGSTOP zombie
            "w0": _spawn_worker(store_root, "w0"),   # the survivor
        }
        chaos_log: list = []

        def chaos() -> None:
            killed = stopped = False
            resumed_at = None
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if not stopped and _active_owner_of(store, "zb") is not None:
                    workers["zb"].send_signal(signal.SIGSTOP)
                    stopped = True
                    # Frozen well past the 3 x 0.2 s staleness deadline:
                    # survivors will declare zb dead and steal its lease.
                    resumed_at = time.monotonic() + 2.5
                    chaos_log.append("SIGSTOP zb")
                if not killed and _active_owner_of(store, "ka") is not None:
                    workers["ka"].kill()
                    killed = True
                    chaos_log.append("SIGKILL ka")
                if (stopped and resumed_at is not None
                        and time.monotonic() >= resumed_at):
                    workers["zb"].send_signal(signal.SIGCONT)
                    resumed_at = None
                    chaos_log.append("SIGCONT zb")
                if killed and stopped and resumed_at is None:
                    return
                time.sleep(0.02)

        agent = threading.Thread(target=chaos, daemon=True)
        agent.start()
        try:
            # Both victims must be polling when the leases appear, or the
            # survivor may run every cell before either has joined.
            _await_heartbeats(store, workers)
            campaign, csv_bytes = _run_distributed(store_root, tmp_path,
                                                   worker_wait_s=20.0)
            # Let the zombie come back, finish its cell, and be fenced
            # before we look at the evidence.
            for name in ("zb", "w0"):
                try:
                    workers[name].wait(timeout=30)
                except subprocess.TimeoutExpired:
                    pass
        finally:
            for proc in workers.values():
                try:
                    proc.send_signal(signal.SIGCONT)
                except OSError:
                    pass
                if proc.poll() is None:
                    proc.terminate()
        agent.join(timeout=10.0)
        outputs = {name: proc.communicate(timeout=30)[0]
                   for name, proc in workers.items()}

        assert "SIGKILL ka" in chaos_log, chaos_log
        assert "SIGCONT zb" in chaos_log, chaos_log
        # 1. Byte-identical CSV despite a killed and a frozen worker.
        assert csv_bytes == golden_csv, outputs
        # 2. Exactly one commit marker per cell, no duplicates.
        done_names = [p.name for p in store.done_dir.iterdir()]
        done_keys = [name.split(SEP)[0] for name in done_names]
        assert len(done_keys) == len(campaign.tasks())
        assert len(set(done_keys)) == len(done_keys)
        # 3. The SIGKILLed worker's lease was taken over: some cell
        #    committed at a fencing token above 1.
        queue = WorkQueue(store, worker="auditor")
        assert campaign.last_dist["takeovers"] >= 1, (
            campaign.last_dist, outputs)
        assert max(queue.done_tokens().values()) >= 2
        # 4. The zombie either finished after the steal and was fenced
        #    (outcome file without a matching commit marker), or it was
        #    interrupted before finishing — never double-committed.
        zombie_evidence = (len(queue.zombie_outcomes()) >= 1
                           or "fenced" in outputs["zb"])
        assert zombie_evidence, outputs["zb"]
        # 5. The merged journal is a resumable single-process checkpoint.
        merged = store.merged_journal
        assert merged.exists()
        from repro.core.journal import RunJournal
        entries = RunJournal(merged).load()
        completed = [e for e in entries.values()
                     if e.get("status") in ("ok", "cached")]
        assert len(completed) == len(campaign.tasks())

    def test_worker_sigterm_releases_lease_and_campaign_finishes(
            self, golden_csv, tmp_path):
        """Graceful SIGTERM mid-lease: the worker exits 130, its lease
        goes straight back to pending, and the coordinator's inline
        fallback finishes the campaign."""
        store_root = tmp_path / "store"
        store = layout(store_root)
        worker = _spawn_worker(store_root, "gt")

        def chaos() -> None:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if _active_owner_of(store, "gt") is not None:
                    worker.send_signal(signal.SIGTERM)
                    return
                time.sleep(0.02)

        agent = threading.Thread(target=chaos, daemon=True)
        agent.start()
        campaign, csv_bytes = _run_distributed(store_root, tmp_path,
                                               worker_wait_s=10.0)
        agent.join(timeout=10.0)
        output, _ = worker.communicate(timeout=30)
        assert csv_bytes == golden_csv, output
        if worker.returncode == 130:
            assert "released" in output or "lease released" in output
        else:
            # Lost the race: the worker finished everything first.
            assert worker.returncode == 0, output


class TestCoordinatorFallback:
    def test_zero_workers_falls_back_to_local_pool(self, golden_csv,
                                                   tmp_path):
        """A distributed campaign with no workers at all degrades to the
        PR 4 in-process pool and still matches the serial CSV."""
        campaign, csv_bytes = _run_distributed(tmp_path / "store", tmp_path,
                                               worker_wait_s=0.0)
        assert csv_bytes == golden_csv
        assert campaign.last_dist["inline_cells"] == len(campaign.tasks())
        assert campaign.last_run_stats.executed == len(campaign.tasks())

    def test_distributed_rerun_resumes_from_commit_markers(self, golden_csv,
                                                           tmp_path):
        """Re-running the same campaign against the same store replays
        every committed cell without re-execution."""
        store = tmp_path / "store"
        _run_distributed(store, tmp_path, worker_wait_s=0.0)
        campaign, csv_bytes = _run_distributed(store, tmp_path,
                                               worker_wait_s=0.0)
        assert csv_bytes == golden_csv
        assert campaign.last_run_stats.resumed == len(campaign.tasks())
        assert campaign.last_run_stats.executed == 0
        assert campaign.last_dist["resumed"] == len(campaign.tasks())


@pytest.mark.slow
class TestLateWorkerFleet:
    def test_worker_dies_mid_campaign_coordinator_finishes(self, golden_csv,
                                                           tmp_path):
        """A worker that exits after one cell leaves the rest to the
        coordinator's fallback; the records still match serial."""
        store = tmp_path / "store"
        worker = _spawn_worker(store, "mc", max_cells=1)
        campaign, csv_bytes = _run_distributed(store, tmp_path,
                                               worker_wait_s=10.0)
        output, _ = worker.communicate(timeout=60)
        assert worker.returncode == 0, output
        assert csv_bytes == golden_csv
        workers_seen = set(campaign.last_dist["workers"])
        # The short-lived worker committed its one cell...
        assert "1 committed" in output
        # ...and somebody (worker or coordinator) did the rest.
        assert len(campaign.records) == len(campaign.tasks())
        assert workers_seen  # at least one id in the outcome trail


# ---------------------------------------------------------------------------
# the fleet-scale fault gauntlet under the same abuse
# ---------------------------------------------------------------------------

def _gauntlet_env(tmp_path: Path) -> dict:
    env = _worker_env()
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    return env


def _gauntlet_cmd(csv_path: Path, journal: Path = None, jobs: int = 2,
                  resume: bool = False, no_cache: bool = True) -> list:
    """The acceptance invocation: a 200-session regional-outage gauntlet
    with admission control and load shedding active, sharded over two
    worker processes."""
    cmd = [sys.executable, "-m", "repro", "gauntlet",
           "--scenarios", "region-outage", "--fleet-sizes", "50", "200",
           "--jobs", str(jobs), "--csv", str(csv_path)]
    if journal is not None:
        cmd += ["--journal", str(journal)]
    if no_cache:
        cmd.append("--no-cache")
    if resume:
        cmd.append("--resume")
    return cmd


@pytest.fixture(scope="module")
def gauntlet_golden_csv(tmp_path_factory) -> bytes:
    """The undisturbed in-process serial sweep, same grid as the CLI."""
    from repro.experiments import gauntlet

    result = gauntlet.run(scenarios=["region-outage"],
                          fleet_sizes=[50, 200], seed=0)
    path = tmp_path_factory.mktemp("gauntlet_golden") / "golden.csv"
    result.to_csv(path)
    return path.read_bytes()


@pytest.mark.slow
class TestGauntletKill9:
    def test_kill9_then_resume_matches_serial(self, gauntlet_golden_csv,
                                              tmp_path):
        """SIGKILL the gauntlet CLI mid-sweep, ``--resume``, and the CSV
        must be byte-identical to the undisturbed serial run."""
        env = _gauntlet_env(tmp_path)
        journal = tmp_path / "gauntlet.jsonl"

        victim = subprocess.Popen(
            _gauntlet_cmd(tmp_path / "first.csv", journal, jobs=2),
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        # The journal is created inside the graceful-interrupt block, so
        # its appearance marks a run in flight; SIGKILL right there.
        deadline = time.monotonic() + 60.0
        while (time.monotonic() < deadline and victim.poll() is None
               and not journal.exists()):
            time.sleep(0.01)
        if victim.poll() is None:
            victim.kill()  # SIGKILL: no handlers, no flushing, no mercy
        victim.wait(timeout=30)

        done = subprocess.run(
            _gauntlet_cmd(tmp_path / "final.csv", journal, jobs=2,
                          resume=True),
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "final.csv").read_bytes() == gauntlet_golden_csv
        assert "worst cell:" in done.stdout

    def test_cached_replay_is_byte_identical(self, gauntlet_golden_csv,
                                             tmp_path):
        """A second run against a warm result cache replays every cell
        and writes the same bytes."""
        env = _gauntlet_env(tmp_path)
        cold = subprocess.run(
            _gauntlet_cmd(tmp_path / "cold.csv", no_cache=False),
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert cold.returncode == 0, cold.stderr
        warm = subprocess.run(
            _gauntlet_cmd(tmp_path / "warm.csv", no_cache=False),
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert warm.returncode == 0, warm.stderr
        assert (tmp_path / "cold.csv").read_bytes() == gauntlet_golden_csv
        assert (tmp_path / "warm.csv").read_bytes() == gauntlet_golden_csv
