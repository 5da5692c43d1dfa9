"""Chaos-test harness: the crash-safety layer under deliberate abuse.

Every test here injects a real failure — SIGKILLed workers, hung cells,
poisoned tracebacks, journals truncated mid-append, a ``kill -9`` of the
whole CLI process — and asserts the acceptance contract from the issue:
the campaign still completes (directly or via ``--resume``), the final
CSV is **byte-identical** to an undisturbed serial cold run, and the run
manifest records every retry, fallback, and quarantined cell.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.core.campaign import Campaign
from repro.core.errors import CellFailure
from repro.core.journal import STATUS_RESUMED, RunJournal
from repro.core.parallel import CellTask, TaskRunner

#: Two VCAs, one user count: four fast cells with distinct records.
#: Three seconds is the shortest session with a throughput window (and
#: the shortest ``campaign --duration``).
GRID = dict(vcas=("Zoom", "Webex"), user_counts=(2,), duration_s=3.0,
            repeats=2)


def _campaign() -> Campaign:
    return Campaign.grid(**GRID, base_seed=11)


@pytest.fixture(scope="module")
def golden_csv(tmp_path_factory) -> bytes:
    """The undisturbed serial cold run every chaos path must reproduce."""
    campaign = _campaign()
    campaign.run(jobs=1)
    assert all(r.uplink_mbps_mean > 0 and r.downlink_mbps_mean > 0
               for r in campaign.records)
    path = tmp_path_factory.mktemp("golden") / "golden.csv"
    campaign.to_csv(path)
    return path.read_bytes()


# ---------------------------------------------------------------------------
# cell functions (module-level: they cross process boundaries)
# ---------------------------------------------------------------------------

def _hang_once(sentinel: str, value: int) -> int:
    """Sleeps far past any watchdog deadline on the first call only."""
    path = Path(sentinel)
    if not path.exists():
        path.write_text("hung")
        time.sleep(30.0)
    return value * 2


def _sigkill_in_worker(parent_pid: int, value: int) -> int:
    """SIGKILLs itself whenever it runs in a worker process."""
    if os.getpid() != parent_pid:
        os.kill(os.getpid(), signal.SIGKILL)
    return value * 2


def _sigkill_once(sentinel: str, value: int) -> int:
    """SIGKILLs its worker on the first call, succeeds on retry."""
    path = Path(sentinel)
    if not path.exists():
        path.write_text("killed")
        os.kill(os.getpid(), signal.SIGKILL)
    return value * 2


def _hang_forever(value: int) -> int:
    time.sleep(30.0)
    return value


def _traceback_bomb(value: int) -> int:
    raise RuntimeError(f"injected traceback for cell {value}")


def _double(value: int) -> int:
    return value * 2


# ---------------------------------------------------------------------------
# watchdog: hung workers are killed, not waited on
# ---------------------------------------------------------------------------

class TestWatchdog:
    def test_hung_cell_killed_and_retried(self, tmp_path):
        """A cell that hangs once is killed at its deadline and retried."""
        runner = TaskRunner(jobs=2, retries=2, timeout=1.0)
        tasks = [
            CellTask(name="hang-once", fn=_hang_once,
                     kwargs={"sentinel": str(tmp_path / "hung"),
                             "value": 21}),
            CellTask(name="fine", fn=_double, kwargs={"value": 5}),
        ]
        started = time.monotonic()
        assert runner.run(tasks) == [42, 10]
        # The watchdog fired (instead of sleeping out the 30 s hang).
        assert time.monotonic() - started < 20.0
        assert runner.stats.timeouts >= 1
        assert runner.stats.retries >= 1
        hung = [c for c in runner.manifest.cells if c.name == "hang-once"]
        assert hung[0].timeouts >= 1

    def test_permanent_hang_fails_with_timeout_error(self, tmp_path):
        """A cell that always hangs exhausts its budget as a transient."""
        runner = TaskRunner(jobs=2, retries=0, timeout=0.5, failfast=False)
        results = runner.run([
            CellTask(name="hang", fn=_hang_forever, kwargs={"value": 1}),
            CellTask(name="fine", fn=_double, kwargs={"value": 4}),
        ])
        assert isinstance(results[0], CellFailure)
        assert results[0].error_type == "CellTimeoutError"
        assert results[0].category == "transient"
        assert results[1] == 8
        assert runner.stats.timeouts == 1

    def test_armed_idle_watchdog_records_no_timeouts(self):
        """A deadline nothing comes near kills nothing and retries nothing."""
        runner = TaskRunner(jobs=2, timeout=300.0)
        tasks = [CellTask(name=f"fine-{i}", fn=_double, kwargs={"value": i})
                 for i in range(4)]
        assert runner.run(tasks) == [0, 2, 4, 6]
        assert runner.stats.timeouts == 0
        assert runner.stats.retries == 0
        assert runner.stats.executed == len(tasks)


# ---------------------------------------------------------------------------
# SIGKILL: dead workers retry; persistent death falls back loudly
# ---------------------------------------------------------------------------

class TestSigkill:
    def test_sigkilled_worker_is_retried(self, tmp_path):
        runner = TaskRunner(jobs=2, retries=2)
        tasks = [
            CellTask(name="victim", fn=_sigkill_once,
                     kwargs={"sentinel": str(tmp_path / "kill"),
                             "value": 21}),
            CellTask(name="fine", fn=_double, kwargs={"value": 3}),
        ]
        assert runner.run(tasks) == [42, 6]
        assert runner.stats.retries >= 1

    def test_persistent_sigkill_falls_back_inline_and_is_recorded(self):
        """Satellite (c): the inline fallback is warned about and lands
        in the manifest — never silent."""
        runner = TaskRunner(jobs=2, retries=1)
        tasks = [CellTask(name="always-dies", fn=_sigkill_in_worker,
                          kwargs={"parent_pid": os.getpid(), "value": 21})]
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert runner.run(tasks) == [42]
        assert runner.stats.fallbacks == 1
        fallbacks = runner.manifest.fallbacks()
        assert [c.name for c in fallbacks] == ["always-dies"]
        assert fallbacks[0].fallback is True
        assert fallbacks[0].status == "ok"


# ---------------------------------------------------------------------------
# traceback injection
# ---------------------------------------------------------------------------

class TestTracebackInjection:
    def test_injected_traceback_fails_fast_across_pool(self):
        runner = TaskRunner(jobs=2, retries=3)
        with pytest.raises(RuntimeError, match="injected traceback"):
            runner.run([CellTask(name="bomb", fn=_traceback_bomb,
                                 kwargs={"value": 9})])
        assert runner.stats.retries == 0  # deterministic: no retry burned

    def test_injected_traceback_recorded_in_continue_mode(self):
        runner = TaskRunner(jobs=2, failfast=False)
        results = runner.run([
            CellTask(name="bomb", fn=_traceback_bomb, kwargs={"value": 9}),
            CellTask(name="fine", fn=_double, kwargs={"value": 9}),
        ])
        assert isinstance(results[0], CellFailure)
        assert results[0].error_type == "RuntimeError"
        assert "injected traceback" in results[0].message
        assert results[1] == 18
        assert runner.manifest.failed()[0].name == "bomb"


# ---------------------------------------------------------------------------
# journal chaos: resume must be byte-identical through every mutilation
# ---------------------------------------------------------------------------

def _run_with_journal(journal: RunJournal, resume: bool,
                      csv_path: Path) -> Campaign:
    campaign = _campaign()
    campaign.run(jobs=2, journal=journal, resume=resume)
    campaign.to_csv(csv_path)
    return campaign


class TestJournalChaos:
    def test_resume_after_partial_journal(self, golden_csv, tmp_path):
        """Crash after some cells: resume replays them, runs the rest."""
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            _run_with_journal(journal, False, tmp_path / "full.csv")
        # Simulate dying after the first two cells: keep header + 2 entries.
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:3]))
        with RunJournal(path) as journal:
            campaign = _run_with_journal(journal, True,
                                         tmp_path / "resumed.csv")
        assert (tmp_path / "resumed.csv").read_bytes() == golden_csv
        stats = campaign.last_run_stats
        assert stats.resumed == 2
        assert stats.executed == len(campaign.tasks()) - 2
        resumed = campaign.last_manifest.by_status(STATUS_RESUMED)
        assert len(resumed) == 2

    def test_torn_tail_is_skipped_and_reexecuted(self, golden_csv,
                                                 tmp_path):
        """kill -9 mid-append tears the last line; it costs one cell."""
        path = tmp_path / "torn.jsonl"
        with RunJournal(path) as journal:
            _run_with_journal(journal, False, tmp_path / "full.csv")
        blob = path.read_bytes()
        path.write_bytes(blob[:-40])  # rip the tail mid-JSON
        with RunJournal(path) as journal:
            campaign = _run_with_journal(journal, True,
                                         tmp_path / "resumed.csv")
            assert journal.torn_lines >= 1
        assert (tmp_path / "resumed.csv").read_bytes() == golden_csv
        assert campaign.last_run_stats.executed >= 1  # the torn cell reran

    def test_resume_with_missing_journal_runs_everything(self, golden_csv,
                                                         tmp_path):
        with RunJournal(tmp_path / "never-written.jsonl") as journal:
            campaign = _run_with_journal(journal, True,
                                         tmp_path / "out.csv")
        assert (tmp_path / "out.csv").read_bytes() == golden_csv
        assert campaign.last_run_stats.resumed == 0
        assert campaign.last_run_stats.executed == len(campaign.tasks())

    def test_undisturbed_resume_replays_all_cells(self, golden_csv,
                                                  tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            _run_with_journal(journal, False, tmp_path / "first.csv")
        with RunJournal(path) as journal:
            campaign = _run_with_journal(journal, True,
                                         tmp_path / "second.csv")
        assert (tmp_path / "second.csv").read_bytes() == golden_csv
        stats = campaign.last_run_stats
        assert stats.resumed == len(campaign.tasks())
        assert stats.executed == 0


# ---------------------------------------------------------------------------
# end-to-end: kill -9 the CLI itself, then --resume
# ---------------------------------------------------------------------------

def _cli_env(tmp_path: Path) -> dict:
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    return env


def _cli_cmd(csv_path: Path, journal: Path, jobs: int,
             resume: bool = False) -> list:
    cmd = [sys.executable, "-m", "repro", "campaign",
           "--vcas", "Zoom", "Webex", "--users", "2",
           "--duration", "3", "--repeats", "2", "--seed", "11",
           "--jobs", str(jobs), "--no-cache",
           "--journal", str(journal), "--csv", str(csv_path)]
    if resume:
        cmd.append("--resume")
    return cmd


@pytest.mark.slow
class TestEndToEndKill9:
    def test_kill9_then_resume_matches_serial(self, golden_csv, tmp_path):
        """The acceptance test, literally: SIGKILL the campaign process
        mid-run, ``--resume``, and the CSV must match the serial run."""
        env = _cli_env(tmp_path)
        journal = tmp_path / "run.jsonl"

        victim = subprocess.Popen(
            _cli_cmd(tmp_path / "first.csv", journal, jobs=2),
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        time.sleep(1.0)  # let it start (and maybe finish) some cells
        if victim.poll() is None:
            victim.kill()  # SIGKILL: no handlers, no flushing, no mercy
        victim.wait(timeout=30)

        done = subprocess.run(
            _cli_cmd(tmp_path / "final.csv", journal, jobs=2, resume=True),
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "final.csv").read_bytes() == golden_csv

    def test_sigterm_prints_resume_hint(self, tmp_path):
        """Satellite (b): graceful SIGTERM exits 130 with a resume hint."""
        env = _cli_env(tmp_path)
        journal = tmp_path / "run.jsonl"
        victim = subprocess.Popen(
            _cli_cmd(tmp_path / "first.csv", journal, jobs=2),
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True,
        )
        # The journal file is created inside the graceful-interrupt block,
        # so its existence proves the SIGTERM handler is installed.
        deadline = time.monotonic() + 60
        while (time.monotonic() < deadline and victim.poll() is None
               and not journal.exists()):
            time.sleep(0.02)
        if victim.poll() is None:
            victim.send_signal(signal.SIGTERM)
        _, stderr = victim.communicate(timeout=60)
        if victim.returncode == 130:
            assert "resume with the same command plus: --resume" in stderr
        else:
            # Lost the race: the campaign finished before (or while) the
            # signal landed.  The resume contract below still applies.
            assert victim.returncode in (0, -signal.SIGTERM)
        # Either way the journal lets a resume finish cleanly.
        done = subprocess.run(
            _cli_cmd(tmp_path / "final.csv", journal, jobs=2, resume=True),
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
