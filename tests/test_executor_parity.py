"""Parity of the local runner and the fleet worker on failing cells.

The serial :class:`TaskRunner` and a distributed :class:`WorkerAgent`
run cells through the same error taxonomy: transient failures retried
within the budget, deterministic ones failed without a retry, poison
cells quarantined on the first failure.  Each case below runs one cell
both ways and asserts the two manifests agree on status, attempts,
retries, the number of backoff sleeps and the error category.  The
coordinator's zero-worker fallback must commit a poison cell exactly as
a worker does.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.cache import code_fingerprint
from repro.core.dist import Coordinator, TaskSpec, WorkerAgent, WorkQueue
from repro.core.dist.store import layout
from repro.core.errors import CellFailure, RetryPolicy
from repro.core.parallel import CellTask, TaskRunner

from tests.test_errors_retry import _bug, _flaky, _ok, _poison

RETRIES = 2


def _no_sleep(seconds: float) -> None:
    del seconds


def _cases(root: Path) -> dict:
    """name -> CellTask; flaky counters live under ``root``."""
    root.mkdir(parents=True, exist_ok=True)
    return {
        "ok": CellTask(name="ok", fn=_ok, kwargs={"value": 3}),
        "flaky-recovers": CellTask(
            name="flaky-recovers", fn=_flaky,
            kwargs={"counter": str(root / "recovers"),
                    "fail_times": RETRIES, "value": 5}),
        "flaky-exhausted": CellTask(
            name="flaky-exhausted", fn=_flaky,
            kwargs={"counter": str(root / "exhausted"),
                    "fail_times": RETRIES + 1, "value": 5}),
        "deterministic": CellTask(name="deterministic", fn=_bug,
                                  kwargs={"value": 7}),
        "poison": CellTask(name="poison", fn=_poison, kwargs={"value": 9}),
    }


def _shape(cell) -> tuple:
    category = (cell.error or {}).get("category")
    return (cell.status, cell.attempts, cell.retries, len(cell.backoff_s),
            category)


def _local(task: CellTask) -> tuple:
    runner = TaskRunner(jobs=1, failfast=False, sleep=_no_sleep,
                        policy=RetryPolicy(max_retries=RETRIES))
    runner.run([task])
    (cell,) = runner.manifest.cells
    return _shape(cell)


def _fleet(task: CellTask, store: Path) -> tuple:
    queue = WorkQueue(layout(store).create(), worker="publisher")
    queue.publish([TaskSpec(key=task.cache_key(), name=task.name,
                            task=task)],
                  f"parity-{task.name}", code_fingerprint())
    agent = WorkerAgent(store, "w0", retries=RETRIES, poll_s=0.01,
                        join_timeout_s=5.0, idle_exit_s=5.0,
                        sleep=_no_sleep)
    stats = agent.run()
    assert stats.committed == 1
    (cell,) = agent.manifest.cells
    assert cell.worker == "w0"
    return _shape(cell)


@pytest.mark.parametrize("case", ["ok", "flaky-recovers", "flaky-exhausted",
                                  "deterministic", "poison"])
def test_runner_and_worker_agree(case, tmp_path):
    local = _local(_cases(tmp_path / "local")[case])
    fleet = _fleet(_cases(tmp_path / "fleet")[case], tmp_path / "store")
    assert local == fleet
    expected = {
        "ok": ("ok", 1, 0, 0, None),
        "flaky-recovers": ("ok", RETRIES + 1, RETRIES, RETRIES, None),
        "flaky-exhausted": ("failed", RETRIES + 1, RETRIES, RETRIES,
                            "transient"),
        "deterministic": ("failed", 1, 0, 0, "deterministic"),
        "poison": ("quarantined", 1, 0, 0, "poison"),
    }[case]
    assert local == expected


def test_coordinator_fallback_quarantines_poison_like_a_worker(tmp_path):
    tasks = [CellTask(name="poison", fn=_poison, kwargs={"value": 9}),
             CellTask(name="ok", fn=_ok, kwargs={"value": 4})]
    coordinator = Coordinator(tmp_path / "store", worker_wait_s=0.0,
                              poll_s=0.01, sleep=_no_sleep)
    results = coordinator.run(tasks)
    assert isinstance(results[0], CellFailure)
    assert results[0].category == "poison"
    assert results[1] == 8
    cells = {cell.name: cell for cell in coordinator.manifest.cells}
    assert _shape(cells["poison"]) == ("quarantined", 1, 0, 0, "poison")
    assert cells["poison"].worker == coordinator.worker
    assert _shape(cells["ok"]) == ("ok", 1, 0, 0, None)
    assert coordinator.stats.quarantined == 1
    assert coordinator.stats.executed == 1
    assert coordinator.dist["inline_cells"] == 2
