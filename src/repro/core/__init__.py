"""Core public API: the testbed and the sweep engine.

This is the measurement methodology of the paper as a library: build the
Fig. 3 testbed, run repeated sessions as seeded cells, and collect the
observables — serially, across worker processes or a fleet of workers,
or replayed from the on-disk result cache.
"""

from repro.core.testbed import Testbed, default_two_user_testbed
from repro.core.campaign import Campaign, CampaignCell, CampaignRecord
from repro.core.cache import CacheStats, ResultCache, task_key
from repro.core.errors import (
    CampaignInterrupted,
    Category,
    CellError,
    CellFailure,
    CellTimeoutError,
    DeterministicError,
    PoisonCell,
    RetryPolicy,
    TransientError,
    WorkerCrashError,
    classify,
)
from repro.core.journal import (
    CellOutcome,
    RunJournal,
    RunManifest,
    run_fingerprint,
)
from repro.core.parallel import CellTask, RunStats, TaskRunner, run_tasks
from repro.core.dist import (
    Coordinator,
    QueueError,
    StoreLayout,
    WorkerAgent,
    WorkQueue,
)

__all__ = [
    "Testbed",
    "default_two_user_testbed",
    "Campaign",
    "CampaignCell",
    "CampaignRecord",
    "CacheStats",
    "ResultCache",
    "task_key",
    "CampaignInterrupted",
    "Category",
    "CellError",
    "CellFailure",
    "CellTimeoutError",
    "DeterministicError",
    "PoisonCell",
    "RetryPolicy",
    "TransientError",
    "WorkerCrashError",
    "classify",
    "CellOutcome",
    "RunJournal",
    "RunManifest",
    "run_fingerprint",
    "CellTask",
    "RunStats",
    "TaskRunner",
    "run_tasks",
    "Coordinator",
    "QueueError",
    "StoreLayout",
    "WorkerAgent",
    "WorkQueue",
]
