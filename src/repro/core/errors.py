"""Error taxonomy and retry policy for crash-safe sweep execution.

A 10k-cell campaign meets three very different kinds of failure, and
treating them alike either wastes hours or throws a whole run away:

- **transient** — the worker died (SIGKILL, OOM), the cell hung past its
  deadline, or the cell itself raised :class:`TransientError`.  Worth
  retrying, with exponential backoff so a struggling machine gets air.
- **deterministic** — the cell raised an ordinary exception.  Retrying a
  pure function of its arguments reproduces the same traceback, so these
  fail fast: no retry, surfaced immediately (or recorded, in
  record-and-continue mode).
- **poison** — the cell *declared itself unrunnable* by raising
  :class:`PoisonCell` (bad config, unsatisfiable grid point).  Quarantined
  on first failure: never retried, never fatal, always listed in the run
  manifest so the operator can audit what was skipped.

:func:`classify` maps any raised exception to one of these categories;
:func:`classify_names` does the same from an exception's MRO class names,
which is how errors that crossed a process boundary (where the original
object may not unpickle) are categorized.
"""

from __future__ import annotations

import enum
import hashlib
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional

from repro.checks import at_least, fraction, non_negative


class CellError(Exception):
    """Base of the taxonomy; cells may raise subclasses to self-classify."""


class TransientError(CellError):
    """A failure expected to clear on retry (flaky I/O, resource blips)."""


class DeterministicError(CellError):
    """A failure that will reproduce on retry; fail fast, never retry."""


class PoisonCell(CellError):
    """The cell declares its own configuration unrunnable.

    Quarantined on first failure: the sweep continues, the manifest
    records the reason, and the cell is never retried within the run.
    """


class CellTimeoutError(TransientError):
    """The watchdog killed a cell that ran past its deadline."""

    def __init__(self, name: str, timeout_s: float, attempts: int) -> None:
        super().__init__(
            f"cell {name!r} exceeded its {timeout_s:.1f} s deadline "
            f"(attempt {attempts})"
        )
        self.cell_name = name
        self.timeout_s = timeout_s
        self.attempts = attempts


class WorkerCrashError(TransientError):
    """A worker process died (SIGKILL, segfault, OOM) without an answer."""

    def __init__(self, name: str, exitcode: Optional[int]) -> None:
        super().__init__(
            f"worker running cell {name!r} died with exitcode {exitcode}"
        )
        self.cell_name = name
        self.exitcode = exitcode


class CampaignInterrupted(KeyboardInterrupt):
    """SIGINT/SIGTERM during a sweep, after in-flight workers drained.

    Subclasses ``KeyboardInterrupt`` so code that already handles Ctrl-C
    keeps working; the CLI catches it to print a ``--resume`` hint
    instead of a raw traceback.
    """

    def __init__(self, reason: str = "interrupted") -> None:
        super().__init__(reason)
        self.reason = reason


class Category(enum.Enum):
    """What the retry policy should do with a failure."""

    TRANSIENT = "transient"
    DETERMINISTIC = "deterministic"
    POISON = "poison"


#: Exception class *names* treated as transient when an error arrives
#: from another process as a bag of MRO names rather than an object.
_TRANSIENT_NAMES = frozenset({
    "TransientError",
    "CellTimeoutError",
    "WorkerCrashError",
    "BrokenProcessPool",
    "ConnectionError",
    "TimeoutError",
})


def classify(exc: BaseException) -> Category:
    """The taxonomy category of a live exception object."""
    if isinstance(exc, PoisonCell):
        return Category.POISON
    if isinstance(exc, (TransientError, BrokenProcessPool,
                        ConnectionError, TimeoutError)):
        return Category.TRANSIENT
    return Category.DETERMINISTIC


def classify_names(mro_names: Iterable[str]) -> Category:
    """The category from an exception's MRO class names (cross-process)."""
    names = set(mro_names)
    if "PoisonCell" in names:
        return Category.POISON
    if names & _TRANSIENT_NAMES:
        return Category.TRANSIENT
    return Category.DETERMINISTIC


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff for transient failures.

    ``delay_for(1)`` is the wait before the first retry; each further
    retry multiplies it by ``backoff_factor``, capped at
    ``backoff_max_s``.  Deterministic and poison failures never consult
    the policy.

    ``jitter`` spreads each delay by up to that fraction either way,
    derived from sha256 of ``(seed, salt, retry)`` — so a fleet of
    workers that all hit the same transient failure (a shared store
    blip, say) does not retry in lockstep, while the schedule is still a
    pure function of its inputs: same seed, same salt, same delays,
    bit-identical runs.  ``jitter=0`` (the default) reproduces the
    un-jittered schedule exactly.
    """

    max_retries: int = 1
    backoff_base_s: float = 0.25
    backoff_factor: float = 2.0
    backoff_max_s: float = 30.0
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        at_least(self.max_retries, 0, "max_retries")
        non_negative(self.backoff_base_s, "backoff_base_s")
        non_negative(self.backoff_max_s, "backoff_max_s")
        at_least(self.backoff_factor, 1.0, "backoff_factor")
        fraction(self.jitter, "jitter")

    def delay_for(self, retry: int, salt: str = "") -> float:
        """Seconds to wait before retry number ``retry`` (1-based).

        ``salt`` decorrelates otherwise-identical schedules: the sweep
        runner salts with the cell key, distributed workers add their
        worker id, so no two retry streams share a jitter sequence.
        """
        if retry < 1:
            return 0.0
        delay = self.backoff_base_s * (self.backoff_factor ** (retry - 1))
        if self.jitter:
            digest = hashlib.sha256(
                f"{self.seed}:{salt}:{retry}".encode()
            ).digest()
            unit = int.from_bytes(digest[:8], "big") / 2.0 ** 64  # [0, 1)
            delay *= 1.0 + self.jitter * (2.0 * unit - 1.0)
        return min(delay, self.backoff_max_s)


@dataclass(frozen=True)
class CellFailure:
    """The result slot of a cell that did not produce a value.

    Returned in a runner's results list (instead of raising) for
    quarantined poison cells always, and for failed cells when the
    runner is in record-and-continue mode.  Consumers filter these with
    ``isinstance(r, CellFailure)``.
    """

    name: str
    key: str
    category: str
    error_type: str
    message: str
    attempts: int
    traceback: str = ""

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form for the journal and the run manifest."""
        return {
            "name": self.name,
            "key": self.key,
            "category": self.category,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
        }


@dataclass
class RemoteErrorInfo:
    """What a worker reports about an exception it could not return.

    Carries enough to classify (MRO names), to report (type, message,
    formatted traceback), and — when the exception pickled cleanly — the
    original object for exact re-raising.
    """

    error_type: str
    message: str
    mro_names: list = field(default_factory=list)
    traceback: str = ""
    pickled: Optional[bytes] = None

    def category(self) -> Category:
        return classify_names(self.mro_names)

    def rebuild(self) -> BaseException:
        """The original exception when possible, else a faithful stand-in."""
        if self.pickled is not None:
            import pickle

            try:
                exc = pickle.loads(self.pickled)
                if isinstance(exc, BaseException):
                    return exc
            except Exception:  # noqa: BLE001 - fall through to stand-in
                pass
        return RuntimeError(
            f"{self.error_type}: {self.message}\n"
            f"(remote traceback)\n{self.traceback}"
        )
