"""Resilience study: the four VCA profiles under the standard disturbance.

The paper measures the VCAs on a clean testbed; this study asks the
obvious next question — what happens when the network misbehaves mid-call?
Every profile faces the identical scripted gauntlet
(:func:`~repro.faults.schedule.standard_disturbance`: a link blackout, a
server outage, a loss burst, a bandwidth collapse, and a WiFi
degradation) with the resilience runtime enabled, and the study reports
how gracefully each one degrades and how fast it recovers:

- **time-to-recover** per fault and in aggregate (mean / max),
- **stall time** — seconds with no persona media at the observer,
- **ladder occupancy** — the fraction of the call spent on each rung of
  the graceful-degradation ladder,
- **MOS under faults** — the windowed QoE score, averaged,
- **failovers** — relay reconnects (P2P profiles skip the server outage
  by construction: there is no relay to lose).

Each call runs on a one-lane cohort (:func:`run_sessions`, shared with
the gauntlet's cohort engine), equal to the call on the scalar engine.
Two runs with the same seed produce identical studies.
"""

from __future__ import annotations

import base64
import dataclasses
import pickle
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.checks import positive
from repro.core.cache import ResultCache
from repro.core.journal import RunJournal, RunManifest
from repro.core.parallel import CellTask, run_tasks
from repro.core.testbed import default_two_user_testbed
from repro.faults.ladder import LadderLevel
from repro.faults.resilient import ResilienceConfig, SessionResilience
from repro.faults.schedule import (
    FaultSchedule,
    derive_seed,
    standard_disturbance,
)
from repro.vca.cohort import CohortRunner
from repro.vca.profiles import PROFILES
from repro.vca.qoe import QoeVector, frame_rate_factor, quality_factor
from repro.vca.session import SessionResult

from repro import calibration

#: Who gets disturbed and who watches them, in the default testbed.
VICTIM = "U2"
OBSERVER = "U1"


@dataclass(frozen=True)
class ResilienceRow:
    """One profile's outcome under the standard disturbance."""

    profile: str
    persona: str
    p2p: bool
    mos_mean: float
    total_stall_s: float
    mean_ttr_s: float
    max_ttr_s: float
    failovers: int
    occupancy: Dict[LadderLevel, float]
    recovered: bool

    @property
    def top_rung_fraction(self) -> float:
        """Fraction of the call spent at full fidelity."""
        return self.occupancy.get(LadderLevel.TEXTURED_MESH, 0.0)

    @property
    def audio_only_fraction(self) -> float:
        """Fraction of the call spent at the bottom rung."""
        return self.occupancy.get(LadderLevel.AUDIO_ONLY, 0.0)

    @classmethod
    def of(cls, result: SessionResult) -> "ResilienceRow":
        """The row of one finished session: :data:`OBSERVER` watching
        :data:`VICTIM`, who took the faults."""
        resilience = result.resilience
        report = resilience.report(OBSERVER, VICTIM)
        return cls(
            profile=result.profile.name,
            persona=result.persona_kind.value,
            p2p=result.p2p,
            mos_mean=report.mos_mean,
            total_stall_s=report.total_stall_s,
            mean_ttr_s=report.mean_ttr_s,
            max_ttr_s=report.max_ttr_s,
            failovers=resilience.reconnects,
            occupancy=resilience.ladders[VICTIM].occupancy_fractions(
                result.duration_s),
            recovered=report.all_recovered,
        )

    def qoe_vector(self, duration_s: float) -> QoeVector:
        """The row's observables on the multi-dimensional QoE axes.

        A method (not a field), so the row's ``asdict`` round trip and
        the CSV column set stay exactly as they were.  Mapping:

        - ``presence`` — fraction of the call the victim's persona was
          actually there (1 − stall fraction);
        - ``interactivity`` — the windowed MOS (1–5 scale) rescaled to
          [0, 1], the study's conversational-quality observable;
        - ``fidelity`` — :func:`~repro.vca.qoe.quality_factor` of the
          occupancy-weighted ladder rung quality;
        - ``comfort`` — :func:`~repro.vca.qoe.frame_rate_factor` of the
          frame rate implied by stalls (a stalled stream judders; the
          comfort curve puts its knees at 60 / 90 FPS).
        """
        from repro.faults.ladder import LEVEL_QUALITY

        positive(duration_s, "duration_s")
        stall_fraction = min(1.0, max(0.0,
                                      self.total_stall_s / duration_s))
        presence = 1.0 - stall_fraction
        interactivity = min(1.0, max(0.0, (self.mos_mean - 1.0) / 4.0))
        rung_quality = sum(
            LEVEL_QUALITY[level] * fraction
            for level, fraction in self.occupancy.items()
        )
        fidelity = quality_factor(min(1.0, max(0.0, rung_quality)))
        comfort = frame_rate_factor(
            float(calibration.TARGET_FPS) * presence)
        return QoeVector(interactivity=interactivity, presence=presence,
                         fidelity=fidelity, comfort=comfort)


@dataclass
class ResilienceStudyResult:
    """The study across profiles, plus the raw per-session detail."""

    duration_s: float
    rows: List[ResilienceRow]
    details: Dict[str, SessionResilience]

    def row(self, profile: str) -> ResilienceRow:
        """The row of one profile."""
        return next(r for r in self.rows if r.profile == profile)

    def all_recovered(self) -> bool:
        """Every profile's media recovered from every fault."""
        return all(r.recovered for r in self.rows)

    def format_table(self) -> str:
        """Printable study."""
        lines = [
            "profile     persona   p2p    MOS  stall_s  mean_ttr  max_ttr"
            "  failover  top%  audio%  recovered"
        ]
        for r in self.rows:
            lines.append(
                f"{r.profile:10s}  {r.persona:8s}  {str(r.p2p):5s}"
                f"  {r.mos_mean:4.2f}  {r.total_stall_s:7.2f}"
                f"  {r.mean_ttr_s:8.2f}  {r.max_ttr_s:7.2f}"
                f"  {r.failovers:8d}  {r.top_rung_fraction:4.0%}"
                f"  {r.audio_only_fraction:6.0%}  {str(r.recovered)}"
            )
        return "\n".join(lines)


def lane_seed(seed: int, lane: int) -> int:
    """Per-lane session seed: lane 0 keeps ``seed`` verbatim (scalar
    anchoring), lane ``i > 0`` derives an independent stream."""
    return seed if lane == 0 else derive_seed(seed, "lane", lane)


def run_sessions(
    profile_name: str,
    schedules: Sequence[FaultSchedule],
    duration_s: float,
    seed: int,
) -> List[SessionResult]:
    """One resilient two-user session of ``profile_name`` per schedule.

    Each runs on its own lane of one cohort, seeded ``lane_seed(seed,
    i)``; lanes share no state, so each result equals its session run
    alone, and lane 0 is the scalar session of ``seed``.

    Raises:
        KeyError: For an unknown profile name.
    """
    profile = PROFILES[profile_name]
    runner = CohortRunner()
    for lane, schedule in enumerate(schedules):
        testbed = default_two_user_testbed()
        runner.add(lambda sim: testbed.session(
            profile, seed=lane_seed(seed, lane), faults=schedule,
            resilience=ResilienceConfig(), sim=sim))
    return runner.run(duration_s)


def run_profile(
    profile_name: str,
    duration_s: float = 30.0,
    seed: int = 0,
) -> Tuple[ResilienceRow, SessionResilience]:
    """Run one profile through the standard disturbance (a one-lane cohort).

    Raises:
        KeyError: For an unknown profile name.
    """
    (result,) = run_sessions(
        profile_name, [standard_disturbance(duration_s, victim=VICTIM)],
        duration_s, seed)
    return ResilienceRow.of(result), result.resilience


def _pack_outcome(
    outcome: Tuple[ResilienceRow, SessionResilience]
) -> Dict[str, object]:
    """(row, detail) -> cacheable JSON payload.

    The row is flattened to primitives (ladder occupancy keyed by rung
    name); the session detail — a deep object graph — rides along as a
    base64 pickle so a cache replay restores the full study, reconnect
    events included.
    """
    row, detail = outcome
    row_dict = dataclasses.asdict(row)
    row_dict["occupancy"] = {
        level.name: fraction for level, fraction in row.occupancy.items()
    }
    return {
        "row": row_dict,
        "detail_b64": base64.b64encode(pickle.dumps(detail)).decode("ascii"),
    }


def _unpack_outcome(
    payload: Dict[str, object]
) -> Tuple[ResilienceRow, SessionResilience]:
    """Exact round-trip of :func:`_pack_outcome`."""
    row_dict = dict(payload["row"])
    row_dict["occupancy"] = {
        LadderLevel[name]: fraction
        for name, fraction in row_dict["occupancy"].items()
    }
    detail = pickle.loads(base64.b64decode(payload["detail_b64"]))
    return ResilienceRow(**row_dict), detail


def run(
    profiles: Sequence[str] = ("FaceTime", "Zoom", "Webex", "Teams"),
    duration_s: float = 30.0,
    seed: int = 0,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
    journal: Optional[RunJournal] = None,
    resume: bool = False,
    manifest: Optional[RunManifest] = None,
) -> ResilienceStudyResult:
    """The full study: every profile, same seed, same gauntlet.

    Profiles are independent cells, so the gauntlet shards over ``jobs``
    worker processes and replays from ``cache`` — the study is identical
    either way because :func:`run_profile` is a pure function of its
    arguments.  The crash-safety knobs (``timeout`` watchdog, transient
    ``retries``, checkpoint ``journal``/``resume``, shared ``manifest``)
    pass straight through to the runner.
    """
    tasks = [
        CellTask(
            name=f"resilience/{name}",
            fn=run_profile,
            kwargs={"profile_name": name, "duration_s": duration_s,
                    "seed": seed},
            pack=_pack_outcome,
            unpack=_unpack_outcome,
        )
        for name in profiles
    ]
    rows: List[ResilienceRow] = []
    details: Dict[str, SessionResilience] = {}
    for name, (row, detail) in zip(profiles, run_tasks(
            tasks, jobs=jobs, cache=cache, retries=retries, timeout=timeout,
            journal=journal, resume=resume, manifest=manifest)):
        rows.append(row)
        details[name] = detail
    return ResilienceStudyResult(
        duration_s=duration_s, rows=rows, details=details
    )
