"""Automated measurement campaigns.

Sec. 5 of the paper: "We are currently building open-source tools for
Vision Pro to facilitate automated and large-scale crowd-sourced
measurement experiments in the wild."  On the simulated testbed that tool
already exists: a :class:`Campaign` sweeps a configuration grid (VCA x
device mix x user count x repeats), runs every cell unattended, and
collects one flat record per session — exportable to CSV for whatever
analysis stack the user prefers.

Cells are independent and seeded, so a campaign shards across worker
processes (``run(jobs=N)``) and replays from the content-addressed result
cache (:mod:`repro.core.cache`) without changing a byte of the export:
serial, parallel and cached runs are equivalent by construction, and the
equivalence test suite holds them to it.

With ``run(store=...)`` the same grid goes **distributed**: the campaign
is published into a shared store (:mod:`repro.core.dist`) and executed
by however many ``repro worker`` processes — on this host or others —
are pointed at it, with lease-based work stealing, heartbeat failure
detection and exactly-once commits.  The records are still identical to
a serial run; the chaos suite compares the CSVs byte for byte.
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

from repro import calibration
from repro.analysis.protocol import classify_capture
from repro.analysis.throughput import throughput_windows_mbps
from repro.checks import at_least, positive
from repro.core.cache import ResultCache, default_cache_root
from repro.core.dist.coordinator import Coordinator
from repro.core.errors import CellFailure
from repro.core.journal import RunJournal, RunManifest, run_fingerprint
from repro.core.parallel import CellTask, RunStats, TaskRunner
from repro.core.testbed import multi_user_testbed
from repro.devices.models import Device, VisionPro
from repro.netsim.capture import Direction
from repro.obs import trace as obs_trace
from repro.vca.profiles import PROFILES, PersonaKind

import numpy as np


@dataclass(frozen=True)
class CampaignCell:
    """One configuration to measure."""

    vca: str
    n_users: int
    device_factory: Callable[[], Device] = VisionPro
    duration_s: float = 15.0
    repeats: int = 3

    def __post_init__(self) -> None:
        if self.vca not in PROFILES:
            raise ValueError(f"unknown VCA {self.vca!r}")
        at_least(self.n_users, 2, "n_users")
        positive(self.duration_s, "duration_s")
        at_least(self.repeats, 1, "repeats")
        if not callable(self.device_factory):
            raise ValueError("device_factory must be callable")
        probe = self.device_factory()
        if not isinstance(probe, Device):
            raise ValueError(
                f"device_factory must return a Device, got "
                f"{type(probe).__name__}"
            )


@dataclass(frozen=True)
class CampaignRecord:
    """One measured session, flattened for tabular export."""

    vca: str
    n_users: int
    device: str
    repeat: int
    seed: int
    persona_kind: str
    protocol: str
    p2p: bool
    server_label: str
    uplink_mbps_mean: float
    downlink_mbps_mean: float
    persona_availability: float

    FIELDS = (
        "vca", "n_users", "device", "repeat", "seed", "persona_kind",
        "protocol", "p2p", "server_label", "uplink_mbps_mean",
        "downlink_mbps_mean", "persona_availability",
    )

    def as_row(self) -> List[str]:
        """CSV row in :attr:`FIELDS` order."""
        return [str(getattr(self, name)) for name in self.FIELDS]


def run_cell(cell: CampaignCell, repeat: int, seed: int) -> CampaignRecord:
    """Measure one cell repeat — the unit of campaign work.

    A pure function of its arguments (module-level so it crosses process
    boundaries), which is what lets :class:`Campaign` shard repeats over
    a process pool and cache their records.
    """
    testbed = multi_user_testbed(
        cell.n_users, device_factory=cell.device_factory
    )
    session = testbed.session(PROFILES[cell.vca], seed=seed,
                              captures=("U1",))
    result = session.run(cell.duration_s)
    capture = result.capture_of("U1")
    up = throughput_windows_mbps(capture, Direction.UPLINK)
    down = throughput_windows_mbps(capture, Direction.DOWNLINK)
    availability = 1.0
    if result.persona_kind is PersonaKind.SPATIAL:
        receiver = result.receiver_of("U2")
        stats = receiver.stats.get(result.addresses["U1"])
        availability = stats.availability() if stats else 0.0
    protocol_report = classify_capture(capture)
    device = cell.device_factory().device_class.value
    return CampaignRecord(
        vca=cell.vca,
        n_users=cell.n_users,
        device=device,
        repeat=repeat,
        seed=seed,
        persona_kind=result.persona_kind.value,
        protocol=protocol_report.dominant,
        p2p=result.p2p,
        server_label=result.server.label if result.server else "-",
        uplink_mbps_mean=float(np.mean(up)) if up else 0.0,
        downlink_mbps_mean=float(np.mean(down)) if down else 0.0,
        persona_availability=availability,
    )


def pack_record(record: CampaignRecord) -> Dict[str, object]:
    """Record -> cacheable JSON payload."""
    return dataclasses.asdict(record)


def unpack_record(payload: Dict[str, object]) -> CampaignRecord:
    """Cache payload -> record (exact round-trip of :func:`pack_record`)."""
    return CampaignRecord(**payload)


class Campaign:
    """Runs a grid of session configurations unattended."""

    def __init__(self, cells: Sequence[CampaignCell], base_seed: int = 0) -> None:
        if not cells:
            raise ValueError("campaign needs at least one cell")
        self.cells = list(cells)
        self.base_seed = base_seed
        self.records: List[CampaignRecord] = []
        self.skipped: List[CellFailure] = []
        self.last_run_stats: Optional[RunStats] = None
        self.last_manifest: Optional[RunManifest] = None
        #: Distributed-run summary (workers, takeovers, fenced zombies)
        #: from the last ``run(store=...)``; None after local runs.
        self.last_dist: Optional[Dict[str, object]] = None

    @classmethod
    def grid(
        cls,
        vcas: Iterable[str],
        user_counts: Iterable[int],
        duration_s: float = 15.0,
        repeats: int = 3,
        base_seed: int = 0,
    ) -> "Campaign":
        """A full-factorial campaign over VCAs and user counts.

        Spatial-persona-capped configurations (FaceTime above five users)
        are skipped automatically.
        """
        cells = []
        for vca in vcas:
            for n in user_counts:
                profile = PROFILES[vca]
                if (profile.supports_spatial
                        and n > calibration.MAX_SPATIAL_PERSONAS):
                    continue
                cells.append(CampaignCell(vca, n, duration_s=duration_s,
                                          repeats=repeats))
        return cls(cells, base_seed=base_seed)

    def tasks(self) -> List[CellTask]:
        """One :class:`CellTask` per (cell, repeat), seeds preassigned.

        Seeds are allocated by enumeration order — identical to what the
        historical serial loop produced — so the execution strategy can
        never change a record.
        """
        tasks: List[CellTask] = []
        seed = self.base_seed
        for cell in self.cells:
            for repeat in range(cell.repeats):
                tasks.append(CellTask(
                    name=f"{cell.vca} n={cell.n_users} repeat={repeat}",
                    fn=run_cell,
                    kwargs={"cell": cell, "repeat": repeat, "seed": seed},
                    pack=pack_record,
                    unpack=unpack_record,
                ))
                seed += 1
        return tasks

    def fingerprint(self) -> str:
        """A stable identity for this exact sweep (sorted cell keys).

        Moves whenever anything that could change a record moves — grid,
        seeds, calibration, or code — so a resume can never replay a
        stale journal into a different campaign.
        """
        return run_fingerprint(task.cache_key() for task in self.tasks())

    def default_journal_path(self, root: Optional[Union[str, Path]] = None
                             ) -> Path:
        """Where this campaign's checkpoint journal lives by default."""
        base = Path(root) if root is not None else default_cache_root()
        return base / "journals" / f"{self.fingerprint()}.jsonl"

    def run(
        self,
        progress: Optional[Callable[[str], None]] = None,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        *,
        timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
        journal: Optional[RunJournal] = None,
        resume: bool = False,
        manifest: Optional[RunManifest] = None,
        failfast: bool = True,
        store: Optional[Union[str, Path]] = None,
        worker_wait_s: float = 10.0,
    ) -> List[CampaignRecord]:
        """Execute every cell; returns (and stores) the records.

        ``jobs > 1`` shards the (cell, repeat) grid over worker
        processes; ``cache`` replays unchanged cells from disk; a
        ``journal`` checkpoints every finished cell so ``resume=True``
        survives SIGINT/SIGKILL/crash; ``timeout`` arms the per-cell
        watchdog and ``max_retries`` bounds transient retries.  Whatever
        the path — serial, sharded, cached, or resumed — the records,
        and any CSV exported from them, are identical to a serial cold
        run.  Quarantined cells are excluded from :attr:`records` and
        listed in :attr:`skipped` and the manifest.

        ``store`` switches to **distributed** execution: cells are
        published into the shared store and executed by any ``repro
        worker`` processes pointed at it (the coordinator falls back to
        the local pool when none show up within ``worker_wait_s``).
        The store supplies its own shared cache and resume semantics
        (commit markers), so ``cache`` and ``resume`` are ignored on
        this path; ``journal`` still receives the merged distributed
        checkpoint.
        """
        retries = 1 if max_retries is None else max_retries
        if store is None:
            runner = TaskRunner(jobs=jobs, cache=cache, retries=retries,
                                progress=progress, timeout=timeout,
                                journal=journal, resume=resume,
                                manifest=manifest, failfast=failfast)
            span_args = {}
        else:
            runner = Coordinator(
                store, jobs=jobs, worker_wait_s=worker_wait_s,
                timeout=timeout, max_retries=retries, journal=journal,
                manifest=manifest, failfast=failfast, progress=progress,
            )
            span_args = {"distributed": True}
        with obs_trace.span("campaign.run", cat="campaign",
                            cells=len(self.cells), jobs=jobs, **span_args):
            results = runner.run(self.tasks())
        self.records = [r for r in results if not isinstance(r, CellFailure)]
        self.skipped = [r for r in results if isinstance(r, CellFailure)]
        self.last_run_stats = runner.stats
        self.last_manifest = runner.manifest
        self.last_dist = runner.dist if store is not None else None
        return self.records

    def to_csv(self, path: Union[str, Path]) -> None:
        """Export the collected records.

        Raises:
            RuntimeError: If :meth:`run` has not produced records yet.
        """
        if not self.records:
            raise RuntimeError("run() the campaign before exporting")
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(CampaignRecord.FIELDS)
            for record in self.records:
                writer.writerow(record.as_row())

    def summary_by(self, key: str) -> Dict[str, Dict[str, float]]:
        """Group records by a field; mean uplink/downlink per group."""
        groups: Dict[str, List[CampaignRecord]] = {}
        for record in self.records:
            groups.setdefault(str(getattr(record, key)), []).append(record)
        return {
            name: {
                "uplink_mbps_mean": float(
                    np.mean([r.uplink_mbps_mean for r in records])
                ),
                "downlink_mbps_mean": float(
                    np.mean([r.downlink_mbps_mean for r in records])
                ),
                "sessions": float(len(records)),
            }
            for name, records in groups.items()
        }
