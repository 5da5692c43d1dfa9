"""Fig. 4: two-party uplink throughput per VCA configuration.

Five configurations, matching the figure's x axis:

- ``F``  — FaceTime, both users on Vision Pro (spatial persona, QUIC)
- ``F*`` — FaceTime, U2 on MacBook (2D persona, RTP)
- ``Z``  — Zoom, both on Vision Pro (2D persona)
- ``W``  — Webex, both on Vision Pro (2D persona)
- ``T``  — Teams, both on Vision Pro (2D persona)

The observable is U1's uplink wire throughput at the AP, windowed at one
second — the spatial persona's data rate, since the servers only forward
(Sec. 4.2).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro import calibration
from repro.analysis.stats import SummaryStats, summarize_samples
from repro.analysis.throughput import throughput_windows_mbps
from repro.core.cache import ResultCache
from repro.core.journal import RunJournal, RunManifest
from repro.core.parallel import CellTask, run_tasks
from repro.core.testbed import default_two_user_testbed
from repro.devices.models import Device, MacBook, VisionPro
from repro.netsim.capture import Direction
from repro.vca.profiles import PROFILES, VcaProfile

#: Fig. 4 configurations: label -> (profile, U2 device factory).
CONFIGURATIONS: Dict[str, Tuple[str, Callable[[], Device]]] = {
    "F": ("FaceTime", VisionPro),
    "F*": ("FaceTime", MacBook),
    "Z": ("Zoom", VisionPro),
    "W": ("Webex", VisionPro),
    "T": ("Teams", VisionPro),
}

#: Published means for sanity comparison (Fig. 4 / Sec. 4.2).
PAPER_MEANS_MBPS: Dict[str, float] = {
    "F": calibration.SPATIAL_PERSONA_MBPS,
    "F*": calibration.FACETIME_2D_MBPS,
    "Z": calibration.ZOOM_MBPS,
    "W": calibration.WEBEX_MBPS,
    "T": calibration.TEAMS_MBPS,
}


@dataclass
class Fig4Result:
    """Throughput summary per configuration."""

    summaries: Dict[str, SummaryStats]

    def format_table(self) -> str:
        """Printable Fig. 4 table with the paper's box-plot stats."""
        lines = ["cfg  mean   p5    p25   med   p75   p95   (Mbps, uplink)"]
        for label in CONFIGURATIONS:
            s = self.summaries[label]
            lines.append(
                f"{label:4s} {s.mean:5.2f} {s.p5:5.2f} {s.p25:5.2f} "
                f"{s.median:5.2f} {s.p75:5.2f} {s.p95:5.2f}"
            )
        return "\n".join(lines)

    def ordering_holds(self) -> bool:
        """The paper's headline ordering: F < Z < F* < T < W."""
        means = {k: v.mean for k, v in self.summaries.items()}
        return (
            means["F"] < means["Z"] < means["F*"] < means["T"] < means["W"]
        )


def measure_configuration(
    label: str,
    duration_s: float = 30.0,
    repeats: int = calibration.MIN_REPEATS,
    seed: int = 0,
) -> SummaryStats:
    """All throughput windows of one configuration across repeats."""
    vca_name, device_factory = CONFIGURATIONS[label]
    profile: VcaProfile = PROFILES[vca_name]
    windows: List[float] = []
    for repeat in range(repeats):
        testbed = default_two_user_testbed(u2_device=device_factory())
        session = testbed.session(profile, seed=seed + repeat,
                                  captures=("U1",))
        result = session.run(duration_s)
        windows.extend(
            throughput_windows_mbps(result.capture_of("U1"), Direction.UPLINK)
        )
    return summarize_samples(windows)


def pack_stats(stats: SummaryStats) -> Dict[str, float]:
    """SummaryStats -> cacheable JSON payload."""
    return dataclasses.asdict(stats)


def unpack_stats(payload: Dict[str, float]) -> SummaryStats:
    """Cache payload -> SummaryStats (exact round-trip)."""
    return SummaryStats(**payload)


def run(duration_s: float = 30.0, repeats: int = calibration.MIN_REPEATS,
        seed: int = 0, jobs: int = 1,
        cache: Optional[ResultCache] = None,
        timeout: Optional[float] = None, retries: int = 1,
        journal: Optional[RunJournal] = None, resume: bool = False,
        manifest: Optional[RunManifest] = None) -> Fig4Result:
    """Measure every Fig. 4 configuration.

    Each configuration is an independent seeded cell, so the sweep shards
    over ``jobs`` worker processes and replays from ``cache`` with results
    identical to the serial path.  The crash-safety knobs (``timeout``
    watchdog, transient ``retries``, checkpoint ``journal``/``resume``,
    shared run ``manifest``) pass straight through to the runner.
    """
    tasks = [
        CellTask(
            name=f"fig4/{label}",
            fn=measure_configuration,
            kwargs={"label": label, "duration_s": duration_s,
                    "repeats": repeats, "seed": seed},
            pack=pack_stats,
            unpack=unpack_stats,
        )
        for label in CONFIGURATIONS
    ]
    summaries = run_tasks(tasks, jobs=jobs, cache=cache, retries=retries,
                          timeout=timeout, journal=journal, resume=resume,
                          manifest=manifest)
    return Fig4Result(dict(zip(CONFIGURATIONS, summaries)))
