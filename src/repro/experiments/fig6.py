"""Fig. 6 + Sec. 4.5: scalability of spatial personas, 2 to 5 users.

Two coupled measurements per user count:

- **Rendering** (Fig. 6(a)(b)): natural sessions through the attention
  model — rendered triangles, CPU ms, GPU ms per frame.
- **Network** (Fig. 6(c)): all-Vision-Pro FaceTime sessions through the
  SFU — per-client downlink throughput, which grows linearly because the
  server only forwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import calibration
from repro.analysis.stats import SummaryStats, summarize_samples
from repro.analysis.throughput import throughput_windows_mbps
from repro.core.cache import ResultCache
from repro.core.journal import RunJournal, RunManifest
from repro.core.parallel import CellTask, run_tasks
from repro.core.testbed import multi_user_testbed
from repro.experiments.fig4 import pack_stats, unpack_stats
from repro.netsim.capture import Direction
from repro.rendering.pipeline import RenderPipeline
from repro.vca.cohort import CohortRunner, SfuCohortResult, _sfu_cohorts
from repro.vca.profiles import PROFILES

USER_COUNTS = (2, 3, 4, 5)

#: SFU fan-outs of the batched what-if extension (Sec. "Batched
#: cohorts" of EXPERIMENTS.md) — far past the paper's 5-persona cap.
COHORT_FANOUTS = (50, 200, 500)

#: Datacenter NIC rate assumed for the what-if SFU (the testbed AP's
#: 300 Mbps would saturate at n ≈ 22 already).
COHORT_SERVER_GBPS = 10.0

#: GPU p95 (ms) above which five users count as nearing the 11.1 ms
#: frame budget (Sec. 4.5).
GPU_P95_NEAR_DEADLINE_MS = 9.0


@dataclass
class RenderScalability:
    """Fig. 6(a)(b) observables per user count."""

    triangles: Dict[int, SummaryStats]
    gpu_ms: Dict[int, SummaryStats]
    cpu_ms: Dict[int, SummaryStats]

    def format_table(self) -> str:
        """Printable Fig. 6(a)(b)."""
        lines = [
            "users  tri_mean  tri_p5   gpu mean±std  gpu_p95  cpu mean±std"
        ]
        for n in USER_COUNTS:
            t, g, c = self.triangles[n], self.gpu_ms[n], self.cpu_ms[n]
            lines.append(
                f"{n:5d}  {t.mean:8.0f}  {t.p5:7.0f}  "
                f"{g.mean:5.2f}±{g.std:4.2f}  {g.p95:7.2f}  "
                f"{c.mean:5.2f}±{c.std:4.2f}"
            )
        return "\n".join(lines)

    def gpu_approaches_deadline(self) -> bool:
        """At five users the GPU p95 nears the 11.1 ms frame budget."""
        return self.gpu_ms[5].p95 > GPU_P95_NEAR_DEADLINE_MS

    def triangles_grow_with_users(self) -> bool:
        """Mean rendered triangles increase monotonically."""
        means = [self.triangles[n].mean for n in USER_COUNTS]
        return all(a < b for a, b in zip(means, means[1:]))

    def p5_grows_slower_than_mean(self) -> bool:
        """Foveation flattens the lower tail from 3 to 5 users."""
        mean_growth = self.triangles[5].mean / self.triangles[3].mean
        p5_growth = self.triangles[5].p5 / max(self.triangles[3].p5, 1.0)
        return p5_growth < mean_growth


def measure_rendering_cell(
    n: int, duration_s: float, repeats: int, seed: int
) -> Tuple[SummaryStats, SummaryStats, SummaryStats]:
    """One user count's rendering counters — the unit of Fig. 6(a)(b) work."""
    tri_samples: List[float] = []
    gpu_samples: List[float] = []
    cpu_samples: List[float] = []
    for repeat in range(repeats):
        pipeline = RenderPipeline(seed=seed + repeat * 10 + n)
        frames = pipeline.render_session(
            [f"U{i + 2}" for i in range(n - 1)], duration_s=duration_s
        )
        tri_samples.extend(float(f.triangles) for f in frames)
        gpu_samples.extend(f.gpu_ms for f in frames)
        cpu_samples.extend(f.cpu_ms for f in frames)
    return (summarize_samples(tri_samples), summarize_samples(gpu_samples),
            summarize_samples(cpu_samples))


def _pack_rendering(result: Tuple[SummaryStats, ...]) -> List[Dict[str, float]]:
    return [pack_stats(stats) for stats in result]


def _unpack_rendering(
    payload: List[Dict[str, float]]
) -> Tuple[SummaryStats, SummaryStats, SummaryStats]:
    tri, gpu, cpu = (unpack_stats(entry) for entry in payload)
    return tri, gpu, cpu


def run_rendering(duration_s: float = 60.0,
                  repeats: int = calibration.MIN_REPEATS,
                  seed: int = 0, jobs: int = 1,
                  cache: Optional[ResultCache] = None,
                  timeout: Optional[float] = None, retries: int = 1,
                  journal: Optional[RunJournal] = None, resume: bool = False,
                  manifest: Optional[RunManifest] = None) -> RenderScalability:
    """Render sessions for every user count and summarize the counters.

    User counts are independent seeded cells for the shared sweep runner
    (``jobs``/``cache``, plus the crash-safety knobs: ``timeout``
    watchdog, transient ``retries``, ``journal``/``resume``,
    ``manifest``).
    """
    tasks = [
        CellTask(
            name=f"fig6/render/n{n}",
            fn=measure_rendering_cell,
            kwargs={"n": n, "duration_s": duration_s, "repeats": repeats,
                    "seed": seed},
            pack=_pack_rendering,
            unpack=_unpack_rendering,
        )
        for n in USER_COUNTS
    ]
    triangles: Dict[int, SummaryStats] = {}
    gpu: Dict[int, SummaryStats] = {}
    cpu: Dict[int, SummaryStats] = {}
    for n, (tri, g, c) in zip(USER_COUNTS, run_tasks(
            tasks, jobs=jobs, cache=cache, retries=retries, timeout=timeout,
            journal=journal, resume=resume, manifest=manifest)):
        triangles[n], gpu[n], cpu[n] = tri, g, c
    return RenderScalability(triangles, gpu, cpu)


@dataclass
class NetworkScalability:
    """Fig. 6(c): per-client downlink throughput per user count."""

    downlink_mbps: Dict[int, SummaryStats]

    def format_table(self) -> str:
        """Printable Fig. 6(c)."""
        lines = ["users  downlink mean  p5     p95   (Mbps)"]
        for n in USER_COUNTS:
            s = self.downlink_mbps[n]
            lines.append(f"{n:5d}  {s.mean:13.2f}  {s.p5:5.2f}  {s.p95:5.2f}")
        return "\n".join(lines)

    def grows_linearly(self, tolerance: float = 0.25) -> bool:
        """Downlink ~ (n - 1) * per-stream rate (pure SFU forwarding)."""
        means = {n: self.downlink_mbps[n].mean for n in USER_COUNTS}
        per_stream = means[2]  # one remote stream at two users
        for n in USER_COUNTS:
            expected = (n - 1) * per_stream
            if abs(means[n] - expected) > tolerance * expected:
                return False
        return True


def measure_network_cell(n: int, duration_s: float, repeats: int,
                         seed: int) -> SummaryStats:
    """One user count's downlink summary — the unit of Fig. 6(c) work.

    The ``repeats`` independent sessions run as one batched cohort on a
    shared engine (:class:`~repro.vca.cohort.CohortRunner`).  Each lane
    is bit-identical to the scalar run it replaces, so the summaries —
    and any cached campaign CSVs — are unchanged.
    """
    facetime = PROFILES["FaceTime"]
    runner = CohortRunner()
    for repeat in range(repeats):
        testbed = multi_user_testbed(n)
        runner.add(
            lambda sim, tb=testbed, s=seed + repeat:
            tb.session(facetime, seed=s, sim=sim, captures=("U1",))
        )
    windows: List[float] = []
    for outcome in runner.run(duration_s):
        windows.extend(throughput_windows_mbps(
            outcome.capture_of("U1"), Direction.DOWNLINK
        ))
    return summarize_samples(windows)


def run_network(duration_s: float = 20.0,
                repeats: int = calibration.MIN_REPEATS,
                seed: int = 0, jobs: int = 1,
                cache: Optional[ResultCache] = None,
                timeout: Optional[float] = None, retries: int = 1,
                journal: Optional[RunJournal] = None, resume: bool = False,
                manifest: Optional[RunManifest] = None) -> NetworkScalability:
    """All-Vision-Pro FaceTime sessions, 2-5 users, downlink at U1's AP."""
    tasks = [
        CellTask(
            name=f"fig6/network/n{n}",
            fn=measure_network_cell,
            kwargs={"n": n, "duration_s": duration_s, "repeats": repeats,
                    "seed": seed},
            pack=pack_stats,
            unpack=unpack_stats,
        )
        for n in USER_COUNTS
    ]
    return NetworkScalability(dict(zip(
        USER_COUNTS, run_tasks(
            tasks, jobs=jobs, cache=cache, retries=retries, timeout=timeout,
            journal=journal, resume=resume, manifest=manifest)
    )))


@dataclass
class CohortScalability:
    """The batched fig6 extension: SFU fan-outs past the persona cap.

    One :class:`~repro.vca.cohort.SfuCohortResult` per fan-out, plus the
    per-client downlink summary the Fig. 6(c) table reports.  Produced
    by the vectorized cohort fast path, so hundreds of participants run
    in one process in seconds.
    """

    fanouts: Tuple[int, ...]
    server_gbps: float
    downlink_mbps: Dict[int, SummaryStats]
    results: Dict[int, SfuCohortResult]

    def format_table(self) -> str:
        """Printable fleet table for the extended fan-outs."""
        lines = [
            f"SFU what-if at {self.server_gbps:.0f} Gbit/s "
            "(batched cohort engine)",
            "users  downlink mean  p5      p95     egress   drop(out)",
        ]
        for n in self.fanouts:
            s = self.downlink_mbps[n]
            r = self.results[n]
            lines.append(
                f"{n:5d}  {s.mean:13.2f}  {s.p5:6.2f}  {s.p95:7.2f}  "
                f"{r.delivered_egress_mbps:7.0f}  {r.egress_drop_rate:8.3f}"
            )
        return "\n".join(lines)

    def knee_fanout(self) -> float:
        """Fan-out where quadratic egress meets the server NIC.

        Per-upload rate u and n participants offer ``n*(n-1)*u`` of
        egress; the knee is where that meets the NIC rate.
        """
        per_stream = calibration.SPATIAL_PERSONA_MBPS
        return float(0.5 + np.sqrt(0.25 + self.server_gbps * 1000.0
                                   / per_stream))

    def saturates_at_largest(self) -> bool:
        """Whether the largest fan-out drove the SFU into drops."""
        return self.results[max(self.fanouts)].saturated


def run_network_cohort(
    fanouts: Tuple[int, ...] = COHORT_FANOUTS,
    duration_s: float = 12.0,
    seed: int = 0,
    server_gbps: float = COHORT_SERVER_GBPS,
) -> CohortScalability:
    """Fig. 6(c) past the cap: 50/200/500-participant SFU cohorts.

    Runs the struct-of-arrays fast path (validated against the
    event-driven oracle at n = 2..5 by the batch-equivalence suite) for
    each fan-out, all on one library of LZMA frame pools, and collects
    fleet aggregates: per-client downlink windows, SFU ingress/egress
    rates, and drop behaviour past the saturation knee.
    """
    results: Dict[int, SfuCohortResult] = dict(zip(fanouts, _sfu_cohorts(
        fanouts, duration_s, seed=seed, server_gbps=server_gbps)))
    return CohortScalability(
        fanouts=tuple(fanouts),
        server_gbps=server_gbps,
        downlink_mbps={n: result.downlink_summary()
                       for n, result in results.items()},
        results=results,
    )
