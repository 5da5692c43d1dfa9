"""The per-frame render loop with RealityKit-style counters.

Ties together attention, LOD policy, and the cost models, producing the
exact observables the paper reads off the RealityKit tool: rendered
triangles, CPU ms, GPU ms, and missed 11.1 ms deadlines (Sec. 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import calibration
from repro.checks import positive
from repro.rendering.camera import Camera
from repro.rendering.cost import CpuCostModel, GpuCostModel
from repro.rendering.gaze import AttentionModel, ScenePersona, arrange_personas
from repro.rendering.lod import LodDecision, LodPolicy, PersonaView, VisibilityState


@dataclass(frozen=True)
class FrameStats:
    """Counters for one rendered frame."""

    frame_index: int
    triangles: int
    gpu_ms: float
    cpu_ms: float
    decisions: Sequence[LodDecision]

    @property
    def missed_deadline(self) -> bool:
        """Whether GPU work overran the 90 FPS budget (Sec. 4.5)."""
        return self.gpu_ms > calibration.FRAME_DEADLINE_MS

    def states(self) -> Dict[str, VisibilityState]:
        """persona_id -> visibility tier this frame."""
        return {d.persona_id: d.state for d in self.decisions}


@dataclass
class RenderPipeline:
    """Renders a telepresence scene frame by frame.

    Args:
        policy: The visibility-optimization stack (FaceTime defaults).
        gpu: GPU cost model (Fig. 5 fit).
        cpu: CPU cost model (Fig. 6 fit).
        seed: Seed for the cost models' measurement noise.
    """

    policy: LodPolicy = field(default_factory=LodPolicy)
    gpu: GpuCostModel = field(default_factory=GpuCostModel)
    cpu: CpuCostModel = field(default_factory=CpuCostModel)
    seed: int = 0

    def __post_init__(self) -> None:
        self.gpu.seed(self.seed)
        self.cpu.seed(self.seed + 1)

    def render_frame(self, frame_index: int, camera: Camera,
                     views: Sequence[PersonaView],
                     session_realism: bool = False) -> FrameStats:
        """Render one frame of an arbitrary scene.

        ``session_realism`` enables the contention-spike process; it is off
        for controlled single-scenario measurements (Fig. 5 pins the scene
        and shows tight stds) and on for natural sessions (Fig. 6).
        """
        decisions = self.policy.decide(camera, views)
        triangles = sum(d.triangles for d in decisions)
        spike_sources = len(views) if session_realism else 0
        gpu_ms = self.gpu.frame_time_ms(decisions, spike_sources=spike_sources)
        cpu_ms = self.cpu.frame_time_ms(len(views), spike_sources=spike_sources)
        return FrameStats(frame_index, triangles, gpu_ms, cpu_ms, tuple(decisions))

    def render_session(
        self,
        persona_ids: Sequence[str],
        duration_s: float,
        fps: float = float(calibration.TARGET_FPS),
        personas: Optional[Sequence[ScenePersona]] = None,
        attention_seed: Optional[int] = None,
    ) -> List[FrameStats]:
        """Render a whole session with natural attention dynamics.

        Args:
            persona_ids: Remote participants (n users -> n-1 personas).
            duration_s: Session length in seconds.
            fps: Display frame rate.
            personas: Optional explicit scene layout; defaults to the
                FaceTime arc arrangement.
            attention_seed: Seed for gaze dynamics (defaults to ``seed``).
        """
        positive(duration_s, "duration_s")
        scene = list(personas) if personas is not None else arrange_personas(persona_ids)
        attention = AttentionModel(
            scene, fps=fps,
            seed=self.seed if attention_seed is None else attention_seed,
        )
        frames = []
        for index in range(int(round(duration_s * fps))):
            sample = attention.step()
            frames.append(
                self.render_frame(index, sample.camera, sample.views,
                                  session_realism=True)
            )
        return frames


def summarize(frames: Sequence[FrameStats]) -> Dict[str, float]:
    """Session-level summary in the paper's terms."""
    if not frames:
        raise ValueError("no frames to summarize")
    gpu = np.array([f.gpu_ms for f in frames])
    cpu = np.array([f.cpu_ms for f in frames])
    tri = np.array([f.triangles for f in frames], dtype=float)
    return {
        "gpu_ms_mean": float(gpu.mean()),
        "gpu_ms_std": float(gpu.std()),
        "gpu_ms_p95": float(np.percentile(gpu, 95)),
        "cpu_ms_mean": float(cpu.mean()),
        "cpu_ms_std": float(cpu.std()),
        "triangles_mean": float(tri.mean()),
        "triangles_p5": float(np.percentile(tri, 5)),
        "triangles_p95": float(np.percentile(tri, 95)),
        "deadline_miss_rate": float(
            np.mean([f.missed_deadline for f in frames])
        ),
    }
