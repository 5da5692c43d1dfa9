"""Video-see-through display-latency model (the Sec. 4.3 experiment).

Vision Pro composites two things onto its screens: the camera passthrough
of the real world, and the rendered personas.  The paper's discriminating
experiment measures the *difference* in display latency between the two
when the viewer abruptly changes viewport, under injected network delay:

- If the persona were **sender-rendered 2D video** (rendered for the
  receiver's predicted viewport), a viewport change would need a network
  round trip before the persona updates — the difference would track the
  injected delay.
- If the persona is **locally reconstructed** (from a 3D model or from
  semantic keypoints), the viewport change is handled locally and the
  difference stays bounded by one or two frame times regardless of
  network delay.  This is what the paper measures (< 16 ms difference
  at up to 1000 ms of injected delay).

Both content modes are implemented so the experiment can discriminate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro import calibration
from repro.checks import non_negative


class ContentDeliveryMode(enum.Enum):
    """How persona content reaches the receiving headset."""

    #: Receiver holds the model and re-renders locally per frame
    #: (direct 3D streaming *or* semantic reconstruction).
    LOCAL_RECONSTRUCTION = "local"

    #: Sender (or an edge) renders a 2D view for the receiver's viewport
    #: and streams video; viewport changes need a network round trip.
    SENDER_RENDERED_VIDEO = "remote"


#: Camera-to-display passthrough latency of the headset, ms.  Public
#: measurements of Vision Pro passthrough place it around 11-12 ms.
PASSTHROUGH_LATENCY_MS = 12.0


@dataclass
class DisplayLatencyModel:
    """Computes display latencies for passthrough vs persona content."""

    mode: ContentDeliveryMode = ContentDeliveryMode.LOCAL_RECONSTRUCTION
    passthrough_ms: float = PASSTHROUGH_LATENCY_MS
    frame_interval_ms: float = 1000.0 / calibration.TARGET_FPS
    jitter_std_ms: float = 1.5
    _rng: np.random.Generator = field(
        default_factory=lambda: np.random.default_rng(0), repr=False
    )

    def seed(self, seed: int) -> None:
        """Reseed the jitter source."""
        self._rng = np.random.default_rng(seed)

    def passthrough_latency_ms(self) -> float:
        """Camera-to-photon latency for real-world objects."""
        return self.passthrough_ms + self._sample_scheduling()

    def persona_latency_ms(self, network_rtt_ms: float) -> float:
        """Photon latency for the persona after an abrupt viewport change.

        Args:
            network_rtt_ms: Current round-trip time to the sender,
                including any injected (tc) delay.
        """
        non_negative(network_rtt_ms, "network_rtt_ms")
        if self.mode is ContentDeliveryMode.LOCAL_RECONSTRUCTION:
            # The new viewport is rendered from local state next frame.
            return (
                self.passthrough_ms
                + self.frame_interval_ms
                + self._sample_scheduling()
            )
        # Sender-rendered: the viewport change must reach the sender and a
        # freshly rendered video frame must come back.
        return (
            self.passthrough_ms
            + self.frame_interval_ms
            + network_rtt_ms
            + self._sample_scheduling()
        )

    def latency_difference_ms(self, network_rtt_ms: float) -> float:
        """The paper's observable: persona latency minus passthrough."""
        return self.persona_latency_ms(network_rtt_ms) - self.passthrough_latency_ms()

    def _sample_scheduling(self) -> float:
        """Frame-boundary alignment noise (uniform within one vsync)."""
        vsync = float(self._rng.uniform(0.0, self.frame_interval_ms))
        jitter = float(self._rng.normal(0.0, self.jitter_std_ms))
        return max(0.0, vsync * 0.5 + jitter)
