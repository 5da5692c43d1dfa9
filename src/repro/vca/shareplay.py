"""SharePlay: shared content alongside spatial personas.

Sec. 5 of the paper lists the use cases it leaves for future work:
"collaborative whiteboards and shared entertainment experiences (e.g.,
playing games and watching movies)" via SharePlay.  This module adds the
missing stream type — a shared-content video channel riding the same
session — so those scenarios can be measured:

- movie playback: a steady high-bitrate video stream from the host;
- whiteboard: a low-rate, bursty update stream (only strokes move).

Both coexist with the semantic persona streams, which is exactly the
interesting question: the persona needs < 0.7 Mbps, the movie needs an
order of magnitude more, and a constrained uplink must now choose.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.checks import positive
from repro.netsim.engine import Simulator
from repro.netsim.node import Host
from repro.netsim.packet import IPPROTO_UDP, Packet
from repro.vca.media import MEDIA_PORT, _PAYLOAD_FRACTION

#: Source port of shared-content streams (separable by 5-tuple).
SHAREPLAY_SRC_PORT = 40004


class SharedContentKind(enum.Enum):
    """The SharePlay content types the paper names."""

    MOVIE = "movie"
    WHITEBOARD = "whiteboard"
    GAME = "game"


@dataclass(frozen=True)
class SharedContentProfile:
    """Rate/shape description of one content kind."""

    kind: SharedContentKind
    target_mbps: float
    fps: int
    burstiness: float  # lognormal sigma of frame sizes

    @classmethod
    def movie(cls) -> "SharedContentProfile":
        """1080p movie playback."""
        return cls(SharedContentKind.MOVIE, 8.0, 24, 0.25)

    @classmethod
    def whiteboard(cls) -> "SharedContentProfile":
        """Stroke updates: low rate, highly bursty."""
        return cls(SharedContentKind.WHITEBOARD, 0.15, 15, 1.0)

    @classmethod
    def game(cls) -> "SharedContentProfile":
        """Rendered game view shared at 60 FPS."""
        return cls(SharedContentKind.GAME, 12.0, 60, 0.35)


class SharedContentSource:
    """Streams shared content from the SharePlay host."""

    def __init__(self, profile: SharedContentProfile, seed: int = 0) -> None:
        positive(profile.target_mbps, "target_mbps")
        self.profile = profile
        self._rng = np.random.default_rng(seed)
        self._frame_index = 0
        wire_frame = profile.target_mbps * 1e6 / 8.0 / profile.fps
        self._mean_payload = wire_frame * _PAYLOAD_FRACTION
        self.bytes_sent = 0

    def attach(self, sim: Simulator, host: Host, target_address: str,
               target_port: int = MEDIA_PORT,
               until: Optional[float] = None) -> None:
        """Schedule the content stream."""

        def send_frame() -> None:
            sigma = self.profile.burstiness
            jitter = float(self._rng.lognormal(0.0, sigma))
            jitter /= float(np.exp(sigma**2 / 2.0))
            size = max(32, int(self._mean_payload * jitter))
            from repro.netsim.packet import MEDIA_MTU_BYTES

            frame = bytes(self._rng.integers(0, 256, size, dtype=np.uint8))
            for offset in range(0, len(frame), MEDIA_MTU_BYTES):
                chunk = frame[offset:offset + MEDIA_MTU_BYTES]
                host.send(Packet(
                    src=host.address, dst=target_address,
                    src_port=SHAREPLAY_SRC_PORT, dst_port=target_port,
                    protocol=IPPROTO_UDP, payload=chunk,
                    meta={"kind": "shareplay",
                          "content": self.profile.kind.value,
                          "frame": self._frame_index,
                          "origin": host.address},
                ))
                self.bytes_sent += len(chunk)
            self._frame_index += 1

        sim.schedule_every(1.0 / self.profile.fps, send_frame, until=until)
