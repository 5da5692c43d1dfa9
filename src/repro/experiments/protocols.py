"""Sec. 4.1 findings: protocol choice, P2P policy, server selection, anycast.

Four separate checks, each derived from captures or probes rather than from
the profiles directly, so the experiment genuinely re-measures what the
session layer does:

1. FaceTime carries spatial-persona sessions over QUIC, and falls back to
   RTP — with the 2D-call payload types — when any participant is not on
   Vision Pro.  Zoom/Webex/Teams stay on RTP always.
2. FaceTime and Zoom run two-party calls P2P, except both-Vision-Pro
   FaceTime.
3. Every provider picks the server nearest the initiator, regardless of
   where the other participants sit.
4. No provider's addresses behave like anycast.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.protocol import classify_capture
from repro.core.parallel import CellTask, run_tasks
from repro.devices.models import Device, MacBook, VisionPro
from repro.geo.geolocate import AnycastProbe
from repro.geo.regions import all_clients, city
from repro.geo.servers import ALL_FLEETS
from repro.transport.rtp import FACETIME_VIDEO_PT
from repro.vca.profiles import PROFILES, Protocol, VcaProfile
from repro.vca.session import Participant, TelepresenceSession


@dataclass(frozen=True)
class ProtocolObservation:
    """What the capture classifier saw for one session configuration."""

    vca: str
    device_mix: str
    observed_protocol: str
    p2p: bool
    dominant_payload_type: Optional[int]


def observe_session_protocol(profile: VcaProfile, devices: List[Device],
                             duration_s: float = 5.0,
                             seed: int = 0) -> ProtocolObservation:
    """Run a short session and classify U1's captured traffic."""
    cities = ["san jose", "dallas", "washington", "chicago", "seattle"]
    participants = [
        Participant(f"U{i + 1}", device, city(cities[i]))
        for i, device in enumerate(devices)
    ]
    session = TelepresenceSession(profile, participants, seed=seed,
                                  captures=("U1",))
    result = session.run(duration_s)
    report = classify_capture(result.capture_of("U1"))
    mix = "+".join(d.device_class.value for d in devices)
    return ProtocolObservation(
        vca=profile.name,
        device_mix=mix,
        observed_protocol=report.dominant,
        p2p=result.p2p,
        dominant_payload_type=report.dominant_payload_type(),
    )


#: Device factories by device class, as cell kwargs name them.
_DEVICES = {"Vision Pro": VisionPro, "MacBook": MacBook}

#: The paper's two-party device mixes (Sec. 4.1), swept for every VCA.
MIXES: Tuple[Tuple[str, ...], ...] = (
    ("Vision Pro", "Vision Pro"),
    ("Vision Pro", "MacBook"),
)

#: The mix whose FaceTime call falls back to RTP, and the plain 2D call
#: whose payload types that fallback is compared with.
FALLBACK_MIX = MIXES[1]
PLAIN_2D_MIX = ("MacBook", "MacBook")


def observe_mix(vca: str, devices: Sequence[str],
                seed: int) -> ProtocolObservation:
    """One ``vca`` session on ``devices`` (device classes): a Sec. 4.1 cell."""
    return observe_session_protocol(
        PROFILES[vca], [_DEVICES[name]() for name in devices], seed=seed
    )


def _unpack_observation(payload: Dict[str, object]) -> ProtocolObservation:
    return ProtocolObservation(**payload)


def _observation_task(vca: str, devices: Sequence[str],
                      seed: int) -> CellTask:
    return CellTask(
        name=f"protocols/{vca}/{'+'.join(devices)}",
        fn=observe_mix,
        kwargs={"vca": vca, "devices": devices, "seed": seed},
        pack=asdict,
        unpack=_unpack_observation,
    )


def matrix_tasks(seed: int) -> List[CellTask]:
    """One cell per (VCA, device mix) of the paper's sweep."""
    return [_observation_task(vca, mix, seed)
            for vca in PROFILES for mix in MIXES]


def plain_2d_task(seed: int) -> CellTask:
    """The MacBook + MacBook FaceTime call of the RTP-fallback check."""
    return _observation_task("FaceTime", PLAIN_2D_MIX, seed + 1)


def fallback_keeps_2d(observations: Sequence[ProtocolObservation],
                      plain: ProtocolObservation) -> bool:
    """Whether the FaceTime fallback call in ``observations`` carries the
    dominant payload type of the ``plain`` 2D call."""
    mixed = next(obs for obs in observations if obs.vca == "FaceTime"
                 and obs.device_mix == "+".join(FALLBACK_MIX))
    return (
        mixed.dominant_payload_type == plain.dominant_payload_type
        == FACETIME_VIDEO_PT.number
    )


def run_protocol_matrix(seed: int = 0) -> List[ProtocolObservation]:
    """The paper's device-mix sweep for all four VCAs."""
    return run_tasks(matrix_tasks(seed))


def facetime_fallback_keeps_2d_payload_type(seed: int = 0) -> bool:
    """Sec. 4.1: the RTP fallback uses the ordinary 2D-call codecs.

    Compares the dominant PT of a Vision Pro + MacBook FaceTime call with
    a plain 2D call between two MacBooks.
    """
    mixed, plain = run_tasks([_observation_task("FaceTime", FALLBACK_MIX,
                                                seed),
                              plain_2d_task(seed)])
    return fallback_keeps_2d([mixed], plain)


@dataclass(frozen=True)
class ServerSelectionObservation:
    """Selected server per initiator, with other participants fixed."""

    vca: str
    initiator_city: str
    selected_label: str


def run_server_selection(seed: int = 0) -> List[ServerSelectionObservation]:
    """Rotate the initiator and record which server each VCA assigns.

    The paper finds the assignment follows the initiator's region only.
    """
    del seed  # selection is deterministic
    observations = []
    rotation = ["san jose", "dallas", "washington"]
    for vca, fleet in ALL_FLEETS.items():
        for initiator_city in rotation:
            others = [c for c in rotation if c != initiator_city]
            server = fleet.select_for_session(
                city(initiator_city), [city(c) for c in others]
            )
            observations.append(
                ServerSelectionObservation(vca, initiator_city, server.label)
            )
    return observations


def run_anycast_check(repeats: int = 5, seed: int = 0) -> Dict[str, bool]:
    """Probe every server from all eight vantage points (Sec. 4.1, [24]).

    Returns per-VCA anycast verdicts; the paper (and this model) finds
    every one unicast.
    """
    probe = AnycastProbe()
    vantages = all_clients()
    verdicts = {}
    for vca, fleet in ALL_FLEETS.items():
        anycast = False
        for index, server in enumerate(fleet.servers):
            rtts = probe.probe_server(
                server, vantages, repeats=repeats, seed=seed * 100 + index
            )
            anycast = anycast or probe.is_anycast(rtts)
        verdicts[vca] = anycast
    return verdicts


def _verdict_pairs(verdicts: Dict[str, bool]) -> List[Tuple[str, bool]]:
    # Pairs, not a mapping: the cache sorts mapping keys, and the verdicts
    # read in fleet order.
    return list(verdicts.items())


def anycast_task(seed: int) -> CellTask:
    """The anycast probe as one cell."""
    return CellTask(name="protocols/anycast", fn=run_anycast_check,
                    kwargs={"seed": seed}, pack=_verdict_pairs, unpack=dict)
