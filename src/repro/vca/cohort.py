"""Batched session cohorts: many telepresence sessions, one event loop.

Two layers, trading generality against speed:

* :class:`CohortRunner` — the compatibility facade.  It hosts N
  unmodified :class:`~repro.vca.session.TelepresenceSession` objects on
  one :class:`~repro.netsim.batch.BatchSimulator`, one lane each.  Every
  session observes *bit-identical* behaviour to a run on its own scalar
  :class:`~repro.netsim.engine.Simulator` (the golden differential suite
  enforces this), so existing experiments can batch without changing
  their numbers.  The win is architectural (one engine, one clock, one
  event heap for the whole cohort), not speed: each lane event costs
  about what it costs on the scalar engine.
* :func:`sfu_cohort_downlink` — the struct-of-arrays fast path.  It
  advances an n-participant FaceTime SFU cohort *without per-packet
  Python callbacks*: uplink schedules are generated as arrays, access
  links served by the vectorized kernels in :mod:`repro.netsim.batch`,
  the SFU fan-out handled per ingress *block* (one O(1) step per
  uploaded packet instead of one event per copy), and per-observer
  throughput windows reduced with one ``bincount``.  This is what lets
  fig6 extend past the paper's 5-persona limit to fan-outs of
  hundreds per SFU in one process.

The fast path models the same network the event-driven simulator builds
for ``multi_user_testbed(n).session(FACETIME)`` — same QUIC wire sizes,
same per-user seeds, same AP/link constants, same initiator-nearest
server selection, same capture vantages — and is validated against it at
n = 2..5 by ``tests/test_batch_equivalence.py`` (documented fp
tolerance: vectorized prefix reductions associate float additions
differently than sequential busy-time accumulation, and equal-timestamp
ties across users are broken by user index rather than global event
sequence).  Beyond n = 5 it answers the what-if the paper could not
measure: *if* the spatial-persona cap were lifted, where does the SFU
saturate?  Deviations from the session path at scale:

* users cycle through the five default testbed cities;
* per-user semantic frame-size pools are exact for the first
  ``pool_library`` users and cycled for the rest;
* per-user access uplinks are served work-conserving (they run at
  ~0.7 Mbps against 300 Mbps — the drop-tail bound is unreachable).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import calibration
from repro.analysis.stats import SummaryStats, summarize_samples
from repro.geo.regions import city
from repro.geo.servers import build_fleet
from repro.netsim.batch import (
    BatchSimulator,
    LaneSimulator,
    drop_tail_departures,
    fifo_departures,
)
from repro.netsim.capture import window_mbps
from repro.netsim.packet import IPV4_HEADER_BYTES, UDP_HEADER_BYTES
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.vca.media import (
    SEMANTIC_POOL_FRAMES,
    build_semantic_pool,
    quic_connection_for,
)
from repro.vca.profiles import PROFILES
from repro.vca.session import SessionResult, TelepresenceSession

#: City rotation of the cohort fast path — the same five cities
#: ``multi_user_testbed`` uses, cycled past five users.
COHORT_CITIES = ("san jose", "dallas", "washington", "chicago", "seattle")

#: IP + UDP framing added to every datagram payload.
_HEADER_BYTES = IPV4_HEADER_BYTES + UDP_HEADER_BYTES


class CohortRunner:
    """Hosts N independent sessions on one shared batch engine.

    Usage::

        runner = CohortRunner()
        for seed in seeds:
            runner.add(lambda sim, s=seed: testbed.session(profile, seed=s,
                                                           sim=sim))
        results = runner.run(duration_s)   # one List[SessionResult]

    Each factory receives the lane's engine view and must build its
    session on it; the runner advances the shared clock once and
    harvests every session.  Per-session numbers are bit-identical to
    scalar runs — the facade changes the execution engine, never the
    results.
    """

    def __init__(self) -> None:
        self.batch = BatchSimulator()
        self.sessions: List[TelepresenceSession] = []

    def add(
        self,
        factory: Callable[[LaneSimulator], TelepresenceSession],
    ) -> TelepresenceSession:
        """Add one session built by ``factory`` on a fresh lane."""
        lane = self.batch.add_lane()
        session = factory(lane)
        if session.sim is not lane:
            raise ValueError(
                "cohort session must be built on the lane it was given "
                "(pass the factory argument as the session's sim)"
            )
        self.sessions.append(session)
        return session

    def __len__(self) -> int:
        return len(self.sessions)

    def run(self, duration_s: float) -> List[SessionResult]:
        """Advance all sessions together, then collect each result."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        if not self.sessions:
            raise ValueError("cohort is empty; add sessions first")
        with obs_trace.span("vca.cohort.run", cat="session",
                            sim_clock=lambda: self.batch.now,
                            sessions=len(self.sessions)):
            self.batch.run(until=duration_s)
        obs_metrics.counter("vca.cohorts_run").inc()
        return [session.collect(duration_s) for session in self.sessions]


# ----------------------------------------------------------------------
# The vectorized SFU cohort fast path
# ----------------------------------------------------------------------


@dataclass
class SfuCohortResult:
    """Fleet-wide outcome of one n-participant SFU cohort.

    ``observer_windows_mbps`` holds per-client downlink throughput
    windows (the Fig. 6(c) observable) for the sampled observers;
    the remaining fields are fleet aggregates at the SFU.
    """

    n: int
    duration_s: float
    server_rate_bps: float
    observer_windows_mbps: Dict[int, List[float]]
    observer_late_fraction: Dict[int, float]
    offered_ingress_mbps: float
    accepted_ingress_mbps: float
    delivered_egress_mbps: float
    ingress_drop_rate: float
    egress_drop_rate: float
    #: Users refused at admission (empty unless ``admission_limit`` was
    #: given).  Shed users neither upload nor receive; their observer
    #: windows are empty.
    shed_users: Tuple[int, ...] = ()

    def downlink_summary(self) -> SummaryStats:
        """Box-plot summary over all observers' windows.

        Starved observers (drop-tail fan-out favours
        lexicographically-early destinations under saturation) may have
        produced no windows; they contribute a 0.0 sample each so the
        summary reflects the unfairness instead of hiding it.
        """
        samples: List[float] = []
        for windows in self.observer_windows_mbps.values():
            samples.extend(windows if windows else [0.0])
        return summarize_samples(samples)

    @property
    def saturated(self) -> bool:
        """Whether the SFU dropped traffic (ingress or fan-out)."""
        return self.ingress_drop_rate > 0.0 or self.egress_drop_rate > 0.0

    def observer_qoe_vector(self, observer: int,
                            one_way_delay_ms: float):
        """Multi-dimensional QoE of one sampled observer.

        The fast path has no per-frame receiver, so the dimensions map
        onto its aggregates: ``presence`` is the observer's delivered
        downlink share of the full (admitted − 1)-persona demand,
        ``comfort`` scores the frame rate implied by the late-frame
        fraction, ``interactivity`` the supplied one-way delay (see
        :func:`sfu_observer_one_way_ms`), and ``fidelity`` stays 1.0 —
        the fast path models no degradation ladder.  A user shed at
        admission scores presence 0 and comfort 0: there is nobody
        there to experience anything.
        """
        from repro.vca.qoe import QoeVector, delay_factor, frame_rate_factor

        interactivity = delay_factor(one_way_delay_ms)
        if observer in self.shed_users:
            return QoeVector(interactivity=interactivity, presence=0.0,
                             fidelity=1.0, comfort=0.0)
        if observer not in self.observer_windows_mbps:
            raise KeyError(f"user {observer} was not a sampled observer")
        admitted = self.n - len(self.shed_users)
        expected_mbps = calibration.SPATIAL_PERSONA_MBPS * (admitted - 1)
        windows = self.observer_windows_mbps[observer]
        mean_mbps = float(np.mean(windows)) if windows else 0.0
        presence = (min(1.0, mean_mbps / expected_mbps)
                    if expected_mbps > 0 else 0.0)
        late = self.observer_late_fraction.get(observer, 0.0)
        fps = float(calibration.TARGET_FPS) * max(0.0, 1.0 - late)
        return QoeVector(
            interactivity=interactivity,
            presence=presence,
            fidelity=1.0,
            comfort=frame_rate_factor(fps),
        )


def _quic_chunk_wire_sizes(frame_bytes: int) -> List[int]:
    """Wire sizes of the datagrams one protected frame produces."""
    from repro.transport.quic import QUIC_MAX_PAYLOAD, SHORT_HEADER_BYTES

    sizes = []
    offset = 0
    while offset < frame_bytes:
        chunk = min(QUIC_MAX_PAYLOAD, frame_bytes - offset)
        sizes.append(SHORT_HEADER_BYTES + chunk + _HEADER_BYTES)
        offset += chunk
    return sizes or [SHORT_HEADER_BYTES + _HEADER_BYTES]


def _semantic_pools(seed: int, n: int,
                    pool_library: int) -> List[List[int]]:
    """Per-user semantic frame-length tables (bytes, pre-QUIC).

    Exact :class:`~repro.vca.media.SemanticSource` pools (same per-user
    seeds) for the first ``pool_library`` users; beyond that users cycle
    the library — the documented large-cohort approximation.  Built
    uncached: a cohort's per-user seeds never repeat.
    """
    fps = float(calibration.TARGET_FPS)
    library: List[List[int]] = []
    for index in range(min(n, pool_library)):
        pool = build_semantic_pool(fps, seed * 1000 + index,
                                   SEMANTIC_POOL_FRAMES)
        library.append([len(payload) for payload in pool])
    return [library[index % len(library)] for index in range(n)]


def _uplink_stream(duration_s: float, fps: float, pool: List[int],
                   handshake_wires: Tuple[int, int],
                   audio_wire: int) -> Tuple[np.ndarray, np.ndarray]:
    """One user's (send_time, wire_bytes) uplink schedule, in fire order.

    Reproduces the session's event times bit for bit: the handshake at
    t=0, audio ticks at ``k / 50``, semantic frames at
    ``2/fps + k * (1/fps)`` (the exact ``schedule_periodic``
    arithmetic), each frame expanded to its QUIC datagrams.  Ties at
    equal times keep the engine's firing order: handshake, then audio,
    then semantic.
    """
    # Audio: 50 packets/s from t = 0.
    pps = 50.0
    n_audio = int(np.floor(duration_s * pps)) + 1
    t_audio = np.arange(n_audio) * (1.0 / pps)
    t_audio = t_audio[t_audio <= duration_s]
    # Semantic frames: start = 2/fps, interval = 1/fps.
    base = 2.0 / fps
    interval = 1.0 / fps
    n_frames = int(np.floor((duration_s - base) * fps)) + 2
    t_frames = base + np.arange(max(n_frames, 0)) * interval
    t_frames = t_frames[t_frames <= duration_s]
    # Expand frames to datagrams.
    frame_sizes = [
        _quic_chunk_wire_sizes(pool[k % len(pool)])
        for k in range(len(t_frames))
    ]
    counts = np.array([len(s) for s in frame_sizes], dtype=np.int64)
    t_sem = np.repeat(t_frames, counts)
    w_sem = np.array(
        [w for sizes in frame_sizes for w in sizes], dtype=np.int64
    )

    times = np.concatenate([
        np.zeros(2), t_audio, t_sem,
    ])
    wires = np.concatenate([
        np.array(handshake_wires, dtype=np.int64),
        np.full(len(t_audio), audio_wire, dtype=np.int64),
        w_sem,
    ])
    prio = np.concatenate([
        np.zeros(2, dtype=np.int64),
        np.full(len(t_audio), 1, dtype=np.int64),
        np.full(len(t_sem), 2, dtype=np.int64),
    ])
    sub = np.arange(len(times))
    order = np.lexsort((sub, prio, times))
    return times[order], wires[order]


def sfu_cohort_downlink(
    n: int,
    duration_s: float,
    seed: int = 0,
    observers: Optional[Sequence[int]] = None,
    window_s: float = 1.0,
    skip_head_s: float = 1.0,
    pool_library: int = 16,
    playout_delay_ms: float = 20.0,
    server_gbps: Optional[float] = None,
    admission_limit: Optional[int] = None,
) -> SfuCohortResult:
    """Advance an n-participant FaceTime SFU cohort, fully vectorized.

    Models ``multi_user_testbed(n).session(FACETIME, seed=seed)`` —
    every user a Vision Pro uploading its spatial persona (QUIC
    handshake + 90 fps semantic frames + 50 pps audio) through its own
    300 Mbps AP to the initiator-nearest FaceTime SFU, which fans each
    packet out to the other n-1 participants through its shared AP.

    Args:
        n: Participants (≥ 2).  Not capped at the paper's 5-persona
            limit — that is the point.
        duration_s: Simulated seconds.
        seed: Session seed; per-user media seeds are derived exactly as
            the session does (``seed * 1000 + index``).
        observers: User indices whose downlink windows to compute
            (default: up to 4 users spread over the cohort).
        window_s / skip_head_s: Throughput-window parameters of
            :func:`repro.netsim.capture.window_mbps`, the kernel behind
            :func:`repro.analysis.throughput.throughput_windows_mbps`.
        pool_library: Exact per-user frame pools to build before
            cycling (cost: one LZMA pool per entry).
        playout_delay_ms: Fixed jitter-buffer delay used for the
            per-observer late-frame fraction.
        server_gbps: SFU attachment rate in Gbit/s.  ``None`` (default)
            keeps the testbed's 300 Mbps AP — the configuration the
            event-driven oracle uses, where quadratic fan-out saturates
            the relay near n ≈ 22.  The what-if runs pass a datacenter
            NIC rate (e.g. 10.0) to place the knee where a production
            SFU would see it.
        admission_limit: Server-side admission control: at most this
            many users are admitted (>= 2).  When the cohort exceeds
            the limit, the farthest users — highest one-way delay to
            the SFU, i.e. the sessions the delay-factor QoE objective
            already scores lowest, so shedding them costs the least
            regret — are refused deterministically (stable sort, index
            tie-break) and reported in ``shed_users``.  ``None``
            (default) admits everyone and is bit-identical to the
            pre-admission fast path.
    """
    if n < 2:
        raise ValueError("an SFU cohort needs at least two participants")
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    if observers is None:
        step = max(1, n // 4)
        observers = tuple(range(n))[::step][:4]
    facetime = PROFILES["FaceTime"]
    fps = float(calibration.TARGET_FPS)
    rate_bps = calibration.WIFI_AP_MBPS * 1e6
    server_rate_bps = (
        server_gbps * 1e9 if server_gbps is not None else rate_bps
    )
    queue_bytes = 512 * 1024
    # The testbed AP keeps its stock 512 KB buffer (oracle parity); a
    # datacenter NIC gets a 10 ms buffer so the instantaneous fan-out
    # bursts (every user ticks at the same display times) are absorbed
    # and the egress link stays work-conserving under saturation.
    server_queue_bytes = (
        queue_bytes if server_gbps is None
        else max(queue_bytes, int(server_rate_bps * 0.010 / 8.0))
    )
    import hashlib

    session_secret = hashlib.sha256(
        f"{facetime.name}-{seed}".encode()
    ).digest()

    # Geography: the session's city rotation and server selection.
    locations = [city(COHORT_CITIES[i % len(COHORT_CITIES)])
                 for i in range(n)]
    fleet = build_fleet(facetime.name)
    server = fleet.select_for_session(locations[0], locations)
    path = fleet.path_model
    up_delay = np.array([
        path.one_way_ms(loc, server.location) / 1000.0 for loc in locations
    ])
    down_delay = up_delay  # symmetric one-way model

    # Admission control: refuse the farthest (cheapest-regret) users.
    admitted = np.arange(n)
    shed_users: Tuple[int, ...] = ()
    if admission_limit is not None:
        if admission_limit < 2:
            raise ValueError("admission_limit must admit at least two users")
        if admission_limit < n:
            by_delay = np.argsort(up_delay, kind="stable")
            admitted = np.sort(by_delay[:admission_limit])
            shed_users = tuple(
                int(i) for i in np.sort(by_delay[admission_limit:])
            )
            obs_metrics.counter("vca.cohort.admission_shed").inc(
                len(shed_users)
            )
    # Original-index -> admitted-local-index map (-1 = shed).
    local = np.full(n, -1, dtype=np.int64)
    local[admitted] = np.arange(len(admitted))

    # Exact wire sizes (address-independent).
    conn = quic_connection_for("10.0.0.2", session_secret)
    handshake_wires = (
        len(conn.initial_packet()) + _HEADER_BYTES,
        len(conn.handshake_packet()) + _HEADER_BYTES,
    )
    audio_payload = max(16, int(
        facetime.audio_bitrate_kbps * 1000 / 8 / 50
    ))
    audio_wire = _quic_chunk_wire_sizes(audio_payload)[0]

    pools = _semantic_pools(seed, n, pool_library)

    # ------------------------------------------------------------------
    # Uplinks: per-user schedule -> work-conserving AP service.
    # ------------------------------------------------------------------
    all_times: List[np.ndarray] = []
    all_wires: List[np.ndarray] = []
    all_src: List[np.ndarray] = []
    all_send: List[np.ndarray] = []
    for index in admitted.tolist():
        t_send, wires = _uplink_stream(
            duration_s, fps, pools[index], handshake_wires, audio_wire
        )
        dep = fifo_departures(t_send, wires * (8.0 / rate_bps))
        all_times.append(dep + up_delay[index])
        all_wires.append(wires)
        all_src.append(np.full(len(wires), index, dtype=np.int64))
        all_send.append(t_send)
    arrival = np.concatenate(all_times)
    wire = np.concatenate(all_wires)
    src = np.concatenate(all_src)
    send = np.concatenate(all_send)
    order = np.lexsort((src, arrival))
    arrival, wire, src, send = (arrival[order], wire[order], src[order],
                                send[order])
    in_window = arrival <= duration_s
    arrival, wire, src, send = (arrival[in_window], wire[in_window],
                                src[in_window], send[in_window])
    offered_bytes = float(wire.sum())

    # ------------------------------------------------------------------
    # SFU ingress: the shared AP downlink, exact drop-tail.
    # ------------------------------------------------------------------
    dep_in, accepted = drop_tail_departures(
        arrival, wire, server_rate_bps, server_queue_bytes
    )
    ingress_offered = len(arrival)
    ingress_accepted = int(accepted.sum())
    dep_in = dep_in[accepted]
    wire_in = wire[accepted]
    src_in = src[accepted]
    accepted_bytes = float(wire_in.sum())

    # ------------------------------------------------------------------
    # SFU egress: block fan-out, one O(1) step per ingress packet.
    # Copies of one packet are offered back to back at one instant, so
    # the accepted count is a single headroom division.
    # ------------------------------------------------------------------
    fanout = len(admitted) - 1
    byte_rate = server_rate_bps / 8.0
    start_l: List[float] = []
    k_l: List[int] = []
    busy = 0.0
    dep_list = dep_in.tolist()
    wire_list = wire_in.tolist()
    for i in range(len(dep_list)):
        t = dep_list[i]
        w = wire_list[i]
        backlog = int((busy - t) * byte_rate) if busy > t else 0
        k = (server_queue_bytes - backlog) // w
        if k < 0:
            k = 0
        elif k > fanout:
            k = fanout
        start = t if t > busy else busy
        busy = start + k * (w * 8.0 / server_rate_bps)
        start_l.append(start)
        k_l.append(k)
    start_arr = np.array(start_l)
    k_arr = np.array(k_l, dtype=np.int64)
    copies_offered = len(dep_list) * fanout
    copies_accepted = int(k_arr.sum())
    egress_bytes = float((k_arr * wire_in).sum())

    # ------------------------------------------------------------------
    # Observer downlinks: capture vantage is the core arrival (before
    # the receiver's AP), exactly like the event-driven network.
    # ------------------------------------------------------------------
    # Fan-out destination order ranks the *admitted* addresses only;
    # with everyone admitted this is the original full-cohort ranking.
    addresses = [f"10.0.{i}.2" for i in admitted.tolist()]
    rank = np.empty(len(admitted), dtype=np.int64)
    rank[np.array([addresses.index(a) for a in sorted(addresses)])] = (
        np.arange(len(admitted))
    )
    ser_in = wire_in * (8.0 / server_rate_bps)
    src_rank = rank[local[src_in]]
    observer_windows: Dict[int, List[float]] = {}
    observer_late: Dict[int, float] = {}
    from repro.vca.jitterbuffer import JitterBuffer

    # Original send timestamps rode along through the pipeline; the
    # jitter buffer needs (send, arrival) pairs per observer.
    send_in = send[accepted]
    for obs in observers:
        if not 0 <= obs < n:
            raise IndexError(f"observer {obs} out of range for n={n}")
        if local[obs] < 0:
            # Refused at admission: the SFU never sends toward this user.
            t_arrive = wire_got = np.empty(0)
        else:
            position = rank[local[obs]] - (src_rank < rank[local[obs]])
            got = (src_in != obs) & (position < k_arr)
            # Copies leave the SFU in ingress order: arrivals are sorted.
            dep_copy = start_arr[got] + (position[got] + 1) * ser_in[got]
            t_arrive = dep_copy + down_delay[obs]
            wire_got = wire_in[got]
        observer_windows[obs] = window_mbps(t_arrive, wire_got, window_s,
                                            skip_head_s)
        if len(t_arrive) == 0:
            observer_late[obs] = 0.0
            continue
        report = JitterBuffer(playout_delay_ms).play_batch(
            send_in[got], t_arrive,
            np.zeros(len(t_arrive), dtype=np.int64), 1,
        )[0]
        observer_late[obs] = report.late_fraction

    scale = 8.0 / duration_s / 1e6
    obs_metrics.counter("vca.cohort.fast_path_runs").inc()
    obs_metrics.gauge("vca.cohort.max_fanout").set_max(n)
    return SfuCohortResult(
        n=n,
        duration_s=duration_s,
        server_rate_bps=server_rate_bps,
        observer_windows_mbps=observer_windows,
        observer_late_fraction=observer_late,
        offered_ingress_mbps=offered_bytes * scale,
        accepted_ingress_mbps=accepted_bytes * scale,
        delivered_egress_mbps=egress_bytes * scale,
        ingress_drop_rate=(
            1.0 - ingress_accepted / ingress_offered if ingress_offered
            else 0.0
        ),
        egress_drop_rate=(
            1.0 - copies_accepted / copies_offered if copies_offered
            else 0.0
        ),
        shed_users=shed_users,
    )


def sfu_observer_one_way_ms(n: int) -> np.ndarray:
    """Per-user worst-case conversational one-way delay of the cohort.

    The fast path's geography, reused for QoE scoring: user ``i``'s
    interactive path to the farthest other participant runs sender
    uplink → SFU → own downlink, so the entry is ``max_j(up_j) +
    down_i`` under the symmetric one-way model, with the same city
    rotation and initiator-nearest server selection as
    :func:`sfu_cohort_downlink`.
    """
    if n < 2:
        raise ValueError("an SFU cohort needs at least two participants")
    locations = [city(COHORT_CITIES[i % len(COHORT_CITIES)])
                 for i in range(n)]
    fleet = build_fleet(PROFILES["FaceTime"].name)
    server = fleet.select_for_session(locations[0], locations)
    path = fleet.path_model
    up_ms = np.array([
        path.one_way_ms(loc, server.location) for loc in locations
    ])
    return up_ms.max() + up_ms  # symmetric: down_i == up_i


__all__ = [
    "CohortRunner",
    "SfuCohortResult",
    "sfu_cohort_downlink",
    "sfu_observer_one_way_ms",
    "COHORT_CITIES",
]
