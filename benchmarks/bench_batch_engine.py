"""Bench: scalar event loop vs the struct-of-arrays cohort engine.

Runs the same media workload — N sessions, each clocking 90 Hz frame
bursts through a drop-tail uplink and windowing the departed bytes —
two ways:

* **scalar**: one :class:`repro.netsim.engine.Simulator` plus one
  :class:`repro.netsim.link.Link` per session, a Python callback per
  packet (the event-driven oracle);
* **batched**: one :class:`repro.netsim.batch.BatchSimulator` hosting
  every session as a lane, one ``schedule_cohort`` event per tick that
  advances *all* lanes with numpy, then the vectorized service kernel
  :func:`~repro.netsim.batch.fifo_departures` for departures.

Both paths window each lane's departures with the package's one window
kernel, :func:`~repro.netsim.capture.window_mbps`.  Before timing
anything the two paths are checked against each other: per-lane
departure times must agree within 1e-9 s (the documented fp tolerance of
the Lindley prefix-max) and per-lane throughput windows must match
exactly.

Reported "events/sec" counts *logical media events* — packet
transmissions simulated per wall-clock second — which both paths
perform in identical number, so the ratio is a fair work-throughput
comparison (raw engine callback counts differ by design: the batch
path's whole point is firing one cohort callback where the scalar path
fires N).  The CI gate asserts the batched path clears 5x the scalar
events/sec at cohorts of 64+ sessions.

Usage::

    PYTHONPATH=src python benchmarks/bench_batch_engine.py [--quick]
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.netsim.batch import BatchSimulator, fifo_departures
from repro.netsim.capture import window_mbps
from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.netsim.packet import IPPROTO_UDP, Packet

FPS = 90.0
BURST = 3  # datagrams per frame tick (exercises within-tick queueing)
RATE_BPS = 2e6  # drains a burst between ticks but queues within one
QUEUE_BYTES = 1 << 20  # large enough that nothing drops
WINDOW_S = 1.0
SKIP_HEAD_S = 1.0
MIN_SPEEDUP = 5.0  # CI gate at cohorts >= GATE_COHORT
GATE_COHORT = 64


def payload_size(lane: int, tick: int, j: int) -> int:
    """Deterministic per-datagram payload size, identical in both paths."""
    return 200 + (lane * 131 + tick * 17 + j * 53) % 701


def payload_sizes_vec(lanes: np.ndarray, tick: int, j: int) -> np.ndarray:
    """Vectorized :func:`payload_size` over a lane array."""
    return 200 + (lanes * 131 + tick * 17 + j * 53) % 701


def run_scalar(n: int, duration_s: float) -> Dict[str, object]:
    """The oracle: N independent simulators, one callback per packet."""
    t_start = time.perf_counter()
    dep_by_lane: List[List[Tuple[float, int]]] = [[] for _ in range(n)]
    packets = 0
    engine_events = 0
    for lane in range(n):
        sim = Simulator()
        link = Link(RATE_BPS, queue_bytes=QUEUE_BYTES, name=f"lane{lane}")
        out = dep_by_lane[lane]
        tick_box = [0]

        def on_tick(lane=lane, sim=sim, link=link, out=out,
                    tick_box=tick_box):
            tick = tick_box[0]
            tick_box[0] = tick + 1
            for j in range(BURST):
                pkt = Packet(
                    src="10.0.0.2", dst="10.0.1.2",
                    src_port=4433, dst_port=4433, protocol=IPPROTO_UDP,
                    payload=bytes(payload_size(lane, tick, j)),
                )
                link.transmit(
                    sim, pkt,
                    lambda p, sim=sim, out=out:
                    out.append((sim.now, p.wire_bytes)),
                )

        sim.schedule_every(1.0 / FPS, on_tick, until=duration_s)
        sim.run(until=duration_s)
        assert link.stats.packets_dropped == 0
        packets += link.stats.packets_sent
        engine_events += sim.events_fired
    elapsed = time.perf_counter() - t_start

    departures = [np.array([t for t, _w in rec]) for rec in dep_by_lane]
    windows = [window_mbps(dep, np.array([w for _t, w in rec]), WINDOW_S,
                           SKIP_HEAD_S)
               for dep, rec in zip(departures, dep_by_lane)]
    return {
        "elapsed": elapsed,
        "packets": packets,
        "engine_events": engine_events,
        "departures": departures,
        "windows": windows,
    }


def run_batched(n: int, duration_s: float) -> Dict[str, object]:
    """One shared cohort engine; ticks advance every lane with numpy."""
    t_start = time.perf_counter()
    batch = BatchSimulator(n_lanes=n)
    lanes = np.arange(n, dtype=np.int64)
    tick_times: List[float] = []
    tick_wires: List[np.ndarray] = []  # (BURST, n) wire bytes per tick

    def on_tick():
        tick = len(tick_times)
        tick_times.append(batch.now)
        tick_wires.append(np.stack([
            payload_sizes_vec(lanes, tick, j) + 28 for j in range(BURST)
        ]))

    # Same tick arithmetic as schedule_every: base 0, k * dt, k < until.
    dt = 1.0 / FPS
    tick = 0
    while tick * dt < duration_s - 1e-12:
        batch.schedule_cohort(tick * dt, lanes, on_tick)
        tick += 1
    batch.run(until=duration_s)

    times = np.repeat(np.asarray(tick_times), BURST)
    # (ticks, BURST, n) -> per-lane flat streams in arrival order.
    wires = np.stack(tick_wires)
    n_ticks = wires.shape[0]
    flat_wires = wires.reshape(n_ticks * BURST, n)
    dep_by_lane: List[np.ndarray] = []
    windows: List[List[float]] = []
    for lane in range(n):
        w = flat_wires[:, lane]
        dep = fifo_departures(times, w * (8.0 / RATE_BPS))
        dep_by_lane.append(dep)
        windows.append(window_mbps(dep, w, WINDOW_S, SKIP_HEAD_S))
    elapsed = time.perf_counter() - t_start
    return {
        "elapsed": elapsed,
        "packets": int(flat_wires.size),
        "engine_events": batch.events_fired,
        "departures": dep_by_lane,
        "windows": windows,
        "stats": batch.stats(),
    }


def check_equivalence(scalar: Dict[str, object],
                      batched: Dict[str, object]) -> None:
    """Hold the two paths together before trusting either timing."""
    assert scalar["packets"] == batched["packets"], (
        scalar["packets"], batched["packets"])
    s_dep = scalar["departures"]
    b_dep = batched["departures"]
    assert len(s_dep) == len(b_dep)
    for lane, (s, b) in enumerate(zip(s_dep, b_dep)):
        assert len(s) == len(b), f"lane {lane}: {len(s)} vs {len(b)}"
        err = float(np.max(np.abs(s - b))) if len(s) else 0.0
        assert err < 1e-9, f"lane {lane}: departure mismatch {err}"
    assert scalar["windows"] == batched["windows"]


def bench_cohort(n: int, duration_s: float) -> Dict[str, float]:
    scalar = run_scalar(n, duration_s)
    batched = run_batched(n, duration_s)
    check_equivalence(scalar, batched)
    return {
        "cohort": n,
        "packets": scalar["packets"],
        "scalar_s": scalar["elapsed"],
        "batch_s": batched["elapsed"],
        "scalar_eps": scalar["packets"] / scalar["elapsed"],
        "batch_eps": batched["packets"] / batched["elapsed"],
        "scalar_engine_events": scalar["engine_events"],
        "batch_engine_events": batched["engine_events"],
        "sessions_per_s": n / batched["elapsed"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI mode: short duration, cohorts 1 and 64")
    parser.add_argument("--duration", type=float, default=None,
                        help="simulated seconds per run")
    parser.add_argument("--cohorts", type=int, nargs="*", default=None,
                        help="cohort sizes to sweep")
    args = parser.parse_args(argv)
    duration = args.duration or (8.0 if args.quick else 20.0)
    cohorts = args.cohorts or ((1, GATE_COHORT) if args.quick
                               else (1, 16, 64, 256))

    print(f"workload: {FPS:.0f} Hz x {BURST} datagrams/tick, "
          f"{duration:.0f} s simulated (equivalence checked per run)")
    print("cohort   packets  scalar_s  batch_s  speedup"
          "   scalar ev/s    batch ev/s  sessions/s")
    gate_ok = True
    for n in cohorts:
        row = bench_cohort(n, duration)
        speedup = row["batch_eps"] / row["scalar_eps"]
        print(f"{row['cohort']:6d}  {row['packets']:8d}  "
              f"{row['scalar_s']:8.3f}  {row['batch_s']:7.3f}  "
              f"{speedup:6.1f}x  {row['scalar_eps']:12.0f}  "
              f"{row['batch_eps']:12.0f}  {row['sessions_per_s']:10.0f}")
        if row["cohort"] >= GATE_COHORT and speedup < MIN_SPEEDUP:
            gate_ok = False
            print(f"  FAIL: cohort {row['cohort']} speedup {speedup:.1f}x "
                  f"< required {MIN_SPEEDUP:.0f}x")
    if not gate_ok:
        return 1
    print(f"gate: batched events/sec >= {MIN_SPEEDUP:.0f}x scalar at "
          f"cohort >= {GATE_COHORT}: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
