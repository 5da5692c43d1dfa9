"""Heartbeat-file liveness detection for distributed workers.

A worker proves it is alive by atomically rewriting
``heartbeats/<worker>.json`` every ``interval`` seconds.  Liveness is
the *only* thing heartbeats decide: a worker whose beacon has not moved
for ``stale_after`` seconds is presumed dead (SIGKILLed, partitioned,
or frozen), and its leases become stealable.  Correctness never depends
on that presumption being right — a worker declared dead too eagerly is
fenced when it tries to commit, so a slow clock or an NFS hiccup can
cost duplicate *work*, never duplicate *results*.

Staleness compares the wall-clock timestamp inside the beacon against
the reader's clock, so multi-host fleets need loosely NTP-synced clocks
(off by seconds is fine; the deadline just shifts by the skew).

One deliberate wrinkle: the beat thread refuses to beat while the
worker's current cell has exceeded its declared ``busy_timeout``.  A
worker wedged inside a hung cell therefore *looks dead*, its lease is
stolen, and the campaign keeps moving — the distributed analogue of the
PR 4 per-cell watchdog, without needing anyone to kill anything.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from pathlib import Path
from typing import Dict, Optional

from repro.checks import positive
from repro.core.dist.store import StoreLayout, atomic_write_json, read_json
from repro.obs import metrics as obs_metrics

#: Default seconds between beats.
DEFAULT_INTERVAL_S = 1.0

#: Default multiple of the interval after which a worker is presumed
#: dead.  Three missed beats tolerates scheduler hiccups without making
#: takeover sluggish.
STALE_FACTOR = 3.0


class HeartbeatWriter:
    """Background thread keeping one worker's liveness beacon fresh."""

    def __init__(self, layout: StoreLayout, worker: str,
                 interval_s: float = DEFAULT_INTERVAL_S,
                 busy_timeout_s: Optional[float] = None) -> None:
        self.layout = layout
        self.worker = worker
        self.interval_s = positive(interval_s, "interval_s")
        self.busy_timeout_s = busy_timeout_s
        self.path = layout.heartbeats_dir / f"{worker}.json"
        self._beats = obs_metrics.counter("dist.heartbeats")
        self._stop = threading.Event()
        self._busy_since: Optional[float] = None
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # busy bookkeeping (the self-watchdog)
    # ------------------------------------------------------------------

    def cell_started(self) -> None:
        self._busy_since = time.monotonic()

    def cell_finished(self) -> None:
        self._busy_since = None

    def _wedged(self) -> bool:
        """True when the current cell has outrun its declared deadline."""
        if self.busy_timeout_s is None or self._busy_since is None:
            return False
        return time.monotonic() - self._busy_since > self.busy_timeout_s

    # ------------------------------------------------------------------
    # beating
    # ------------------------------------------------------------------

    def beat(self) -> None:
        """Write one beacon now (also called by the background thread)."""
        if self._wedged():
            return
        atomic_write_json(self.path, {
            "worker": self.worker,
            "host": socket.gethostname(),
            "pid": os.getpid(),
            "time": time.time(),
            "interval_s": self.interval_s,
        })
        self._beats.inc()

    def start(self) -> "HeartbeatWriter":
        self.beat()
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name=f"heartbeat-{self.worker}")
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.beat()
            except OSError:
                # A partition: keep trying — the beacon going stale is
                # exactly how the fleet learns this worker is cut off.
                continue

    def stop(self, *, remove: bool = True) -> None:
        """Stop beating; by default withdraw the beacon entirely.

        A withdrawn beacon makes the worker immediately stealable, so a
        graceful shutdown hands its leases over without waiting out the
        staleness deadline.
        """
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if remove:
            self.path.unlink(missing_ok=True)

    def __enter__(self) -> "HeartbeatWriter":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def read_beacons(layout: StoreLayout) -> Dict[str, Dict]:
    """Every parseable beacon, by worker id."""
    beacons: Dict[str, Dict] = {}
    if not layout.heartbeats_dir.exists():
        return beacons
    for path in sorted(layout.heartbeats_dir.glob("*.json")):
        data = read_json(path)
        if data and isinstance(data.get("worker"), str):
            beacons[data["worker"]] = data
    return beacons


def live_workers(layout: StoreLayout, stale_after_s: float,
                 now: Optional[float] = None) -> Dict[str, Dict]:
    """Beacons fresh enough to count as alive."""
    now = time.time() if now is None else now
    return {
        worker: data
        for worker, data in read_beacons(layout).items()
        if now - float(data.get("time", 0.0)) <= stale_after_s
    }


def is_stale(layout: StoreLayout, worker: str, stale_after_s: float,
             lease_path: Optional[Path] = None,
             now: Optional[float] = None) -> bool:
    """Whether ``worker`` is presumed dead for lease-takeover purposes.

    A missing beacon falls back to the lease file's own mtime: a worker
    that died before its first beat must still become stealable, but a
    lease younger than the deadline is given the benefit of the doubt.
    """
    now = time.time() if now is None else now
    data = read_json(layout.heartbeats_dir / f"{worker}.json")
    if data is not None:
        return now - float(data.get("time", 0.0)) > stale_after_s
    if lease_path is not None:
        try:
            return now - lease_path.stat().st_mtime > stale_after_s
        except OSError:
            return False  # lease vanished: someone else already acted
    return True
