"""Machine-speed sampling, so timings survive a host whose speed drifts.

On a shared host the same pass can take 30 s or 50 s: the virtual CPU
itself runs slower while neighbours are busy (the process is not
descheduled, so its CPU time stretches as much as its wall).  A pass
therefore samples the machine's speed while it runs.  Every
:data:`INTERVAL_S` a ``SIGALRM`` handler runs :func:`kernel`, a fixed
piece of interpreter work owned by the benchmark (it never changes with
the program), and records how many CPU seconds it took.  The speed at
that instant is ``KERNEL_REF_S / cpu_seconds``: 1.0 at the reference
speed, lower while the host is slower.

A region's *reference seconds* are its wall seconds times the mean
speed sampled inside it: the wall it would have taken at the reference
speed.  Time spent in the handler is kept out of every timed region by
:meth:`SpeedSampler.clock`.
"""

from __future__ import annotations

import heapq
import math
import signal
import statistics
import time
from typing import List, Optional, Tuple

#: Seconds between speed samples.
INTERVAL_S = 0.1

#: Loop rounds of one :func:`kernel` run (about 2 ms on the reference
#: host, so sampling costs about 2% of a pass, all kept out of its wall).
KERNEL_ROUNDS = 2000

#: CPU seconds of one :func:`kernel` run at the reference speed.  This
#: fixes the unit: on the reference host (2-vCPU Intel Xeon, Python 3.11)
#: the kernel took 1.5-2.7 ms inside timed passes, so reference seconds
#: read close to measured ones there.  Changing it rescales every figure.
KERNEL_REF_S = 0.002


class _Particle:
    __slots__ = ("x", "v")

    def __init__(self, x: float, v: float) -> None:
        self.x = x
        self.v = v


def kernel() -> float:
    """Fixed interpreter work in the style of the simulators.

    An event heap, a dict of counters, attribute updates on small
    objects and float math; returns a checksum so nothing is skipped.
    """
    heap: List[Tuple[float, int]] = []
    counts = {}
    particles = [_Particle(float(i), 1.0 / (i + 1)) for i in range(16)]
    acc = 0.0
    for i in range(KERNEL_ROUNDS):
        key = (i * 7919) % 97
        heapq.heappush(heap, (key * 0.5 + i * 1e-3, i))
        counts[key] = counts.get(key, 0) + 1
        p = particles[i & 15]
        p.x += p.v * 0.01
        if len(heap) > 32:
            when, j = heapq.heappop(heap)
            acc += when * 1.0001 + math.sqrt(j) + p.x
    return acc + len(counts)


def _cpu_time_of_kernel() -> float:
    started = time.thread_time()
    kernel()
    return time.thread_time() - started


class SpeedSampler:
    """Samples the machine's speed every :data:`INTERVAL_S` of wall time.

    Only one sampler can run per process (it owns ``SIGALRM``).  Forked
    children inherit the handler but not the timer, so they never sample.
    """

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        #: (perf_counter when the sample started, speed)
        self.samples: List[Tuple[float, float]] = []
        #: Wall seconds spent inside the handler so far.
        self.spent = 0.0
        self._previous = None
        self._sampling = False

    def start(self) -> None:
        started = time.perf_counter()
        _cpu_time_of_kernel()  # warm the kernel's code before timing it
        self.spent += time.perf_counter() - started
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _sample(self, signum: int = 0, frame: object = None) -> None:
        # A sample stalled past the next tick must not nest another one:
        # its time would be counted twice and the clock would run back.
        if self._sampling:
            return
        self._sampling = True
        try:
            started = time.perf_counter()
            cpu = _cpu_time_of_kernel()
            self.samples.append((started, KERNEL_REF_S / max(cpu, 1e-9)))
            self.spent += time.perf_counter() - started
        finally:
            self._sampling = False

    def clock(self) -> float:
        """``perf_counter`` minus the time spent sampling so far."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if self.spent == spent:
                return now - spent

    def speed(self, start: float, end: Optional[float] = None) -> float:
        """Mean sampled speed between two ``perf_counter`` instants.

        A window too short to hold a sample takes one on the spot.
        """
        end = time.perf_counter() if end is None else end
        inside = [s for t, s in self.samples if start <= t <= end]
        if not inside:
            self._sample()
            inside = [self.samples[-1][1]]
        return mean_speed(inside)


def mean_speed(speeds: List[float]) -> float:
    """Time-average speed of evenly spaced samples: their plain mean.

    Work done over a window is the integral of speed over it, so the
    wall at the reference speed is the wall times this mean.
    """
    return float(statistics.fmean(speeds))
