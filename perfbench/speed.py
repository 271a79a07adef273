"""Host speed, measured while a run works, to turn host seconds into reference seconds.

A shared host does not run at one speed: on a 2-core x86 VM the same
pure-Python loop took 1.0x to 2.1x its best time, in phases lasting from a
few seconds to half a minute, so a run's host time says as much about the
neighbours as about the program.  The benchmark therefore times a fixed
probe, a small Dijkstra over a weighted grid written here and sharing no
code with the program, every :data:`PROBE_EVERY_S` seconds of work, and
scales the host time of the work between two probes by how fast the probe
ran there::

    reference seconds = host seconds * REFERENCE_PROBE_S / probe seconds

so the timed metrics read as on a host where the probe takes
:data:`REFERENCE_PROBE_S`.  The probe runs between the timed steps, never
inside one.  A program that gets faster needs fewer reference seconds; a
host phase that slows program and probe alike drops out.
"""

from __future__ import annotations

import heapq
import os
import time
from typing import List, Optional, Sequence, Tuple

#: the probe's time on a quiet 2-core x86 host, in seconds
REFERENCE_PROBE_S = 0.0025
#: host seconds of work between probes
PROBE_EVERY_S = 0.2
#: grid side of the probe's Dijkstra
_GRID = 36


def _dijkstra() -> int:
    """The probe's fixed work: shortest distances over a weighted grid.

    Dict lookups, tuples and a binary heap, like the planner's searches.
    Against a fixed planning job (12 queries planned and rolled back on a
    loaded W-2 planner) over two minutes of changing host speed, this
    probe's time scaled with slope 0.95 (log on log); a plain integer loop
    scaled with 1.29, so it left most of a slow phase in the numbers.
    """
    n = _GRID
    dist = {(0, 0): 0}
    heap = [(0, 0, 0)]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        d, r, c = pop(heap)
        if d > dist[(r, c)]:
            continue
        for nr, nc in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
            if 0 <= nr < n and 0 <= nc < n:
                nd = d + 1 + (nr * 7 + nc * 13) % 5
                if nd < dist.get((nr, nc), 1 << 30):
                    dist[(nr, nc)] = nd
                    push(heap, (nd, nr, nc))
    return dist[(n - 1, n - 1)]


def probe_once() -> float:
    """Host seconds the probe takes now: the faster of two runs."""
    best = float("inf")
    for _ in range(2):
        started = time.perf_counter()
        _dijkstra()
        best = min(best, time.perf_counter() - started)
    return best


def probe_speed(cpus: Optional[Sequence[int]] = None) -> float:
    """Host speed now, as reference seconds per host second.

    With ``cpus`` the probe runs once on each of them in turn and the
    speeds are averaged: a service's server and shard workers run on
    whichever CPU is free, so the client measures them all.
    """
    if not cpus:
        return REFERENCE_PROBE_S / probe_once()
    home = os.sched_getaffinity(0)
    speeds = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            speeds.append(REFERENCE_PROBE_S / probe_once())
    finally:
        os.sched_setaffinity(0, home)
    return sum(speeds) / len(speeds)


def all_cpus() -> List[int]:
    return sorted(os.sched_getaffinity(0))


class SpeedTrack:
    """Host-speed probes taken between the timed steps of one pass.

    The work calls :meth:`tick` after every step; every
    :data:`PROBE_EVERY_S` host seconds it probes.  The steps between two
    probes are scaled by the mean speed of those two probes.
    """

    def __init__(self, cpus: Optional[Sequence[int]] = None) -> None:
        self.cpus = cpus
        #: ``(steps before the probe, latencies before the probe, speed)``
        self.probes: List[Tuple[int, int, float]] = [(0, 0, probe_speed(cpus))]
        self._due = time.perf_counter() + PROBE_EVERY_S

    def tick(self, n_steps: int, n_latencies: int, force: bool = False) -> None:
        if force or time.perf_counter() >= self._due:
            self.probes.append((n_steps, n_latencies, probe_speed(self.cpus)))
            self._due = time.perf_counter() + PROBE_EVERY_S

    def scale(self, values: Sequence[float], which: int) -> List[float]:
        """``values`` (steps: ``which=0``, latencies: ``which=1``) in reference seconds."""
        out: List[float] = []
        for before, after in zip(self.probes, self.probes[1:]):
            speed = (before[2] + after[2]) / 2
            out.extend(v * speed for v in values[before[which]:after[which]])
        if len(out) != len(values):
            raise ValueError(f"{len(values) - len(out)} values after the last probe")
        return out

