"""Speed probe: a fixed pure-Python job that runs beside every timed child,
on the same CPU, at low priority.

The machine this benchmark was built on shares its cores with other
tenants.  Each vCPU's speed drifts by up to 2x within seconds and by +-15%
between runs a minute apart, and the two vCPUs drift independently, so
medians within a run cannot remove it and a probe run before or after a
child (in or out of process) tracked the child's speed poorly (correlation
0.4 to 0.6).  This probe instead shares the child's CPU: at nice 10 it gets
about a tenth of that CPU, in slices a few milliseconds apart, and counts
the units of fixed work it completes per second of its own CPU time.  The
benchmark scales a time measured between two readings of that count by
``speed / REFERENCE_UNITS_PER_S``; children read it around each phase they
time.  At nice 19 (1.5% of the CPU) the probe often got no slice at all
during a 0.2-second phase.

The unit does what the program does (breadth-first search with dict
visited sets over adjacency lists, parsing of edge-list text, building and
sorting lists of tuples, heap operations) on a small fixed input, and
imports nothing from the program, so a change to the program never changes
the probe.  Without the sorting and heap work it corrected the parse- and
allocation-heavy scale-d1 workload much less (within-run spread of the
solve time 8% against 4%).

Usage: python3 perfbench/probe.py STATE_FILE CPU
The probe writes (units done, its CPU seconds) to STATE_FILE after every
unit and runs until it is terminated.
"""

from __future__ import annotations

import heapq
import mmap
import os
import random
import struct
import sys
import time
from collections import deque

STATE = struct.Struct("dd")
NICE = 10
# Least probe CPU time over which a speed is taken.
MIN_CPU_S = 0.001

# Units per CPU-second of the probe under a busy child, median over quiet
# periods on the 2-vCPU Intel Xeon VM (Python 3.11) the benchmark was
# built on.  Scaled times are seconds at that speed.
REFERENCE_UNITS_PER_S = 6000.0

NODES = 60
EDGES = 180
ITEMS = 200


def make_unit():
    rng = random.Random(0)
    adj: list[list[int]] = [[] for _ in range(NODES)]
    for _ in range(EDGES):
        a, b = rng.randrange(NODES), rng.randrange(NODES)
        if a != b:
            adj[a].append(b)
            adj[b].append(a)
    lines = [f"c{rng.randrange(NODES)}\tc{rng.randrange(NODES)}\t{rng.random()!r}"
             for _ in range(20)]
    keys = [rng.random() for _ in range(ITEMS)]

    def unit() -> int:
        dist = {0: 0}
        queue = deque([0])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        index: dict[str, int] = {}
        for line in lines:
            a, b, w = line.split()
            float(w)
            index.setdefault(a, len(index))
            index.setdefault(b, len(index))
        items = sorted([(k, i) for i, k in enumerate(keys)], reverse=True)
        heap = items[: ITEMS // 2]
        heapq.heapify(heap)
        for item in items[ITEMS // 2:]:
            heapq.heappushpop(heap, item)
        return len(dist) + len(index) + len(heap)

    return unit


class Reader:
    """Read access to the probe's state file."""

    def __init__(self, path):
        self.fh = open(path, "rb")
        self.mm = mmap.mmap(self.fh.fileno(), STATE.size, access=mmap.ACCESS_READ)

    def read(self) -> tuple[float, float]:
        """(units, CPU seconds), read until two reads agree so that a write
        in progress is never returned."""
        last = STATE.unpack(self.mm[:STATE.size])
        while True:
            now = STATE.unpack(self.mm[:STATE.size])
            if now == last:
                return now
            last = now

    def close(self) -> None:
        self.mm.close()
        self.fh.close()


def speed(before: tuple[float, float], after: tuple[float, float]) -> float | None:
    """Units per probe CPU-second between two readings, or None when the
    probe got too little CPU time in between."""
    cpu = after[1] - before[1]
    return (after[0] - before[0]) / cpu if cpu >= MIN_CPU_S else None


def serve(path: str, cpu: int) -> None:
    os.nice(NICE)
    os.sched_setaffinity(0, {cpu})
    unit = make_unit()
    with open(path, "r+b") as fh:
        mm = mmap.mmap(fh.fileno(), STATE.size)
    units = 0
    while True:
        unit()
        units += 1
        mm[:STATE.size] = STATE.pack(units, time.process_time())


if __name__ == "__main__":
    serve(sys.argv[1], int(sys.argv[2]))
