"""Host-speed reference: a fixed kernel timed between the program's ops.

The machines this benchmark runs on are shared, and a neighbour's load
slows pure-Python code by up to 1.7x for minutes at a time; longer runs
or more replicas do not average that out.  Timing a fixed kernel every
quarter second of a run measures how fast the host is running right
then, and the run divides its times by ``factor`` (the kernel's median
time over its nominal time).  The kernel is the benchmark's own code
and never calls the program, so a change to the program moves the
normalised times exactly as much as the raw ones.

The host's slow stretches do not slow every kind of work alike, so the
kernel has three parts of about equal time, each like a part of the
program's work: an interpreter-bound loop over many short byte strings
(the residue scan's walk over every device block), a substring search
through 8 MiB of 4 KiB blocks (the scan's search in written blocks),
and a random walk through a 1M-entry list (record and membrane lookups
in a heap larger than the processor caches).  None of it allocates
objects the garbage collector tracks: a kernel that did was slowed by
the program's heap, not only by the host.
"""

from __future__ import annotations

import statistics
import time
from random import Random
from typing import List

#: Typical kernel time on the 2-core Xeon (2.1 GHz, KVM guest) the
#: benchmark was written on: its median over runs there was 10-12 ms.
NOMINAL_MS = 10.0
#: Seconds of a timed phase between two kernel samples.
EVERY_S = 0.25

_NEEDLE = b"\x00\x01\x02 not in any block"
_SHORT = [bytes([i % 251]) * 48 for i in range(256)] * 24
_BLOCKS = [Random(5 + i).randbytes(4096) for i in range(2048)]
_WALK = list(range(1 << 20))
Random(7).shuffle(_WALK)
_STEPS = 20000


def kernel() -> int:
    """One fixed unit of work; returns a value so nothing is elided."""
    short = [i for i, block in enumerate(_SHORT) if _NEEDLE in block]
    long = [i for i, block in enumerate(_BLOCKS) if _NEEDLE in block]
    position = 0
    for _ in range(_STEPS):
        position = _WALK[position]
    return len(short) + len(long) + position


class HostSpeed:
    """Kernel samples of one run and the speed factor they give."""

    def __init__(self) -> None:
        self.samples_ns: List[int] = []

    def sample(self) -> int:
        """Time the kernel once; returns the nanoseconds it took."""
        start = time.perf_counter_ns()
        kernel()
        elapsed = time.perf_counter_ns() - start
        self.samples_ns.append(elapsed)
        return elapsed

    @property
    def reference_ms(self) -> float:
        return statistics.median(self.samples_ns) / 1e6

    @property
    def factor(self) -> float:
        """How much slower than nominal the host ran (1.0 = nominal)."""
        return self.reference_ms / NOMINAL_MS
