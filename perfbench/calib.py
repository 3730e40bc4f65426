"""Timings scaled to a fixed reference speed of the CPU they ran on.

On a shared host, other tenants slow a vCPU by up to about 1.7x for
seconds at a time, and over minutes that drift moves a 20-second run's
wall-clock rate by a quarter or more.  So the benchmark runs the server
and the load generator on one CPU (:meth:`Calibration.pin`; in a closed
loop only one of them runs at a time), and between requests the load
generator times a fixed pure-Python loop, :meth:`Calibration.reference`,
every :data:`EVERY` seconds (:meth:`Calibration.tick`).  The loop reads
a buffer larger than a core's L2 cache at random, as the server's
interpreter work on its own heap does, so it feels both the CPU and the
shared cache that other tenants contend for.  A timing is scaled by
``REF_SECONDS / r``, where ``r`` is the median reference time within
:data:`WINDOW` seconds of it (:meth:`Calibration.scaled`): it reads as
the time the same work takes on a CPU that runs the reference loop in
:data:`REF_SECONDS`.  The loop uses no code of the repository, so a
change to the program cannot move the scale.
"""

from __future__ import annotations

import bisect
import os
import statistics
import time

#: Nominal time of one :meth:`Calibration.reference` call: a scaled
#: timing is the wall time on a CPU that runs the loop this fast.
REF_SECONDS = 0.001
#: Seconds between reference timings (about 1% of a run).
EVERY = 0.1
#: A timing is scaled by the references taken within this many seconds
#: of its start and end.
WINDOW = 0.5
#: Size of the buffer the reference loop reads (a power of two, above
#: the 2 MiB per-core L2 cache of the machine it was tuned on).
BUFFER_BYTES = 1 << 25
#: Reads per reference loop.
READS = 2500


class Calibration:
    """Reference timings of one run, on the ``time.perf_counter`` clock
    (shared by every process on Linux)."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.seconds: list[float] = []
        self._allowed = None
        # Written in full, so every page is backed by its own memory.
        self._buffer = bytes(range(256)) * (BUFFER_BYTES // 256)
        self._position = 1

    def reference(self) -> int:
        """Fixed interpreter work: :data:`READS` reads of the buffer at
        positions from a linear congruential sequence, which goes on
        from call to call so that no call finds its lines in cache."""
        buffer, x, mask = self._buffer, self._position, BUFFER_BYTES - 1
        acc = 0
        for _ in range(READS):
            x = (x * 1103515245 + 12345) & mask
            acc += buffer[x]
        self._position = x
        return acc

    def pin(self):
        """Run this process and the children it starts from now on on
        one CPU; return that CPU (``None`` where affinity cannot be
        set).  :meth:`unpin` restores the CPU set."""
        if not hasattr(os, "sched_setaffinity"):
            return None
        self._allowed = os.sched_getaffinity(0)
        cpu = max(self._allowed)
        os.sched_setaffinity(0, {cpu})
        return cpu

    def unpin(self) -> None:
        if self._allowed is not None:
            os.sched_setaffinity(0, self._allowed)
            self._allowed = None

    def due(self) -> bool:
        """Whether the last reference timing is :data:`EVERY` seconds old."""
        return not self.at or time.perf_counter() - self.at[-1] >= EVERY

    def tick(self) -> None:
        """Time :func:`reference`.  Call it only while the server is
        idle, so the loop has the CPU to itself."""
        now = time.perf_counter()
        self.reference()
        self.at.append(now)
        self.seconds.append(time.perf_counter() - now)

    def factor(self, start: float, end: float) -> float:
        """``REF_SECONDS`` over the median reference time around
        ``[start, end]`` (the nearest one when none is that close)."""
        if not self.at:
            raise ValueError("no reference timings")
        lo = bisect.bisect_left(self.at, start - WINDOW)
        hi = bisect.bisect_right(self.at, end + WINDOW)
        if hi > lo:
            ref = statistics.median(self.seconds[lo:hi])
        else:
            i = min(lo, len(self.at) - 1)
            if i > 0 and start - self.at[i - 1] < self.at[i] - end:
                i -= 1
            ref = self.seconds[i]
        return REF_SECONDS / ref

    def scaled(self, start: float, seconds: float) -> float:
        """``seconds`` of work begun at ``start``, at reference speed."""
        return seconds * self.factor(start, start + seconds)
