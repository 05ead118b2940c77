"""Host speed probe: report wall-clock durations at a reference CPU speed.

The benchmark runs on a few virtual CPUs of a shared host, and the speed
of those CPUs moves with the host's other load.  On a 2-vCPU virtual
machine a fixed pure-Python loop took anywhere from 38 to 72 ms within
20 s, its CPU time moving with its wall time (so the CPU is slower, not
taken away), and the wire benchmark's sub-millisecond latencies moved
by a factor of two between runs of the same code.

So the generator times a fixed pure-Python loop (:func:`_probe_work`)
by its own thread's CPU time every :data:`PROBE_EVERY_S` seconds of a
run: between requests, and while it waits for a stalled request or a
starting server, but never where a probe could delay a prompt answer
or a due send.  A
duration measured between ``t0`` and ``t1`` is reported multiplied by
``REFERENCE_PROBE_S / p``, where ``p`` is the median probe time around
that interval: the duration the same work would take on a CPU that runs
the probe in :data:`REFERENCE_PROBE_S`.  The probe counts its own
thread's CPU time, so a program that keeps the shared CPU busy makes
the measured durations longer without making the probe slower.
"""

from __future__ import annotations

import bisect
import statistics
import time

__all__ = ["PROBE_EVERY_S", "REFERENCE_PROBE_S", "SpeedProbe"]

#: Seconds between probes.
PROBE_EVERY_S = 0.2
#: Probe CPU time the reported durations are scaled to (about what the
#: probe takes on a quiet 2-vCPU virtual machine).
REFERENCE_PROBE_S = 0.001
#: An interval is scaled by its own probes and this many on each side.
_NEAREST = 2
#: Iterations of the probe loop (about 1 ms of CPU time).
_ROUNDS = 120


def _probe_work() -> int:
    """A fixed mix of the interpreter work the program does: calls, dict and
    list traffic, tuple keys and sorting."""
    table: dict[tuple[int, int], int] = {}
    total = 0
    for i in range(_ROUNDS):
        row = [(i * 7 + j) % 97 for j in range(24)]
        for j, value in enumerate(row):
            key = (value, j & 3)
            table[key] = table.get(key, 0) + value
        total += max(row) + len(table) + sorted(row)[12]
    return total


class SpeedProbe:
    """Probe times of one run, and the scale factors they give."""

    def __init__(self) -> None:
        self._at: list[float] = []
        self._cpu_s: list[float] = []

    def probe(self) -> None:
        """Time one probe now."""
        began = time.thread_time()
        _probe_work()
        self._cpu_s.append(time.thread_time() - began)
        self._at.append(time.perf_counter())

    def due(self, now: float) -> bool:
        """Whether the last probe is at least :data:`PROBE_EVERY_S` old at *now*."""
        return not self._at or now - self._at[-1] >= PROBE_EVERY_S

    def maybe_probe(self) -> None:
        """Probe if one is :meth:`due`."""
        if self.due(time.perf_counter()):
            self.probe()

    @property
    def count(self) -> int:
        """Probes taken so far."""
        return len(self._at)

    def probe_s(self, start: float, end: float) -> float:
        """Median probe time in ``[start, end]`` plus the nearest probes on each side."""
        if not self._at:
            raise RuntimeError("no speed probe was taken")
        first = max(0, bisect.bisect_left(self._at, start) - _NEAREST)
        last = bisect.bisect_right(self._at, end) + _NEAREST
        return statistics.median(self._cpu_s[first:last])

    def factor(self, start: float, end: float) -> float:
        """Scale factor to the reference speed for work done in ``[start, end]``."""
        return REFERENCE_PROBE_S / self.probe_s(start, end)

    def scaled(self, start: float, end: float) -> float:
        """``end - start`` seconds at the reference speed."""
        return (end - start) * self.factor(start, end)
