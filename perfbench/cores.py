"""Keep the timed process on the currently faster vCPU.

On a shared two-vCPU VM each vCPU flips every few seconds between a fast
state and one about 1.7x slower (another tenant on the same physical
core), independently of the other.  A single-threaded program left where
the scheduler put it measures that flip, not itself.  ``FastCore`` runs a
short interpreter-bound probe on each allowed vCPU and pins this process
(and so the children it starts next) to the faster one.  It only changes
this process's own affinity; with one vCPU it does nothing.
"""

from __future__ import annotations

import os
import time

REPICK_S = 0.25


def _probe() -> float:
    t0 = time.perf_counter()
    sum(i * i for i in range(20_000))
    return time.perf_counter() - t0


class FastCore:
    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self._last = -REPICK_S
        self.probe_s: list[float] = []  # the chosen vCPU's probe time at each pick

    def pick(self) -> None:
        """Re-pin to the faster vCPU, at most once every REPICK_S seconds."""
        if len(self.cpus) < 2 or time.perf_counter() - self._last < REPICK_S:
            return
        speed = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = min(_probe(), _probe())
        best = min(speed, key=speed.get)
        os.sched_setaffinity(0, {best})
        self.probe_s.append(speed[best])
        self._last = time.perf_counter()

    def release(self) -> None:
        """Allow every vCPU again, e.g. before starting a child that picks itself."""
        os.sched_setaffinity(0, set(self.cpus))
        self._last = -REPICK_S
