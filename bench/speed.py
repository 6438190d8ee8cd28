"""Host speed, sampled inside the measured processes.

On a shared host the same interpreter work runs up to about 1.7 times
slower while a neighbour loads the physical core under one of our vCPUs.
Each vCPU switches between fast and slow on its own, within a second,
and can stay slow for minutes, so neither the minimum nor the median of
a few runs' wall times is steady. A probe, a fixed piece of interpreter
work, is therefore timed from a ``SIGPROF`` handler every
:data:`PERIOD_S` of a process's CPU time, in the run process and in
every worker it forks. It samples the core the simulation runs on, while
it runs, at about 1% overhead.

A probe's speed is :data:`REFERENCE_S` divided by the time it took. Host
times are reported in reference seconds: measured seconds times the
mean probe speed over the same stretch, weighted across processes by
their CPU time. A reference second is a second at the speed at which the
probe takes :data:`REFERENCE_S`, about an uncontended core of an Intel
Xeon vCPU under CPython 3.11.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import statistics
import time
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["SpeedProbe", "PERIOD_S", "REFERENCE_S", "cpu_seconds",
           "weighted_speed"]

PERIOD_S = 0.01
REFERENCE_S = 1.2e-4


def _probe_work() -> int:
    table: Dict[int, int] = {}
    total = 0
    for i in range(1000):
        table[i & 255] = i
        total += table.get(i & 127, 0) * 3 % 7
    return total


def cpu_seconds(who: int = resource.RUSAGE_SELF) -> float:
    """User + system CPU seconds of this process (or its reaped children)."""
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def weighted_speed(parts: Sequence[Tuple[float, Optional[float]]]) -> float:
    """Mean speed of ``(cpu_s, mean speed or None)`` parts, weighted by
    CPU time; parts without a probe sample carry no weight."""
    sampled = [(cpu, speed) for cpu, speed in parts
               if speed is not None and cpu > 0]
    weight = sum(cpu for cpu, _ in sampled)
    if not weight:
        return 1.0
    return sum(cpu * speed for cpu, speed in sampled) / weight


def _dump(probe: "SpeedProbe", path: str) -> None:
    signal.setitimer(signal.ITIMER_PROF, 0, 0)
    with open(path, "w") as handle:
        json.dump({"cpu_s": cpu_seconds(), "speed": probe.mean_since(0)},
                  handle)


class SpeedProbe:
    """Times :func:`_probe_work` every :data:`PERIOD_S` of CPU time."""

    def __init__(self):
        self.speeds: List[float] = []
        self._worker_prefix: Optional[str] = None

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        _probe_work()
        self.speeds.append(REFERENCE_S / (time.perf_counter() - started))

    def mean_since(self, mark: int) -> Optional[float]:
        """Mean speed of the samples taken since ``len(speeds) == mark``."""
        recent = self.speeds[mark:]
        return statistics.fmean(recent) if recent else None

    def follow_forks(self, directory: str, stem: str) -> None:
        """Probe every worker forked from now on too; each writes its
        CPU time and mean speed to ``<directory>/<stem>.speed.<pid>.json``
        when it exits."""
        from multiprocessing import util
        self._worker_prefix = os.path.join(directory, f"{stem}.speed.")
        for stale in self._worker_files():  # left by a run that failed
            os.unlink(stale)
        util.register_after_fork(self, SpeedProbe._start_in_worker)

    def _worker_files(self) -> List[str]:
        directory, prefix = os.path.split(self._worker_prefix)
        return [os.path.join(directory, name)
                for name in sorted(os.listdir(directory))
                if name.startswith(prefix) and name.endswith(".json")]

    def worker_parts(self) -> List[Tuple[float, Optional[float]]]:
        """``(cpu_s, speed)`` of every worker that has exited; the files
        are removed once read."""
        parts = []
        for path in self._worker_files():
            with open(path) as handle:
                part = json.load(handle)
            os.unlink(path)
            parts.append((part["cpu_s"], part["speed"]))
        return parts

    def _start_in_worker(self) -> None:
        # Runs in the forked child: interval timers are not inherited,
        # the signal handler and this object's samples are.
        from multiprocessing import util
        self.speeds = []
        util.Finalize(None, _dump, args=(
            self, f"{self._worker_prefix}{os.getpid()}.json"),
            exitpriority=100)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
