"""Parallel experiment executor.

The figure harnesses are embarrassingly parallel: every cell of a sweep
(and every replica of a repeated run) is an independent simulation with
its own seed. This module fans those cells out over a
:class:`~concurrent.futures.ProcessPoolExecutor` while keeping the results
**bit-identical** to a serial run:

- Seeds are assigned up front by *replica index* (``base_seed + 1000 *
  index``, :func:`replica_seeds`), never by completion order.
- Results are returned ordered by task index, regardless of which worker
  finished first.
- Each simulation builds its own :class:`~repro.sim.RandomStreams` from its
  seed, so there is no shared mutable state between workers.

The pool degrades gracefully to in-process execution when ``max_workers``
is 1, when the callables are not picklable (e.g. closures), or when worker
processes cannot be spawned at all — sandboxes and test environments
routinely forbid ``fork``. Either path yields the same values in the same
order; only the wall-clock differs.
"""

from __future__ import annotations

import logging
import math
import os
import pickle
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..sim import kernel
from ..sim.accounting import layer_counts
from ..sim.flags import resolve

__all__ = [
    "TaskResult",
    "absorb_worker_counts",
    "available_cpus",
    "counter_mark",
    "counters_since",
    "default_workers",
    "pool_degradations",
    "replica_seeds",
    "run_tasks",
    "run_sweep",
    "total_events_consumed",
    "total_layer_counts",
]

_LOG = logging.getLogger("repro.parallel")

#: One (fn, args, kwargs) call description.
Call = Tuple[Callable[..., Any], Tuple, Dict[str, Any]]

#: Kernel events consumed inside pool workers on behalf of this process
#: (worker processes count their own events; the deltas are shipped back
#: in each TaskResult and accumulated here so
#: :func:`total_events_consumed` covers both execution paths).
_POOL_EVENTS = [0]

#: Per-layer event counts accumulated from pool workers (same pattern as
#: :data:`_POOL_EVENTS`: workers tally locally, deltas ship back in each
#: TaskResult).
_POOL_LAYERS: Dict[str, int] = {}

#: Unique reasons the process pool degraded to serial execution in this
#: process, in first-occurrence order. A silent fallback made bench
#: records unattributable — the same figure could be timed with or
#: without a pool and nothing said which — so each cause is logged once
#: and recorded here for the :class:`~repro.obs.manifest.RunManifest`.
_DEGRADATIONS: List[str] = []


def pool_degradations() -> List[str]:
    """Why (if at all) pooled execution fell back to serial here."""
    return list(_DEGRADATIONS)


def _note_degradation(cause: BaseException) -> None:
    reason = f"{type(cause).__name__}: {cause}".strip().rstrip(":")
    if reason not in _DEGRADATIONS:
        _DEGRADATIONS.append(reason)
        _LOG.warning(
            "process pool unavailable; running tasks in-process (%s)",
            reason)


@dataclass(frozen=True)
class TaskResult:
    """One task's value plus its execution telemetry."""

    index: int
    value: Any
    wall_s: float
    sim_events: int
    #: Per-layer share of ``sim_events`` (edge/network/serverless), from
    #: :mod:`repro.sim.accounting`; events outside any tagged layer are
    #: the difference from ``sim_events``.
    layer_events: Optional[Dict[str, int]] = None
    #: Causal spans recorded during this task (``repro.obs``); None when
    #: tracing is off. Pool workers ship their spans back here and the
    #: coordinator re-absorbs them under this task's replica index.
    spans: Optional[Tuple] = None


def replica_seeds(repeats: int, base_seed: int = 0) -> List[int]:
    """The deterministic seed fan-out: ``base_seed + 1000 * index``."""
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    return [base_seed + 1000 * index for index in range(repeats)]


def default_workers() -> int:
    """Worker count: ``REPRO_MAX_WORKERS`` env var, else the cores this
    process may actually use.

    Containerized CI typically grants far fewer cores than the host
    exposes: a cgroup CPU quota (``cpu.max``) and/or a restricted
    affinity mask. Sizing the pool from raw ``os.cpu_count()`` there
    oversubscribes the workers — every shard/replica time-slices instead
    of running in parallel — so the effective limit is
    ``min(affinity mask, ceil(cgroup quota))``.
    """
    configured = resolve("REPRO_MAX_WORKERS")
    if configured is not None:
        return configured
    return available_cpus()


def available_cpus() -> int:
    """CPUs this process can schedule on: affinity mask capped by any
    cgroup CPU quota (v2 ``cpu.max``, v1 ``cfs_quota_us``)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # non-Linux / restricted
        cpus = os.cpu_count() or 1
    quota = _cgroup_cpu_quota()
    if quota is not None:
        cpus = min(cpus, quota)
    return max(1, cpus)


def _cgroup_cpu_quota() -> Optional[int]:
    """Whole-CPU ceiling from the cgroup CPU controller, if any."""
    try:  # cgroup v2: "max 100000" or "<quota_us> <period_us>"
        with open("/sys/fs/cgroup/cpu.max") as handle:
            quota_us, period_us = handle.read().split()[:2]
        if quota_us != "max" and int(period_us) > 0:
            return max(1, math.ceil(int(quota_us) / int(period_us)))
        return None
    except (OSError, ValueError, IndexError):
        pass
    try:  # cgroup v1 pair
        with open("/sys/fs/cgroup/cpu/cpu.cfs_quota_us") as handle:
            quota_us = int(handle.read())
        with open("/sys/fs/cgroup/cpu/cpu.cfs_period_us") as handle:
            period_us = int(handle.read())
        if quota_us > 0 and period_us > 0:
            return max(1, math.ceil(quota_us / period_us))
    except (OSError, ValueError):
        pass
    return None


def total_events_consumed() -> int:
    """Kernel events dispatched in this process *and* in pool workers."""
    return kernel.events_consumed() + _POOL_EVENTS[0]


def total_layer_counts() -> Dict[str, int]:
    """Per-layer event counts for this process *and* pool workers."""
    counts = layer_counts()
    for layer, n in _POOL_LAYERS.items():
        counts[layer] = counts.get(layer, 0) + n
    return counts


def counter_mark() -> Tuple[int, Dict[str, int], int]:
    """Snapshot this process's kernel events, layer counts and span
    count, for :func:`counters_since`."""
    tracer = obs.active_tracer()
    return (kernel.events_consumed(), layer_counts(),
            len(tracer) if tracer is not None else 0)


def counters_since(mark: Tuple[int, Dict[str, int], int]
                   ) -> Tuple[int, Dict[str, int], Optional[Tuple]]:
    """Kernel-event, per-layer and span deltas since ``mark``.

    This is what a worker process ships back: pool tasks in their
    :class:`TaskResult`, shard workers with their ``finish`` reply
    (:func:`repro.sim.supervisor.serve`). The spans are drained from
    this process's tracer so they are recorded exactly once; they are
    None when tracing is off.
    """
    events_before, layers_before, spans_before = mark
    layers_after = layer_counts()
    tracer = obs.active_tracer()
    return (kernel.events_consumed() - events_before,
            {layer: layers_after[layer] - layers_before[layer]
             for layer in layers_after},
            tuple(tracer.take_from(spans_before))
            if tracer is not None else None)


def _credit(sim_events: int, layer_events: Dict[str, int]) -> None:
    _POOL_EVENTS[0] += int(sim_events)
    for layer, n in layer_events.items():
        _POOL_LAYERS[layer] = _POOL_LAYERS.get(layer, 0) + n


def absorb_worker_counts(counters: Optional[Tuple], replica: int = 0
                         ) -> None:
    """Credit the :func:`counters_since` deltas of an external worker.

    The shard runtime (:mod:`repro.sim.shard`) drives its own worker
    processes outside the task pool; each ships its deltas back with its
    ``finish`` reply and the driver credits them here, so
    ``total_events_consumed`` / ``total_layer_counts`` keep covering
    every execution path, and the spans join this process's tracer
    under ``replica``. ``None`` (a worker that ran in-process, whose
    events are already counted here) credits nothing.
    """
    if counters is None:
        return
    sim_events, layer_events, spans = counters
    _credit(sim_events, layer_events)
    tracer = obs.active_tracer()
    if spans and tracer is not None:
        tracer.absorb(spans, replica=replica)


def _timed_call(task: Tuple[int, Callable, Tuple, Dict]) -> TaskResult:
    index, fn, args, kwargs = task
    mark = counter_mark()
    profiler = _task_profiler()
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    wall_s = time.perf_counter() - start
    if profiler is not None:
        profiler.disable()
        profiler.dump_stats(
            f"{resolve('REPRO_PROFILE_OUT')}.r{index}")
    # Draining this task's span delta lets the coordinator re-absorb it
    # under the task's replica index (and keeps the serial fallback
    # from double-recording).
    sim_events, layer_events, spans = counters_since(mark)
    return TaskResult(index=index, value=value, wall_s=wall_s,
                      sim_events=sim_events, layer_events=layer_events,
                      spans=spans)


def _task_profiler():
    """Per-task cProfile, armed by ``REPRO_PROFILE_OUT``.

    Each task dumps to ``<path>.r<index>``, so parallel replicas never
    clobber one profile file. Returns None when profiling is off or when
    another profiler is already active in this process (the main-process
    ``--profile`` run owns the slot there)."""
    if not resolve("REPRO_PROFILE_OUT"):
        return None
    import cProfile
    profiler = cProfile.Profile()
    try:
        profiler.enable()
    except ValueError:
        return None  # a profiler is already running in this process
    return profiler


def _try_pool(tasks: List[Tuple[int, Callable, Tuple, Dict]],
              workers: int) -> Optional[List[TaskResult]]:
    """Run the tasks in a process pool; None if the pool is unusable."""
    try:
        pickle.dumps(tasks)
    except Exception:
        return None  # closures/lambdas: run in-process instead
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # pool.map preserves input order, so results come back sorted
            # by task index no matter the completion order.
            results = list(pool.map(_timed_call, tasks))
    except (OSError, BrokenExecutor) as error:
        _note_degradation(error)  # no fork/spawn available here
        return None
    for result in results:
        _credit(result.sim_events, result.layer_events)
    return results


def run_tasks(calls: Sequence[Call],
              max_workers: Optional[int] = None) -> List[TaskResult]:
    """Execute ``calls`` and return their results ordered by index.

    ``calls`` is a sequence of ``(fn, args, kwargs)``. With ``max_workers``
    greater than 1 (default: :func:`default_workers`) and picklable calls,
    execution fans out over a process pool; otherwise the calls run
    in-process, in order. Both paths return identical values.
    """
    tasks = [(index, fn, tuple(args), dict(kwargs or {}))
             for index, (fn, args, kwargs) in enumerate(calls)]
    if not tasks:
        return []
    workers = default_workers() if max_workers is None else max_workers
    if workers < 1:
        raise ValueError("max_workers must be at least 1")
    workers = min(workers, len(tasks))
    results = None
    if workers > 1:
        results = _try_pool(tasks, workers)
    if results is None:
        results = [_timed_call(task) for task in tasks]
    tracer = obs.active_tracer()
    if tracer is not None:
        # Merge every task's span delta (pool or serial path alike) into
        # the coordinator's tracer under its replica index.
        for result in results:
            if result.spans:
                tracer.absorb(result.spans, replica=result.index)
    return results


def run_sweep(fn: Callable[..., Any], cells: Sequence[Sequence[Any]],
              max_workers: Optional[int] = None) -> List[TaskResult]:
    """Run ``fn(*cell)`` for every cell, results in cell order."""
    return run_tasks([(fn, tuple(cell), {}) for cell in cells],
                     max_workers=max_workers)
