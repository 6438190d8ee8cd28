"""Runtime fast-path kill switches.

Each big event-count or stepping optimisation ships with a fallback flag
so a regression can be bisected to the model, not the optimisation:

- ``REPRO_VECTOR_EDGE=0`` — legacy per-device flight/heartbeat processes
  instead of the vectorized :class:`~repro.edge.SwarmEngine` (resolved in
  :class:`~repro.platforms.scenario_runner.ScenarioRunner`).
- ``REPRO_ANALYTIC_NET=0`` — legacy ``Resource``-based FIFO queueing in
  the network, serverless, and on-device service layers instead of the
  analytic virtual-clock models (resolved here).
- ``REPRO_FAST_DISPATCH=0`` — the legacy step-at-a-time event loop in
  :meth:`~repro.sim.Environment.run` instead of the inlined monomorphic
  dispatch loop (resolved here).
- ``REPRO_BATCHED_RNG=0`` — plain scalar ``numpy`` generators instead of
  the block-refilled :class:`~repro.sim.rng.BufferedStream` draw-ahead
  wrappers (resolved here).

All default to **on**; an explicit constructor argument always wins over
the environment.

The scale-out knobs (``REPRO_SHARDS``, ``REPRO_CLOUD_SHARDS``,
``REPRO_MEANFIELD``, ``REPRO_HYBRID_EXACT``) invert the convention:
they default to **off**, so unarmed runs stay byte-identical to the
seed, and arming them opts into the sharded/aggregate runtimes of
:mod:`repro.sim.shard` and :mod:`repro.edge.meanfield`.

The supervision knobs (``REPRO_WORKER_DEADLINE``,
``REPRO_WORKER_RETRIES``, ``REPRO_CHAOS_WORKERS``) tune the worker
watchdog of :mod:`repro.sim.supervisor`; only the chaos spec changes
behaviour when armed (it injects real process faults), and it too
defaults to off.

The serving knobs follow the scale-out convention: ``REPRO_SERVING``
defaults to **off** (empty — no background load, unarmed runs
byte-identical to the seed) and a non-empty spec arms the open-loop
load generator of :mod:`repro.serving`; the sub-switches
``REPRO_SERVING_ADMISSION`` / ``REPRO_SERVING_AUTOSCALE`` default to
**on within an armed serving run** and independently disarm each
reactive policy.
"""

from __future__ import annotations

import os
from typing import Optional

__all__ = [
    "analytic_net_enabled",
    "fast_dispatch_enabled",
    "batched_rng_enabled",
    "shard_count",
    "cloud_shard_count",
    "hybrid_exact_devices",
    "shard_window",
    "meanfield_enabled",
    "worker_deadline",
    "worker_retries",
    "chaos_workers",
    "serving_spec",
    "serving_admission_enabled",
    "serving_autoscale_enabled",
]


def _enabled(variable: str, override: Optional[bool]) -> bool:
    if override is not None:
        return bool(override)
    return os.environ.get(variable, "1") != "0"


def analytic_net_enabled(override: Optional[bool] = None) -> bool:
    """Resolve the analytic-queueing flag.

    ``override`` (a constructor/runner argument) wins when given;
    otherwise ``REPRO_ANALYTIC_NET=0`` disables the fast path and any
    other value (or no variable) enables it.
    """
    return _enabled("REPRO_ANALYTIC_NET", override)


def fast_dispatch_enabled(override: Optional[bool] = None) -> bool:
    """Resolve the kernel dispatch-loop flag (``REPRO_FAST_DISPATCH``)."""
    return _enabled("REPRO_FAST_DISPATCH", override)


def batched_rng_enabled(override: Optional[bool] = None) -> bool:
    """Resolve the RNG draw-ahead flag (``REPRO_BATCHED_RNG``)."""
    return _enabled("REPRO_BATCHED_RNG", override)


def _count(variable: str, override: Optional[int], default: int,
           minimum: int, rule: str) -> int:
    """Resolve an integer knob: an explicit argument wins, then the
    environment variable, then ``default``. A value below ``minimum``
    raises the same ``ValueError`` from either source; the environment
    path names the variable."""
    if override is not None:
        value, source = int(override), ""
    else:
        configured = os.environ.get(variable, "")
        if not configured:
            return default
        value, source = int(configured), f"{variable}={configured}: "
    if value < minimum:
        raise ValueError(f"{source}{rule}")
    return value


def _positive(variable: str, override: Optional[float],
              rule: str) -> Optional[float]:
    """Resolve an optional positive duration like :func:`_count`;
    ``None`` when neither source sets it."""
    if override is not None:
        value, source = float(override), ""
    else:
        configured = os.environ.get(variable, "")
        if not configured:
            return None
        value, source = float(configured), f"{variable}={configured}: "
    if value <= 0:
        raise ValueError(f"{source}{rule}")
    return value


def shard_count(override: Optional[int] = None) -> int:
    """Resolve the intra-run shard count (``REPRO_SHARDS``).

    Unlike the boolean fast paths this one defaults to **off** (1 shard
    = the unsharded single-process runner, byte-identical to the seed);
    ``REPRO_SHARDS=N`` or an explicit ``--shards N`` arms the sharded
    cell-decomposed runtime of :mod:`repro.sim.shard`.
    """
    return _count("REPRO_SHARDS", override, 1, 1,
                  "shard count must be at least 1")


def cloud_shard_count(override: Optional[int] = None) -> int:
    """Resolve the cloud-tier shard count (``REPRO_CLOUD_SHARDS``).

    Defaults to **0 = off**: the cloud tier stays the single monolithic
    :class:`~repro.serverless.gateway.CloudGateway` and unarmed runs are
    byte-identical to the seed. ``REPRO_CLOUD_SHARDS=N`` (or
    ``--cloud-shards N``) arms the per-region controller workers of
    :mod:`repro.sim.shard`: the cloud tier decomposes into fixed-size
    regions (a pure function of the cell plan) scheduled over up to
    ``N`` worker groups — rows are identical at any ``N >= 1``.
    """
    return _count("REPRO_CLOUD_SHARDS", override, 0, 0,
                  "cloud shard count must be non-negative")


def hybrid_exact_devices(override: Optional[int] = None) -> int:
    """Resolve the hybrid exact-focus size (``REPRO_HYBRID_EXACT``).

    Defaults to **0 = off** (every cell simulates exactly). ``N > 0``
    keeps the first ``N`` devices as exact cells and marks the rest of
    the cell plan ``mode="meanfield"``: aggregate cells price their load
    with :func:`repro.edge.meanfield.predict_cell` and inject it into
    the sharded cloud tier as calibrated synthetic arrival streams, so
    one run mixes a small exact focus sub-swarm with a mean-field
    background swarm.
    """
    return _count("REPRO_HYBRID_EXACT", override, 0, 0,
                  "hybrid exact-device count must be non-negative")


def shard_window(override: Optional[float] = None) -> Optional[float]:
    """Resolve the sharded barrier window (``REPRO_SHARD_WINDOW``).

    Returns the window in simulated seconds, or ``None`` when neither an
    explicit argument nor the environment sets one — the caller
    (:func:`repro.sim.shard.resolve_window`) then uses its default and
    clamps the value to the causal minimum.
    """
    return _positive("REPRO_SHARD_WINDOW", override,
                     "barrier window must be positive")


def worker_deadline(override: Optional[float] = None) -> Optional[float]:
    """Resolve the worker reply deadline (``REPRO_WORKER_DEADLINE``).

    Returns the deadline in wall seconds, or ``None`` when neither an
    explicit argument nor the environment sets one — the caller
    (:func:`repro.sim.supervisor.resolve_worker_deadline`) then derives
    ``max(60 s, lookahead window)``.
    """
    return _positive("REPRO_WORKER_DEADLINE", override,
                     "worker deadline must be positive")


def worker_retries(override: Optional[int] = None) -> int:
    """Resolve the respawn retry budget (``REPRO_WORKER_RETRIES``).

    Defaults to 2 respawn attempts per incident before the supervisor
    degrades the worker to in-process execution. ``0`` skips respawning
    entirely (straight to in-process recovery).
    """
    return _count("REPRO_WORKER_RETRIES", override, 2, 0,
                  "worker retries must be non-negative")


def chaos_workers(override: Optional[str] = None) -> str:
    """Resolve the worker-chaos spec (``REPRO_CHAOS_WORKERS``).

    Defaults to **off** (empty string — no harness faults, unarmed runs
    byte-identical to the seed). A non-empty value is a
    :meth:`repro.faults.worker.WorkerFaultPlan.parse` spec, e.g.
    ``kill:shard:0:2,hang:shard:1:3``.
    """
    if override is not None:
        return override
    return os.environ.get("REPRO_CHAOS_WORKERS", "")


def serving_spec(override: Optional[str] = None) -> str:
    """Resolve the open-loop serving spec (``REPRO_SERVING``).

    Defaults to **off** (empty string — no background load, unarmed
    runs byte-identical to the seed). A non-empty value is a
    :func:`repro.serving.load.parse_serving_spec` tenant list, e.g.
    ``poisson:200,onoff:80:flash:0.5`` (the bare ``1`` arms one
    default Poisson tenant). Serving load is served by the regional
    cloud tier, so an armed spec implies ``cloud_shards >= 1`` in
    :func:`repro.sim.shard.run_sharded` — the hybrid mean-field
    precedent.
    """
    if override is not None:
        return override
    return os.environ.get("REPRO_SERVING", "")


def serving_admission_enabled(override: Optional[bool] = None) -> bool:
    """Resolve the admission/shedding sub-switch
    (``REPRO_SERVING_ADMISSION``; default on, meaningful only inside a
    serving-armed run)."""
    return _enabled("REPRO_SERVING_ADMISSION", override)


def serving_autoscale_enabled(override: Optional[bool] = None) -> bool:
    """Resolve the invoker-pool autoscaling sub-switch
    (``REPRO_SERVING_AUTOSCALE``; default on, meaningful only inside a
    serving-armed run)."""
    return _enabled("REPRO_SERVING_AUTOSCALE", override)


def meanfield_enabled(override: Optional[bool] = None) -> bool:
    """Resolve the mean-field aggregate-cell flag (``REPRO_MEANFIELD``).

    Defaults to **off**: exact simulation stays the source of truth;
    ``REPRO_MEANFIELD=1`` (or ``--meanfield``) collapses homogeneous
    cells into the population model of :mod:`repro.edge.meanfield`.
    """
    if override is not None:
        return bool(override)
    return os.environ.get("REPRO_MEANFIELD", "0") == "1"
