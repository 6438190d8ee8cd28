"""Runtime switches, each resolved in one place.

Each switch below is read only here (an explicit constructor or CLI
argument always wins over the environment), and a malformed value fails
loudly with ``VAR=value:`` in the message instead of silently picking a
default.

- ``REPRO_VECTOR_EDGE=0`` — legacy per-device flight/heartbeat processes
  instead of the vectorized :class:`~repro.edge.SwarmEngine`. Default
  **on**.
- ``REPRO_TRACE=1`` — causal request tracing (:mod:`repro.obs`).
  Default **off**.

The scale-out knobs (``REPRO_SHARDS``, ``REPRO_CLOUD_SHARDS``,
``REPRO_MEANFIELD``, ``REPRO_HYBRID_EXACT``) default to **off**, so
unarmed runs stay byte-identical to the seed, and arming them opts into
the sharded/aggregate runtimes of :mod:`repro.sim.shard` and
:mod:`repro.edge.meanfield`.

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

Boolean switches accept only an empty value (the default), ``0`` or
``1``.
"""

from __future__ import annotations

import os
from typing import Optional

__all__ = [
    "vector_edge_enabled",
    "trace_requested",
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


def _switch(variable: str, override: Optional[bool], default: bool) -> bool:
    """Resolve a boolean switch: an explicit argument wins, then the
    environment variable (``0`` or ``1``; empty means ``default``). Any
    other value raises ``ValueError`` naming the variable."""
    if override is not None:
        return bool(override)
    configured = os.environ.get(variable, "")
    if not configured:
        return default
    if configured not in ("0", "1"):
        raise ValueError(f"{variable}={configured}: expected 0 or 1")
    return configured == "1"


def vector_edge_enabled(override: Optional[bool] = None) -> bool:
    """Resolve the vectorized-edge flag (``REPRO_VECTOR_EDGE``; default
    on). ``0`` selects the per-device ``Drone.fly_route`` processes."""
    return _switch("REPRO_VECTOR_EDGE", override, True)


def trace_requested() -> bool:
    """Whether ``REPRO_TRACE`` asks for causal tracing (default off)."""
    return _switch("REPRO_TRACE", None, False)


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

    Defaults to **off** (1 shard
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
    return _switch("REPRO_SERVING_ADMISSION", override, True)


def serving_autoscale_enabled(override: Optional[bool] = None) -> bool:
    """Resolve the invoker-pool autoscaling sub-switch
    (``REPRO_SERVING_AUTOSCALE``; default on, meaningful only inside a
    serving-armed run)."""
    return _switch("REPRO_SERVING_AUTOSCALE", override, True)


def meanfield_enabled(override: Optional[bool] = None) -> bool:
    """Resolve the mean-field aggregate-cell flag (``REPRO_MEANFIELD``).

    Defaults to **off**: exact simulation stays the source of truth;
    ``REPRO_MEANFIELD=1`` (or ``--meanfield``) collapses homogeneous
    cells into the population model of :mod:`repro.edge.meanfield`.
    """
    return _switch("REPRO_MEANFIELD", override, False)
