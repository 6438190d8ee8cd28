"""Kernel/harness performance trajectory (``BENCH_kernel.json``).

Timings for the same deterministic workloads, appended run over run, so
kernel regressions show up as a bend in the trajectory rather than being
discovered months later. The benchmark suite (``benchmarks/conftest.py``)
records every figure it runs; ``python -m repro.experiments --bench-smoke``
records a ~30 s fixed smoke workload on demand.

Records are self-describing: label, wall seconds, kernel events dispatched
(pool workers included), derived events/second, worker/core counts. The
events/second figure is the machine-independent-ish one — wall seconds
shift with the host, events do not (simulations are deterministic).
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
import time
from typing import Any, Dict, List, Optional

from ..sim.flags import resolve
from . import parallel
from .registry import run_experiment

__all__ = ["bench_path", "load_bench", "record_bench", "run_smoke",
           "run_fig17_milestone", "run_shard_milestone",
           "run_cloudshard_milestone"]

#: The fixed smoke workload: small deterministic figure harnesses that
#: together exercise every platform and both scenarios in ~30 s.
SMOKE_FIGURES = (
    ("fig17a", {}),
    ("fig04", {}),
    ("fig01", {"repeats": 1, "n_small": 16, "n_large": 128}),
)


def bench_path(path: Optional[str] = None) -> pathlib.Path:
    """Trajectory file: explicit arg, ``REPRO_BENCH_FILE``, or repo root."""
    configured = resolve("REPRO_BENCH_FILE", path)
    if configured:
        return pathlib.Path(configured)
    return pathlib.Path(__file__).resolve().parents[3] / "BENCH_kernel.json"


def load_bench(path: Optional[str] = None) -> Dict[str, Any]:
    target = bench_path(path)
    if target.exists():
        with open(target) as handle:
            return json.load(handle)
    return {"runs": []}


def record_bench(label: str, wall_s: float, sim_events: int,
                 path: Optional[str] = None,
                 extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Append one timing record to the trajectory file and return it."""
    from ..obs import git_revision, runtime_flags
    record: Dict[str, Any] = {
        "label": label,
        "date": datetime.date.today().isoformat(),
        "wall_s": round(wall_s, 3),
        "sim_events": int(sim_events),
        # Zero-event runs (closed-form sweep / mean-field) have no
        # events/second figure: record null, not 0, so consumers skip
        # them explicitly instead of truthiness-dropping them.
        "events_per_s": (round(sim_events / wall_s)
                         if wall_s > 0 and sim_events else None),
        # Cgroup-aware: on a quota-limited container os.cpu_count() lies
        # about how many cores the workload can actually use, which made
        # cross-host events/s comparisons misleading. Keep the raw count
        # alongside for forensics on old records.
        "cores": parallel.default_workers(),
        "cores_source": "cgroup_quota",
        "os_cpu_count": os.cpu_count() or 1,
        # Manifest provenance: which code and which fast paths produced
        # this timing (consumers must tolerate unknown fields).
        "git_rev": git_revision(),
        "flags": runtime_flags(),
    }
    if extra:
        record.update(extra)
    trajectory = load_bench(path)
    trajectory.setdefault("runs", []).append(record)
    target = bench_path(path)
    with open(target, "w") as handle:
        json.dump(trajectory, handle, indent=2)
        handle.write("\n")
    return record


def run_smoke(max_workers: Optional[int] = None,
              path: Optional[str] = None) -> List[Dict[str, Any]]:
    """Run the fixed smoke workload, appending one record per figure."""
    records = []
    workers = (parallel.default_workers()
               if max_workers is None else max_workers)
    for figure, options in SMOKE_FIGURES:
        opts = dict(options)
        opts["max_workers"] = max_workers
        result = run_experiment(figure, **opts)
        records.append(record_bench(
            f"smoke:{figure}", result.elapsed_s, result.sim_events,
            path=path, extra={"workers": workers,
                              "layer_events": result.layer_events}))
    total_wall = sum(r["wall_s"] for r in records)
    total_events = sum(r["sim_events"] for r in records)
    layer_totals: Dict[str, int] = {}
    for record in records:
        for layer, n in record.get("layer_events", {}).items():
            layer_totals[layer] = layer_totals.get(layer, 0) + n
    records.append(record_bench(
        "smoke:total", total_wall, total_events, path=path,
        extra={"workers": workers, "layer_events": layer_totals}))
    return records


def run_fig17_milestone(n_devices: int = 256, seed: int = 0,
                        path: Optional[str] = None) -> List[Dict[str, Any]]:
    """Record the fig17 256-drone milestone pair: legacy vs vector engine.

    Runs the identical Scenario-A hivemind point through both flight
    paths and appends one record each, so BENCH_kernel.json carries the
    before/after evidence for the vectorized edge layer. The two runs
    must produce the same makespan (the determinism contract); a mismatch
    raises instead of recording misleading numbers.
    """
    from ..apps import SCENARIO_A
    from ..platforms import platform_config
    from ..platforms.scenario_runner import ScenarioRunner
    from ..sim.kernel import events_consumed

    records = []
    makespans = {}
    for engine_label, vector in (("legacy-tick", False), ("vector", True)):
        before = events_consumed()
        start = time.perf_counter()
        result = ScenarioRunner(
            platform_config("hivemind"), SCENARIO_A, seed=seed,
            n_devices=n_devices, vector_edge=vector).run()
        wall = time.perf_counter() - start
        makespans[engine_label] = result.extras["makespan_s"]
        records.append(record_bench(
            f"milestone:fig17b-{n_devices}:{engine_label}",
            wall, events_consumed() - before, path=path,
            extra={"makespan_s": round(result.extras["makespan_s"], 3),
                   "engine": engine_label}))
    if makespans["legacy-tick"] != makespans["vector"]:
        raise AssertionError(
            f"engine parity violated: legacy makespan "
            f"{makespans['legacy-tick']} != vector {makespans['vector']}")
    return records


def run_shard_milestone(n_devices: int = 1024, seed: int = 0,
                        shards: int = 4, tolerance_pct: float = 10.0,
                        path: Optional[str] = None) -> List[Dict[str, Any]]:
    """Record the sharded-runtime milestone pair: 1 shard vs ``shards``.

    Runs the fig17b 1024-drone hivemind Scenario-B point — the
    saturation workload whose cloud-side aggregation stage actually
    stresses the shared backend at scale (Scenario A at 1k devices is
    still flight-dominated) — through the single-process runner, exactly
    what an unarmed 1-shard run executes, byte-identical to the seed,
    and through the sharded cell-decomposed runtime of
    :func:`repro.sim.shard.run_sharded` at ``shards`` scheduling groups,
    appending one record each, so BENCH_kernel.json carries the
    before/after evidence for the sharded runtime. The win is
    algorithmic as well as parallel: cells sidestep the monolithic
    runner's superlinear shared-state costs (every capture scans the
    whole scaled field, schedulers track the whole swarm), so the pair
    shows a speedup even where the worker-process cap
    (:func:`~repro.experiments.parallel.default_workers`) collapses the
    shards onto one core.

    The sharded decomposition couples edge and cloud more coarsely than
    the monolithic kernel, so rows are *not* byte-identical across the
    two legs (that contract holds across shard counts of the sharded
    runtime itself — see ``tests/sim/test_shard_determinism.py``).
    Instead every scenario's observables (bandwidth mean, task p99,
    makespan) must agree within ``tolerance_pct``; a mismatch raises
    instead of recording misleading numbers.
    """
    from ..apps import SCENARIO_B
    from ..platforms import platform_config
    from ..platforms.scenario_runner import ScenarioRunner
    from ..sim.kernel import events_consumed
    from ..sim.shard import run_sharded

    def observables(result):
        bw_mean, _ = result.bandwidth_summary()
        return (bw_mean, result.task_latencies.p99,
                result.extras["makespan_s"])

    legs = (
        ("1shard", 1, lambda: ScenarioRunner(
            platform_config("hivemind"), SCENARIO_B, seed=seed,
            n_devices=n_devices).run()),
        (f"{shards}shard", shards, lambda: run_sharded(
            platform_config("hivemind"), SCENARIO_B, n_devices,
            seed=seed, shards=shards)),
    )
    records = []
    walls: Dict[str, float] = {}
    triples: Dict[str, tuple] = {}
    for label, count, runner in legs:
        before = events_consumed()
        start = time.perf_counter()
        result = runner()
        wall = time.perf_counter() - start
        walls[label] = wall
        triples[label] = observables(result)
        extra = {"makespan_s": round(result.extras["makespan_s"], 3),
                 "shards": count,
                 "scenario": SCENARIO_B.key}
        if label != "1shard":
            extra["speedup"] = round(walls["1shard"] / wall, 2)
        records.append(record_bench(
            f"milestone:fig17b-shard-{n_devices}:{label}",
            wall, events_consumed() - before, path=path, extra=extra))
    for name, got, want in zip(("bandwidth", "p99", "makespan"),
                               triples[f"{shards}shard"],
                               triples["1shard"]):
        deviation = abs(got - want) / want * 100.0
        if deviation > tolerance_pct:
            raise AssertionError(
                f"shard tolerance violated: {name} deviates "
                f"{deviation:.1f}% (> {tolerance_pct}%) from the "
                f"single-process runner")
    return records


def run_cloudshard_milestone(n_devices: int = 1024, seed: int = 0,
                             shards: int = 4, cloud_shards: int = 4,
                             tolerance_pct: float = 10.0,
                             path: Optional[str] = None
                             ) -> List[Dict[str, Any]]:
    """Record the cloud-sharded milestone pair: monolithic vs regional.

    Runs the fig17b 1024-drone hivemind Scenario-B point — the workload
    where the PR 7 trajectory showed the monolithic ``CloudGateway``
    eating roughly half the sharded run's wall clock — through the
    edge-sharded runtime with the monolithic cloud tier (exactly the
    PR 7 baseline leg, same core count) and through the per-region
    controller decomposition (``cloud_shards`` worker groups of
    :class:`~repro.serverless.region.RegionGateway` slices, each
    pricing its region's calls on a closed-form virtual clock instead
    of dispatching kernel events), appending one record each. The win
    is algorithmic as well as parallel: a region prices each cloud call
    in O(log cores) heap work with zero kernel events, so the pair
    shows a speedup even where the worker cap collapses the region
    groups onto one core.

    Rows are *not* byte-identical across the two legs (the regional
    tier draws its own RNG streams; the identity contract holds across
    ``(shards, cloud_shards)`` combinations of the armed runtime — see
    ``tests/sim/test_shard_determinism.py``). Instead the observables
    (bandwidth mean, task p99, makespan) must agree within
    ``tolerance_pct``; a mismatch raises instead of recording
    misleading numbers.
    """
    from ..apps import SCENARIO_B
    from ..platforms import platform_config
    from ..sim.kernel import events_consumed
    from ..sim.shard import run_sharded

    def observables(result):
        bw_mean, _ = result.bandwidth_summary()
        return (bw_mean, result.task_latencies.p99,
                result.extras["makespan_s"])

    legs = (
        ("edge-sharded", 0, lambda: run_sharded(
            platform_config("hivemind"), SCENARIO_B, n_devices,
            seed=seed, shards=shards)),
        ("cloud-sharded", cloud_shards, lambda: run_sharded(
            platform_config("hivemind"), SCENARIO_B, n_devices,
            seed=seed, shards=shards, cloud_shards=cloud_shards)),
    )
    records = []
    walls: Dict[str, float] = {}
    triples: Dict[str, tuple] = {}
    for label, count, runner in legs:
        before = events_consumed()
        start = time.perf_counter()
        result = runner()
        wall = time.perf_counter() - start
        walls[label] = wall
        triples[label] = observables(result)
        extra = {"makespan_s": round(result.extras["makespan_s"], 3),
                 "shards": shards,
                 "cloud_shards": count,
                 "scenario": SCENARIO_B.key}
        if label != "edge-sharded":
            extra["speedup"] = round(walls["edge-sharded"] / wall, 2)
        records.append(record_bench(
            f"milestone:fig17b-cloudshard-{n_devices}:{label}",
            wall, events_consumed() - before, path=path, extra=extra))
    for name, got, want in zip(("bandwidth", "p99", "makespan"),
                               triples["cloud-sharded"],
                               triples["edge-sharded"]):
        deviation = abs(got - want) / want * 100.0
        if deviation > tolerance_pct:
            raise AssertionError(
                f"cloud-shard tolerance violated: {name} deviates "
                f"{deviation:.1f}% (> {tolerance_pct}%) from the "
                f"monolithic cloud tier")
    return records
