"""The benchmark's workloads: what each one runs and how its output is
checked. Why each is in the benchmark is recorded in ``BENCHMARK.json``.

Each workload is a fixed program. Run length, scenario, swarm size and
worker counts are constants here; only the seed varies. A parent commit
and a change therefore always run the same program, and a result can be
compared across them.

Nothing in this module imports :mod:`repro` at import time: the run
process imports it inside :func:`Workload.build`, so import cost counts
as set-up time.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Workload", "WORKLOADS", "outcome", "rows_md5"]


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``seed -> (runner or None, zero-argument simulation call)``.
    build: Callable[[int], Tuple[Any, Callable[[], Any]]]
    #: Task rows every seed must produce; None where the count depends
    #: on the seed and a conservation check stands in for it.
    rows: Optional[int]
    #: ``(result, counts) -> problem or None``: the workload's
    #: conservation law.
    conservation: Callable[[Any, Dict[str, float]], Optional[str]]


def _mission(seed: int):
    from repro.apps import SCENARIO_A
    from repro.platforms import ScenarioRunner, platform_config
    runner = ScenarioRunner(platform_config("hivemind"), SCENARIO_A,
                            seed=seed, n_devices=256)
    return runner, runner.run


def _faas(seed: int):
    from repro.apps import app
    from repro.platforms import SingleTierRunner, platform_config
    runner = SingleTierRunner(platform_config("centralized_faas"),
                              app("S3"), seed=seed, duration_s=1800,
                              load_fraction=0.9)
    return runner, runner.run


def _sharded(scenario_key: str, n_devices: int, serving: Optional[str]):
    def build(seed: int):
        from repro import apps
        from repro.platforms import platform_config
        from repro.sim.shard import run_sharded
        scenario = getattr(apps, scenario_key)
        return None, functools.partial(
            run_sharded, platform_config("hivemind"), scenario, n_devices,
            seed=seed, shards=2, cloud_shards=2, serving=serving)
    return build


def _no_law(result, counts) -> Optional[str]:
    return None


def _invocations_conserved(result, counts) -> Optional[str]:
    invocations = result.extras["invocations"]
    if invocations != counts["cloud.cold_starts"] + counts[
            "cloud.warm_starts"]:
        return (f"{invocations} invocations != cold + warm starts "
                f"({counts['cloud.cold_starts']:.0f} + "
                f"{counts['cloud.warm_starts']:.0f})")
    if invocations != len(result.task_latencies):
        return (f"{invocations} invocations but "
                f"{len(result.task_latencies)} rows")
    return None


def _cloud_completions_conserved(result, counts) -> Optional[str]:
    completions = result.extras["cloud_completions"]
    if completions != len(result.task_latencies):
        return (f"{completions} cloud completions but "
                f"{len(result.task_latencies)} rows")
    return None


def _tenant_calls_conserved(result, counts) -> Optional[str]:
    serving = result.extras["serving"]
    offered, served, shed = (serving["offered_calls"],
                             serving["served_calls"], serving["shed_calls"])
    if offered != served + shed:
        return f"{offered} offered calls != {served} served + {shed} shed"
    return None


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("mission-256", _mission, rows=9_984, conservation=_no_law),
    Workload("faas-s3", _faas, rows=None,
             conservation=_invocations_conserved),
    Workload("fleet-1024", _sharded("SCENARIO_B", 1024, None), rows=39_936,
             conservation=_cloud_completions_conserved),
    Workload("serving-flash",
             _sharded("SCENARIO_A", 64, "poisson:200:bg,onoff:100:crowd"),
             rows=2_496, conservation=_tenant_calls_conserved),
)}


def rows_md5(result) -> str:
    """Digest of every task row (latency and start time, in row order)."""
    import numpy
    series = result.task_latencies
    digest = hashlib.md5()
    digest.update(numpy.ascontiguousarray(series.values,
                                          dtype=numpy.float64).tobytes())
    digest.update(numpy.ascontiguousarray(series.times,
                                          dtype=numpy.float64).tobytes())
    return digest.hexdigest()


def _warm_starts(runner, extras) -> int:
    """Warm starts; the closed-loop mission keeps them on its platform."""
    if "warm_starts" in extras:
        return extras["warm_starts"]
    state = getattr(runner, "_st", None) or {}
    platform = state.get("platform")
    return platform.warm_starts if platform is not None else 0


def outcome(workload: Workload, runner, result) -> Tuple[Dict[str, float],
                                                          List[str]]:
    """The run's simulated metrics and counters, and every failed check.

    Counters are named as in ``BENCHMARK.json``'s ``per_layer`` list.
    Requests are swarm tasks, except tenant calls where the workload
    carries serving load.
    """
    series = result.task_latencies
    extras = result.extras
    serving = extras.get("serving")
    cold = extras.get("cold_starts", 0)
    warm = _warm_starts(runner, extras)
    counts: Dict[str, float] = {
        "sim_makespan_s": result.duration_s,
        "cloud.cold_starts": cold,
        "cloud.warm_starts": warm,
        "cloud.warm_hit_ratio": warm / (cold + warm) if cold + warm else 0.0,
        "cloud.duplicate_launches": extras.get("duplicate_launches", 0),
        "cloud.persisted_documents": extras.get("persisted_documents", 0),
        "ipc.recoveries": extras.get("worker_recoveries", 0),
        "serving.offered": 0,
        "serving.shed": 0,
        "serving.scale_outs": 0,
        "sim_shed_rate": 0.0,
    }
    if serving:
        counts.update({
            "sim_p50_s": serving["latency_p50_s"],
            "sim_p99_s": serving["latency_p99_s"],
            "sim_samples": serving["served_calls"],
            "serving.offered": serving["offered_calls"],
            "serving.shed": serving["shed_calls"],
            "serving.scale_outs": serving["scale_outs"],
            "sim_shed_rate": serving["shed_calls"] / serving["offered_calls"],
        })
    else:
        counts.update({
            "sim_p50_s": series.percentile(50),
            "sim_p99_s": series.percentile(99),
            "sim_samples": len(series),
        })

    problems = []
    if workload.rows is not None and len(series) != workload.rows:
        problems.append(f"{len(series)} task rows, expected {workload.rows}")
    latencies = [float(value) for value in series.values]
    latencies += [counts["sim_p50_s"], counts["sim_p99_s"]]
    if not all(math.isfinite(value) and value > 0 for value in latencies):
        problems.append("a latency is non-finite or <= 0")
    law = workload.conservation(result, counts)
    if law is not None:
        problems.append(law)
    return counts, problems
