"""Fig 13: incremental benefit of each HiveMind technique (ablation).

Configurations, mirroring the paper's bars:

- ``hivemind``               — the full system.
- ``centralized_net_accel``  — all tasks in the cloud + RPC acceleration.
- ``centralized_net_remote`` — the above + remote-memory acceleration.
- ``distributed_edge``       — all tasks at the edge, no acceleration.
- ``distributed_net_accel``  — edge execution + accelerated result upload.
- ``hivemind_no_accel``      — hybrid placement without FPGA fabrics.

Expected shape: no single technique suffices. Network acceleration helps
the centralized system but it remains behind HiveMind; remote memory adds
a little more; the distributed system barely benefits from acceleration
(it hardly uses the network); HiveMind-without-acceleration keeps the
hybrid-placement benefit but reverts to software networking overheads.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..apps import SCENARIO_A, SCENARIO_B, all_apps, app, scenario
from ..platforms import ScenarioRunner, SingleTierRunner, platform_config
from .common import ExperimentResult
from .parallel import run_tasks

ABLATION_ORDER = (
    "hivemind",
    "centralized_net_accel",
    "centralized_net_remote",
    "distributed_edge",
    "distributed_net_accel",
    "hivemind_no_accel",
)


def _app_cell(app_key: str, name: str, seed: int, duration_s: float,
              load_fraction: float) -> Tuple[float, float]:
    """(median, p99) service latency — picklable pool cell."""
    result = SingleTierRunner(
        platform_config(name), app(app_key), seed=seed,
        duration_s=duration_s, load_fraction=load_fraction).run()
    return (result.median_latency_s, result.tail_latency_s)


def _scenario_cell(scenario_key: str, name: str,
                   seed: int) -> Tuple[float, float]:
    """(median, p99) task latency — picklable pool cell."""
    result = ScenarioRunner(
        platform_config(name), scenario(scenario_key), seed=seed).run()
    return (result.median_latency_s, result.tail_latency_s)


def run(duration_s: float = 60.0, load_fraction: float = 0.6,
        base_seed: int = 0, include_scenarios: bool = True,
        max_workers: Optional[int] = None
        ) -> ExperimentResult:
    calls = [(_app_cell,
              (spec.key, name, base_seed, duration_s, load_fraction), {})
             for spec in all_apps()
             for name in ABLATION_ORDER]
    if include_scenarios:
        # The paper's right panel reports per-task latency for the
        # scenarios (the mission pipeline's batches), not the makespan.
        calls += [(_scenario_cell, (scenario.key, name, base_seed), {})
                  for scenario in (SCENARIO_A, SCENARIO_B)
                  for name in ABLATION_ORDER]
    samples = run_tasks(calls, max_workers=max_workers)

    rows: List[List] = []
    data: Dict[str, Dict] = {}
    for (_, cell_args, _kw), sample in zip(calls, samples):
        key = f"{cell_args[0]}:{cell_args[1]}"
        median_s, p99_s = sample.value
        rows.append([key, round(median_s * 1000, 1),
                     round(p99_s * 1000, 1)])
        data[key] = {"median_s": median_s, "p99_s": p99_s}
    return ExperimentResult(
        figure="fig13",
        title="Ablation: median/p99 latency (ms) per configuration",
        headers=["key", "median_ms", "p99_ms"],
        rows=rows,
        data=data,
    )
