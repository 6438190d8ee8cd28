"""Fig 4: task-latency distributions, centralized cloud vs distributed edge.

(a) Violin summaries (p5/p25/median/p75/p95) of per-task latency across
S1-S10. Expected shape: centralized is faster and tighter for most jobs;
S3 (drone detection) and S7 (weather analytics) are comparable on both
tiers; S4 (obstacle avoidance) wins at the edge by skipping the network
round trip.

(b) Job-latency distributions for the two end-to-end scenarios (one sample
per scenario repeat).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..apps import SCENARIO_A, SCENARIO_B, all_apps, app, scenario
from ..platforms import ScenarioRunner, SingleTierRunner, platform_config
from .common import ExperimentResult
from .parallel import replica_seeds, run_tasks

PLATFORMS = ("centralized_faas", "distributed_edge")


def _tier_cell(app_key: str, platform: str, seed: int, duration_s: float,
               load_fraction: float):
    """Task-latency DistributionSummary — picklable pool cell."""
    result = SingleTierRunner(
        platform_config(platform), app(app_key), seed=seed,
        duration_s=duration_s, load_fraction=load_fraction).run()
    return result.task_latencies.summary()


def _scenario_makespan(seed: int, scenario_key: str,
                       platform: str) -> float:
    """One scenario-repeat makespan — picklable pool cell."""
    return ScenarioRunner(
        platform_config(platform), scenario(scenario_key),
        seed=seed).run().extras["makespan_s"]


def run(duration_s: float = 60.0, scenario_repeats: int = 3,
        load_fraction: float = 0.6, base_seed: int = 0,
        max_workers: Optional[int] = None) -> ExperimentResult:
    app_cells = [(spec.key, platform)
                 for spec in all_apps() for platform in PLATFORMS]
    scenario_groups = [(scenario.key, platform)
                       for scenario in (SCENARIO_A, SCENARIO_B)
                       for platform in PLATFORMS]
    seeds = replica_seeds(scenario_repeats, base_seed)
    calls = [(_tier_cell,
              (app_key, platform, base_seed, duration_s, load_fraction), {})
             for app_key, platform in app_cells]
    calls += [(_scenario_makespan, (seed, scenario_key, platform), {})
              for scenario_key, platform in scenario_groups
              for seed in seeds]
    samples = iter(run_tasks(calls, max_workers=max_workers))

    rows: List[List] = []
    data: Dict[str, Dict] = {}
    for app_key, platform in app_cells:
        summary = next(samples).value
        key = f"{app_key}:{platform}"
        rows.append([key,
                     round(summary.p5 * 1000, 1),
                     round(summary.p25 * 1000, 1),
                     round(summary.median * 1000, 1),
                     round(summary.p75 * 1000, 1),
                     round(summary.p95 * 1000, 1)])
        data[key] = summary
    for scenario_key, platform in scenario_groups:
        makespans = sorted(next(samples).value for _ in seeds)
        key = f"{scenario_key}:{platform}"
        median = makespans[len(makespans) // 2]
        rows.append([key, round(min(makespans), 1), "", round(median, 1),
                     "", round(max(makespans), 1)])
        data[key] = {"makespans_s": makespans}
    return ExperimentResult(
        figure="fig04",
        title="Task latency (ms) / job latency (s): centralized vs edge",
        headers=["key", "p5", "p25", "median", "p75", "p95"],
        rows=rows,
        data=data,
    )
