"""Fig 3: network overheads of fully centralized execution.

(a) Latency breakdown — network / management / cloud execution — at the
median and the 99th percentile for S1-S10 and both scenarios, all running
on the centralized FaaS platform. Expected shape: networking >= 22% of
median latency everywhere, ~33% on average, and a larger share at the tail.

(b) Wireless bandwidth and tail latency for face recognition (S1) as the
number of drones grows, per frame resolution (0.5-8 MB at 8 fps).
Expected shape: tail latency stays low until offered load crosses the
shared-medium capacity, then explodes; higher resolutions saturate at
fewer drones (8 MB saturates below 4 drones).
"""

from __future__ import annotations

from typing import Dict, List

from ..apps import SCENARIO_A, SCENARIO_B, all_apps, app
from ..platforms import ScenarioRunner, SingleTierRunner, platform_config
from .common import ExperimentResult

CENTRALIZED = "centralized_faas"


def run_breakdown(duration_s: float = 60.0, load_fraction: float = 0.45,
                  base_seed: int = 0) -> ExperimentResult:
    """Fig 3a."""
    config = platform_config(CENTRALIZED)
    rows: List[List] = []
    data: Dict[str, Dict] = {}
    for spec in all_apps():
        result = SingleTierRunner(
            config, spec, seed=base_seed, duration_s=duration_s,
            load_fraction=load_fraction).run()
        median = result.breakdowns.median_fractions()
        tail = result.breakdowns.tail_fractions()
        rows.append([spec.key,
                     round(100 * median["network"], 1),
                     round(100 * median["management"], 1),
                     round(100 * (median["execution"] +
                                  median["data_io"]), 1),
                     round(100 * tail["network"], 1)])
        data[spec.key] = {"median": median, "tail": tail}
    for scenario in (SCENARIO_A, SCENARIO_B):
        result = ScenarioRunner(config, scenario, seed=base_seed).run()
        median = result.breakdowns.median_fractions()
        tail = result.breakdowns.tail_fractions()
        rows.append([scenario.key,
                     round(100 * median["network"], 1),
                     round(100 * median["management"], 1),
                     round(100 * (median["execution"] +
                                  median["data_io"]), 1),
                     round(100 * tail["network"], 1)])
        data[scenario.key] = {"median": median, "tail": tail}
    return ExperimentResult(
        figure="fig03a",
        title="Centralized latency breakdown (percent of latency)",
        headers=["job", "network_med_pct", "mgmt_med_pct",
                 "exec_med_pct", "network_p99_pct"],
        rows=rows,
        data=data,
    )


def run_saturation(drone_counts=(2, 4, 6, 8, 10, 12, 14, 16),
                   frame_mbs=(0.5, 1.0, 2.0, 4.0, 8.0),
                   duration_s: float = 40.0,
                   base_seed: int = 0) -> ExperimentResult:
    """Fig 3b: S1 bandwidth + tail latency vs drones x resolution."""
    config = platform_config(CENTRALIZED)
    spec = app("S1")
    rows: List[List] = []
    data: Dict[str, Dict] = {}
    for frame_mb in frame_mbs:
        for n_drones in drone_counts:
            result = SingleTierRunner(
                config, spec, seed=base_seed, duration_s=duration_s,
                n_devices=n_drones, frame_mb=frame_mb,
                load_fraction=100.0).run()  # offered = full camera rate
            bandwidth, _ = result.bandwidth_summary()
            tail_ms = result.tail_latency_s * 1000
            rows.append([f"{frame_mb}MB:{n_drones}", frame_mb, n_drones,
                         round(bandwidth, 1), round(tail_ms, 0)])
            data[f"{frame_mb}MB:{n_drones}"] = {
                "bandwidth_mbs": bandwidth, "tail_ms": tail_ms}
    return ExperimentResult(
        figure="fig03b",
        title="S1 bandwidth and tail latency vs drones and resolution",
        headers=["key", "frame_mb", "drones", "bandwidth_mbs", "tail_ms"],
        rows=rows,
        data=data,
    )
