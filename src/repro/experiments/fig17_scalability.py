"""Fig 17: HiveMind's scalability.

(a) Wireless bandwidth and tail (job) latency for both scenarios on
HiveMind as frame resolution rises (0.5-8 MB at 8 fps, plus 8 MB at 16 and
32 fps). Expected shape: the on-board filter bounds what ships upstream,
so bandwidth grows sublinearly and latency stays flat — no saturation even
at maximum resolution and frame rate (where the centralized system of
Fig 3b collapsed).

(b) Bandwidth and tail latency as the (simulated) swarm grows from 16
toward thousands of drones, field and access network scaled proportionally
while the backend cluster stays fixed. Expected shape: HiveMind's
bandwidth grows sublinearly in devices and its latency stays near-flat,
versus the centralized system's explosion (cf. Fig 1 bottom).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..apps import SCENARIO_A, SCENARIO_B, scenario
from ..platforms import ScenarioRunner, platform_config
from .common import ExperimentResult
from .parallel import run_sweep

RESOLUTIONS: Sequence[Tuple[float, float]] = (
    (0.5, 8), (1.0, 8), (2.0, 8), (4.0, 8), (8.0, 8), (8.0, 16), (8.0, 32))


def _resolution_cell(scenario_key: str, frame_mb: float, fps: float,
                     seed: int) -> Tuple[float, float, float]:
    """(bandwidth mean, task p99, makespan) — picklable pool cell."""
    result = ScenarioRunner(
        platform_config("hivemind"), scenario(scenario_key), seed=seed,
        frame_mb=frame_mb, fps=fps).run()
    bw_mean, _ = result.bandwidth_summary()
    return (bw_mean, result.task_latencies.p99,
            result.extras["makespan_s"])


def _swarm_cell(platform: str, scenario_key: str, n_devices: int,
                seed: int) -> Tuple[float, float, float]:
    """(bandwidth mean, task p99, makespan) — picklable pool cell.

    Routing honours the scale-out knobs (resolved here, in the pool
    worker, so values set by the CLI reach every replica):
    ``REPRO_SHARDS=N`` fans the exact simulation out over N shard
    processes, ``REPRO_CLOUD_SHARDS=N`` additionally decomposes the
    cloud tier into per-region controller workers,
    ``REPRO_SERVING=<spec>`` overlays open-loop background traffic on
    the (implicitly sharded) regional cloud tier, and the unarmed
    default is the byte-identical single-process runner. The mean-field
    and hybrid models have their own figures (fig17c, fig17d).
    """
    from ..sim.flags import resolve
    shards = resolve("REPRO_SHARDS")
    cloud_shards = resolve("REPRO_CLOUD_SHARDS")
    serving = resolve("REPRO_SERVING")
    if shards > 1 or cloud_shards > 0 or serving:
        from ..sim.shard import run_sharded
        result = run_sharded(
            platform_config(platform), scenario(scenario_key),
            n_devices, seed=seed, shards=shards,
            cloud_shards=cloud_shards, serving=serving or None)
    else:
        result = ScenarioRunner(
            platform_config(platform), scenario(scenario_key), seed=seed,
            n_devices=n_devices).run()
    bw_mean, _ = result.bandwidth_summary()
    return (bw_mean, result.task_latencies.p99,
            result.extras["makespan_s"])


def run_resolution(base_seed: int = 0,
                   max_workers: Optional[int] = None) -> ExperimentResult:
    """Fig 17a."""
    cells = [(scenario.key, frame_mb, fps, base_seed)
             for scenario in (SCENARIO_A, SCENARIO_B)
             for frame_mb, fps in RESOLUTIONS]
    samples = run_sweep(_resolution_cell, cells, max_workers=max_workers)

    rows: List[List] = []
    data: Dict[str, Dict] = {}
    for (scenario_key, frame_mb, fps, _), sample in zip(cells, samples):
        bw_mean, tail_s, makespan_s = sample.value
        key = f"{scenario_key}:{frame_mb}MB@{int(fps)}fps"
        rows.append([key, round(bw_mean, 1), round(tail_s, 2),
                     round(makespan_s, 1)])
        data[key] = {"bandwidth_mbs": bw_mean, "tail_s": tail_s,
                     "makespan_s": makespan_s}
    return ExperimentResult(
        figure="fig17a",
        title="HiveMind bandwidth/latency vs resolution",
        headers=["key", "bw_mean_mbs", "task_p99_s", "makespan_s"],
        rows=rows,
        data=data,
    )


def run_swarm_size(sizes: Sequence[int] = (16, 32, 64, 128, 256, 512, 1024),
                   base_seed: int = 0,
                   include_centralized_upto: int = 256,
                   max_workers: Optional[int] = None
                   ) -> ExperimentResult:
    """Fig 17b (the paper sweeps to 8k; default here caps at 1k for
    runtime — pass a larger ``sizes`` for the full sweep)."""
    cells: List[Tuple[str, str, int, int]] = []
    for scenario in (SCENARIO_A, SCENARIO_B):
        for n_devices in sizes:
            cells.append(("hivemind", scenario.key, n_devices, base_seed))
            if n_devices <= include_centralized_upto:
                cells.append(("centralized_faas", scenario.key, n_devices,
                              base_seed))
    samples = run_sweep(_swarm_cell, cells, max_workers=max_workers)

    rows: List[List] = []
    data: Dict[str, Dict] = {}
    for (platform, scenario_key, n_devices, _), sample in zip(cells,
                                                              samples):
        bw_mean, tail_s, makespan_s = sample.value
        label = "hivemind" if platform == "hivemind" else "centralized"
        key = f"{scenario_key}:{label}:{n_devices}"
        rows.append([key, n_devices, round(bw_mean, 1), round(tail_s, 2),
                     round(makespan_s, 1)])
        data[key] = {
            "bandwidth_mbs": bw_mean,
            "tail_s": tail_s,
            "makespan_s": makespan_s,
        }
    return ExperimentResult(
        figure="fig17b",
        title="Scalability with swarm size",
        headers=["key", "devices", "bw_mean_mbs", "task_p99_s",
                 "makespan_s"],
        rows=rows,
        data=data,
    )


EXTENDED_SIZES: Sequence[int] = (1024, 10_000, 100_000, 1_000_000)


def run_extended(sizes: Sequence[int] = EXTENDED_SIZES,
                 base_seed: int = 0) -> ExperimentResult:
    """Fig 17c: the saturation curves pushed to 10k-1M devices.

    Every point goes through the mean-field population model of
    :mod:`repro.edge.meanfield` — a swarm this size is out of reach for
    the exact event-driven simulation (a 1M-device run would dispatch
    ~10^9 kernel events), but the aggregate cells are O(1) in device
    count, so the full grid costs milliseconds and zero kernel events.
    The model is parity-checked against the exact simulator at small N
    by ``tests/edge/test_meanfield_parity.py`` and the CI shard-smoke
    job. The grid is cheap enough that it always runs in-process.
    ``base_seed`` is taken as by every harness and unused: the model
    predicts the population, not one draw.
    """
    from ..edge.meanfield import predict_cell

    rows: List[List] = []
    data: Dict[str, Dict] = {}
    for scenario in (SCENARIO_A, SCENARIO_B):
        for platform in ("hivemind", "centralized_faas"):
            for n_devices in sizes:
                cell = predict_cell(platform, scenario.key, int(n_devices))
                bw_mean, tail_s, makespan_s = cell.triple
                label = ("hivemind" if platform == "hivemind"
                         else "centralized")
                key = f"{scenario.key}:{label}:{n_devices}"
                rows.append([key, n_devices, round(bw_mean, 1),
                             round(tail_s, 2), round(makespan_s, 1)])
                data[key] = {
                    "bandwidth_mbs": bw_mean,
                    "tail_s": tail_s,
                    "makespan_s": makespan_s,
                    "meanfield": True,
                }
    return ExperimentResult(
        figure="fig17c",
        title="Mean-field saturation curves (10k-1M devices)",
        headers=["key", "devices", "bw_mean_mbs", "task_p99_s",
                 "makespan_s"],
        rows=rows,
        data=data,
    )


HYBRID_FLEETS: Sequence[Tuple[int, int]] = (
    (256, 64), (1024, 256), (100_000, 256))


def run_hybrid(fleets: Sequence[Tuple[int, int]] = HYBRID_FLEETS,
               base_seed: int = 0) -> ExperimentResult:
    """Fig 17d: hybrid exact/mean-field curves on HiveMind.

    Each (fleet, exact) pair simulates an ``exact``-device focus
    sub-swarm event-by-event while the rest of the fleet rides as
    mean-field aggregate cells injecting calibrated synthetic load into
    the sharded cloud tier — e.g. 256 exact devices inside a 100k-drone
    fleet. The exact focus carries the latency rows; the background
    shows up in bandwidth and cloud counters (see DESIGN.md's hybrid
    trust boundary). Row order is fixed by the cell plan, so the table
    is deterministic at any worker count. Points run one after another
    (each is one sharded run; serial keeps RSS flat), and
    ``REPRO_SERVING`` overlays the same tenants as on fig17b.
    """
    from ..sim.flags import resolve
    from ..sim.shard import run_sharded

    cloud_shards = max(1, resolve("REPRO_CLOUD_SHARDS"))
    serving = resolve("REPRO_SERVING") or None
    rows: List[List] = []
    data: Dict[str, Dict] = {}
    for scenario in (SCENARIO_A, SCENARIO_B):
        for n_devices, exact in fleets:
            result = run_sharded(
                platform_config("hivemind"), scenario, int(n_devices),
                seed=base_seed, shards=resolve("REPRO_SHARDS"),
                cloud_shards=cloud_shards, exact_devices=int(exact),
                serving=serving)
            bw_mean, _ = result.bandwidth_summary()
            tail_s = result.task_latencies.p99
            key = f"{scenario.key}:hybrid:{n_devices}x{exact}"
            rows.append([key, n_devices, exact, round(bw_mean, 1),
                         round(tail_s, 2),
                         round(result.extras["makespan_s"], 1)])
            data[key] = {
                "bandwidth_mbs": bw_mean,
                "tail_s": tail_s,
                "makespan_s": result.extras["makespan_s"],
                "exact_devices": int(exact),
                "meanfield_cells": result.extras.get("meanfield_cells", 0),
                "background_completions": result.extras.get(
                    "background_completions", 0),
            }
    return ExperimentResult(
        figure="fig17d",
        title="Hybrid exact/mean-field swarm curves",
        headers=["key", "devices", "exact_devices", "bw_mean_mbs",
                 "task_p99_s", "makespan_s"],
        rows=rows,
        data=data,
    )
