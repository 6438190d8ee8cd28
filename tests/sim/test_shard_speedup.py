"""Wall-clock speedup floors of the sharded runtime at fig17b-1024.

Three legs on one point (hivemind, Scenario B, 1,024 drones, seed 0):
the monolithic :class:`ScenarioRunner`, the edge-sharded runtime at four
cells, and the same runtime with the cloud tier split into four regions.
Each step must stay faster than the one before it by a fixed floor:
sharded ≥1.2× over monolithic, cloud-sharded ≥1.3× over edge-sharded.
The floors sit under what a quiet 2-vCPU host shows (about 1.3–1.5×
and 2.2–3.1×) so the gate catches a regression toward parity. Each
leg's wall time is its best of three runs, taken in interleaved rounds:
host noise only ever adds time, so the minimum is the least disturbed
sample, and one slow run cannot fail the gate. The first floor still
has little room on a shared host whose speed drifts for minutes at a
time. Both wins are partly algorithmic (cells avoid the
monolithic runner's whole-field scans; regions price calls with zero
kernel events), so they hold even where the worker cap collapses the
shards onto one core.

Rows are not byte-identical across the legs (that contract holds across
shard counts of the sharded runtime, see ``test_shard_determinism.py``).
Instead each pair's observables (bandwidth mean, task p99, makespan)
must agree within 10 %.

Slow (about two minutes): run with ``python -m pytest
tests/sim/test_shard_speedup.py -q -m ""``.
"""

import time

import pytest

from repro.apps import SCENARIO_B
from repro.platforms import platform_config
from repro.platforms.scenario_runner import ScenarioRunner
from repro.sim.shard import run_sharded

pytestmark = pytest.mark.slow

N_DEVICES = 1024
SEED = 0
TOLERANCE = 0.10
#: Runs per leg; a leg's wall time is the fastest of them.
RUNS = 3


def _timed(run):
    start = time.perf_counter()
    result = run()
    wall = time.perf_counter() - start
    bandwidth_mean, _ = result.bandwidth_summary()
    return wall, (bandwidth_mean, result.task_latencies.p99,
                  result.extras["makespan_s"])


#: (baseline leg, candidate leg, wall-clock speedup floor)
PAIRS = (("monolithic", "sharded", 1.2),
         ("sharded", "cloud-sharded", 1.3))


def test_shard_speedup_floors():
    config = platform_config("hivemind")
    runs = {
        "monolithic": lambda: ScenarioRunner(
            config, SCENARIO_B, seed=SEED, n_devices=N_DEVICES).run(),
        "sharded": lambda: run_sharded(
            config, SCENARIO_B, N_DEVICES, seed=SEED, shards=4),
        "cloud-sharded": lambda: run_sharded(
            config, SCENARIO_B, N_DEVICES, seed=SEED, shards=4,
            cloud_shards=4),
    }
    samples = {name: [] for name in runs}
    for _ in range(RUNS):
        for name, run in runs.items():
            samples[name].append(_timed(run))
    legs = {}
    for name, timed in samples.items():
        # Fixed seed: every run of a leg yields the same observables.
        assert len({observed for _, observed in timed}) == 1, name
        legs[name] = min(timed)
    for baseline, candidate, floor in PAIRS:
        base_wall, base_obs = legs[baseline]
        wall, observed = legs[candidate]
        speedup = base_wall / wall
        print(f"{candidate} vs {baseline}: {base_wall:.2f}s -> "
              f"{wall:.2f}s, speedup {speedup:.2f}x (floor {floor}x)")
        assert speedup >= floor, (
            f"{candidate} is {speedup:.2f}x over {baseline}, "
            f"below {floor}x")
        for name, got, want in zip(("bandwidth", "p99", "makespan"),
                                   observed, base_obs):
            assert abs(got - want) <= TOLERANCE * abs(want), (
                f"{name}: {candidate} {got} deviates more than "
                f"{TOLERANCE:.0%} from {baseline} {want}")
