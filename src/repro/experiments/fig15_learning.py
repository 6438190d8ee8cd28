"""Fig 15: decision quality without and with retraining.

Runs both end-to-end scenarios on HiveMind with the recognition model's
continuous learning set to ``none`` (never retrained), ``self`` (each
device retrains on its own decisions), and ``swarm`` (the whole swarm's
decisions retrain one global model).

Expected shape: never-retrained models leave a non-trivial rate of false
positives and negatives; per-device retraining improves accuracy; swarm-
wide retraining converges fastest and nearly eliminates both error kinds.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..apps import SCENARIO_A, SCENARIO_B, scenario
from ..platforms import ScenarioRunner, platform_config
from .common import ExperimentResult
from .parallel import run_sweep

MODES = ("none", "self", "swarm")


def _mode_cell(scenario_key: str, mode: str, seed: int,
               passes: int) -> Tuple[float, float, float, int]:
    """(correct%, fn%, fp%, decisions) — picklable pool cell."""
    result = ScenarioRunner(
        platform_config("hivemind"), scenario(scenario_key), seed=seed,
        retraining=mode, passes=passes).run()
    tally = result.extras["tally"]
    correct, fn, fp = tally.as_row()
    return (correct, fn, fp, tally.decisions)


def run(base_seed: int = 0, passes: int = 4,
        max_workers: Optional[int] = None) -> ExperimentResult:
    cells = [(scenario.key, mode, base_seed, passes)
             for scenario in (SCENARIO_A, SCENARIO_B)
             for mode in MODES]
    samples = run_sweep(_mode_cell, cells, max_workers=max_workers)

    rows: List[List] = []
    data: Dict[str, Dict] = {}
    for (scenario_key, mode, _, _), sample in zip(cells, samples):
        correct, fn, fp, decisions = sample.value
        key = f"{scenario_key}:{mode}"
        rows.append([key, round(correct, 1), round(fn, 1), round(fp, 1)])
        data[key] = {"correct_pct": correct, "fn_pct": fn,
                     "fp_pct": fp, "decisions": decisions}
    return ExperimentResult(
        figure="fig15",
        title="Detection accuracy by retraining mode",
        headers=["key", "correct_pct", "false_neg_pct", "false_pos_pct"],
        rows=rows,
        data=data,
    )
