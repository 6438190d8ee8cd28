"""Perception pins: Scenario B and the fig15 retraining rows, held to
recorded digests.

Scenario B is the one mission whose rows depend on the people footprint
(:meth:`FieldWorld.visible_people`), the recognizer's centroid matrix
(:class:`NearestCentroidClassifier`) and the S5 deduplication clusters
(:class:`DeduplicationEngine`). The digests below were recorded from the
per-walker / per-cluster scalar scans; the array code that replaced them
must leave every row, tally count and unique-people count where it was.
"""

import hashlib

import pytest

from repro.apps import SCENARIO_B
from repro.experiments import fig15_learning
from repro.platforms import ScenarioRunner, platform_config


def _digest(value) -> str:
    return hashlib.md5(repr(value).encode()).hexdigest()


SCENARIO_B_16 = {
    "hivemind": "252c36673c172b80f6110a27e8e2286b",
    "distributed_edge": "fe430d4c2909e499fca69c529fb27988",
}

FIG15_ROWS = "5083135af286c847e4be3f57ed2278ae"


@pytest.mark.parametrize("name", sorted(SCENARIO_B_16))
def test_scenario_b_16(name):
    result = ScenarioRunner(platform_config(name), SCENARIO_B, seed=1,
                            n_devices=16).run()
    tally = result.extras["tally"]
    evidence = (
        tuple(result.task_latencies.values),
        tuple(result.task_latencies.times),
        (tally.correct, tally.false_negatives, tally.false_positives,
         tally.true_negatives),
        result.extras["unique_people"],
    )
    assert _digest(evidence) == SCENARIO_B_16[name]


def test_fig15_retraining_rows():
    """NONE, SELF (one classifier per device) and SWARM, both scenarios."""
    result = fig15_learning.run(max_workers=1)
    assert _digest((result.rows, sorted(result.data.items()))) == FIG15_ROWS
