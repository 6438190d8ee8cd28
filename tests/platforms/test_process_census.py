"""Process census: which generators still run as kernel processes.

A :class:`~repro.sim.kernel.Process` costs an ``Initialize`` and a
completion event on top of the events its generator yields. Frame
batches, single-tier tasks and invoker activation handlers start through
``Environment.start`` and the obstacle branch is a core reservation, so
none of them may show up here; the other counts are pinned so a
per-batch or per-activation spawn cannot come back unnoticed.
"""

from collections import Counter

import pytest

from repro.apps import SCENARIO_A, app
from repro.platforms import ScenarioRunner, SingleTierRunner, platform_config
from repro.sim import kernel

STARTED_IN_PLACE = ("ScenarioRunner.start.<locals>.handle_batch",
                    "SingleTierRunner.run.<locals>.handle",
                    "Invoker._handle")


@pytest.fixture
def census(monkeypatch):
    counts = Counter()
    init = kernel.Process.__init__

    def counting_init(self, env, generator):
        counts[generator.__qualname__] += 1
        init(self, env, generator)

    monkeypatch.setattr(kernel.Process, "__init__", counting_init)
    return counts


def test_scenario_a_spawns_no_process_per_batch(census):
    ScenarioRunner(platform_config("hivemind"), SCENARIO_A, seed=1,
                   n_devices=16).run()
    assert not any(census[name] for name in STARTED_IN_PLACE)
    assert dict(census) == {
        "FailureDetector._check": 1,
        "OpenWhiskPlatform.invoke": 626,
        "ScenarioRunner.start.<locals>.mission": 16,
        "ScenarioRunner.start.<locals>.orchestrate": 1,
    }


def test_single_tier_spawns_no_process_per_task(census):
    SingleTierRunner(platform_config("centralized_faas"), app("S3"),
                     seed=0, duration_s=30.0, load_fraction=0.6).run()
    assert not any(census[name] for name in STARTED_IN_PLACE)
    assert dict(census) == {
        "SingleTierRunner.run.<locals>.generator": 16,
    }
