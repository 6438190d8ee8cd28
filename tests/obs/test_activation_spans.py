"""One OpenWhisk activation, traced: the management stages it passes.

The platform claims CouchDB's auth pass and the controller slot in one
step, so the ``frontend``, ``couchdb_auth`` and ``controller`` spans are
computed rather than observed at three events. They must still tile the
stretch from the front end to the placement decision with no gap, and
the controller span must cover at least its fixed hold. Persist keys
and container ids come from per-platform counters, so a run repeated in
the same process traces the same keys.
"""

from collections import defaultdict

import pytest

from repro import obs
from repro.apps import SCENARIO_A, app
from repro.config import ServerlessConstants
from repro.platforms import ScenarioRunner, SingleTierRunner, platform_config

STAGES = ("frontend", "couchdb_auth", "controller")


def _s3_spans():
    obs.install()
    SingleTierRunner(platform_config("centralized_faas"), app("S3"),
                     seed=0, duration_s=30.0, load_fraction=0.9).run()
    return obs.active_tracer().spans


def test_management_spans_are_contiguous():
    spans = _s3_spans()
    stages = defaultdict(dict)
    for span in spans:
        if span.name in STAGES:
            assert span.name not in stages[span.parent_id]
            stages[span.parent_id][span.name] = span
    assert len(stages) > 400
    constants = ServerlessConstants()
    hold = constants.controller_decision_s + constants.controller_service_s
    for by_name in stages.values():
        frontend, auth, controller = (by_name[name] for name in STAGES)
        assert frontend.duration == pytest.approx(
            constants.frontend_latency_s)
        assert frontend.end == auth.start
        assert auth.end == controller.start
        assert auth.duration >= constants.auth_check_s * (1 - 1e-12)
        assert controller.duration >= hold * (1 - 1e-12)
    # Under load the controller queues some activations past its hold.
    assert any(by_name["controller"].duration > hold * 1.5
               for by_name in stages.values())


def _persist_keys():
    obs.reset()
    obs.install()
    ScenarioRunner(platform_config("hivemind"), SCENARIO_A, seed=3,
                   n_devices=4).run()
    return [span.attr_dict()["key"] for span in obs.active_tracer().spans
            if span.name == "persist"]


def test_repeated_run_traces_the_same_keys():
    first = _persist_keys()
    assert first, "the mission persists nothing: no key to compare"
    assert _persist_keys() == first
