"""Per-layer event accounting on the event-driven OpenWhisk cell.

Every layer tags the kernel events it schedules (``sim/accounting.py``);
what is left untagged is reported as ``other``. On the single-tier S3
cell each task's events are all tagged now: the drone's sampling clock
is ``edge``, and the front end, the one auth + controller timeout, the
Kafka hop, the invoker steps and the completion signal are
``serverless``. A core grant or completion signal settled in place
(``Environment.succeed_next``) is no event and carries no tag. Only the
16 drone generator processes (an ``Initialize`` and a completion each)
stay ``other``. On a HiveMind Scenario A mission the straggler race adds
the mitigator's alarms to ``serverless``; what stays ``other`` is the
mission, orchestration and failure-detector processes and their own
waits.
"""

from repro.apps import SCENARIO_A, app
from repro.platforms import ScenarioRunner, SingleTierRunner, platform_config
from repro.sim.accounting import layer_breakdown, layer_counts
from repro.sim.kernel import events_consumed


def _breakdown(run):
    events, layers = events_consumed(), layer_counts()
    run()
    total = events_consumed() - events
    after = layer_counts()
    return total, layer_breakdown(
        {layer: after[layer] - layers[layer] for layer in after}, total)


def test_s3_cell_tags_every_task_event():
    total, breakdown = _breakdown(
        SingleTierRunner(platform_config("centralized_faas"), app("S3"),
                         seed=0, duration_s=30.0, load_fraction=0.6).run)
    # Exact: a tag without its event (or an event without its tag)
    # moves a count. 490 tasks, 480 frame ticks, 16 drones. Every
    # activation's core grant and completion signal are settled in
    # place (nothing else is due at their instant): 3,430 tagged
    # events when both were scheduled, 3,430 - 2 * 490 = 2,450 now.
    assert breakdown == {"edge": 480, "network": 1893,
                         "serverless": 2450, "other": 32}
    assert breakdown["other"] < 0.10 * total


def test_scenario_a_mission_tags_the_straggler_race():
    total, breakdown = _breakdown(
        ScenarioRunner(platform_config("hivemind"), SCENARIO_A, seed=1,
                       n_devices=16).run)
    # Exact: 626 activations, 596 of them raced. With a core grant, a
    # completion signal and a watchdog each scheduled this was 5,602;
    # now all 2 * 626 = 1,252 grants and signals settle in place, and
    # the 596 watchdogs are 59 alarms at a first live deadline plus 17
    # bare alarms at the latest deadline when none was left open:
    # 5,602 - 1,252 - (596 - 76) = 3,830.
    assert breakdown == {"edge": 1300, "network": 2418,
                         "serverless": 3830, "other": 108}
    assert breakdown["other"] < 0.10 * total
