"""Per-layer event accounting on the event-driven OpenWhisk cell.

Every layer tags the kernel events it schedules (``sim/accounting.py``);
what is left untagged is reported as ``other``. On the single-tier S3
cell each task's events are all tagged now: the drone's sampling clock
is ``edge``, and the front end, the one auth + controller timeout, the
Kafka hop, the invoker steps and the completion signal are
``serverless``. Only the 16 drone generator processes (an ``Initialize``
and a completion each) stay ``other``.
"""

from repro.apps import app
from repro.platforms import SingleTierRunner, platform_config
from repro.sim.accounting import layer_breakdown, layer_counts
from repro.sim.kernel import events_consumed


def test_s3_cell_tags_every_task_event():
    events, layers = events_consumed(), layer_counts()
    SingleTierRunner(platform_config("centralized_faas"), app("S3"),
                     seed=0, duration_s=30.0, load_fraction=0.6).run()
    total = events_consumed() - events
    after = layer_counts()
    breakdown = layer_breakdown(
        {layer: after[layer] - layers[layer] for layer in after}, total)
    # Exact: a tag without its event (or an event without its tag)
    # moves a count. 490 tasks, 480 frame ticks, 16 drones.
    assert breakdown == {"edge": 480, "network": 1893,
                         "serverless": 3430, "other": 32}
    assert breakdown["other"] < 0.10 * total
