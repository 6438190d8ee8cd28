"""Per-layer kernel-event accounting.

:func:`repro.sim.kernel.events_consumed` says how many events the kernel
dispatched; this module says *on whose behalf*. The edge, network, and
serverless layers tag the events they schedule at their chokepoints
(engine wakes, on-board core reservations and the single-tier drone's
sampling clock; link grants/serialization/propagation and the edge
RPC's processing and ack timeouts; the OpenWhisk front end, the one
timeout that covers CouchDB authentication and the controller, other
CouchDB passes, Kafka, the invoker's steps and its completion signal),
and the benchmark harness reports the breakdown so the next
optimisation target is measured instead of guessed.

The counters are process-wide (like ``events_consumed``) and tagged *at
scheduling time*: a layer adds ``n`` when it schedules ``n`` kernel
events. Untagged traffic — the start and completion events of
:class:`~repro.sim.kernel.Process` objects (generators started with
``Environment.start``, such as the invoker's activation handler, have
neither), the straggler race's watchdog and condition, harness
orchestration — is reported as ``other`` (total dispatched minus
tagged). Tags are plain integer adds on one-element lists, cheap enough
for the hot paths that call them.

Pool workers count into their own process; the executor ships each
worker's deltas back (see :mod:`repro.experiments.parallel`) exactly as
it does for the total event count.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["LAYERS", "tally", "layer_counts", "layer_breakdown"]

#: The tagged layers, in reporting order.
LAYERS = ("edge", "network", "serverless")

_COUNTS: Dict[str, list] = {layer: [0] for layer in LAYERS}

#: Module-level aliases so hot paths skip the dict lookup.
_EDGE = _COUNTS["edge"]
_NETWORK = _COUNTS["network"]
_SERVERLESS = _COUNTS["serverless"]


def tally(layer: str, n: int = 1) -> None:
    """Record ``n`` kernel events scheduled on behalf of ``layer``."""
    _COUNTS[layer][0] += n


def layer_counts() -> Dict[str, int]:
    """Events tagged per layer in this process since import (monotone)."""
    return {layer: box[0] for layer, box in _COUNTS.items()}


def layer_breakdown(counts: Dict[str, int], total: int) -> Dict[str, int]:
    """Attach the untagged remainder (``other``) to a per-layer delta.

    ``counts`` maps layers to tagged-event deltas and ``total`` is the
    events-dispatched delta over the same interval. Clamped at zero: a
    layer may tag events it schedules that a run(until=...) horizon never
    dispatches.
    """
    tagged = sum(counts.get(layer, 0) for layer in LAYERS)
    out = {layer: int(counts.get(layer, 0)) for layer in LAYERS}
    out["other"] = max(0, int(total) - tagged)
    return out
