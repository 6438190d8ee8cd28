"""Kafka publish-subscribe bus (the Controller-to-Invoker path).

The OpenWhisk controller hands activations to invokers through Kafka topics
(section 4.3). The model is one subscriber per topic with a fixed
publish-to-deliver hop latency — enough to charge the management pipeline
its real cost without simulating brokers.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Optional

from ..config import ServerlessConstants
from ..sim import Environment
from ..sim.accounting import tally

__all__ = ["KafkaBus"]


class KafkaBus:
    """Named topics with a fixed hop latency.

    Each topic has exactly one consumer, registered with :meth:`subscribe`;
    a publish hands its message straight to that callback once the hop
    latency has passed."""

    def __init__(self, env: Environment,
                 constants: Optional[ServerlessConstants] = None):
        self.env = env
        self.constants = constants or ServerlessConstants()
        self._subscribers: Dict[str, Callable[[Any], None]] = {}
        self.published = 0
        #: Chaos outage window: publishes stall until this instant (the
        #: broker is unreachable; producers buffer and retry). 0.0 in
        #: fault-free runs, where the guard in :meth:`publish` never fires.
        self._outage_until = 0.0

    def set_outage(self, until: float) -> None:
        """Stall publishes until ``until`` (chaos Kafka outage window)."""
        self._outage_until = max(self._outage_until, until)

    def subscribe(self, topic: str, callback: Callable[[Any], None]) -> None:
        """Register the consumer of ``topic``: a publish hands it each
        message at delivery time (after the hop latency)."""
        if topic in self._subscribers:
            raise ValueError(f"topic {topic!r} already has a subscriber")
        self._subscribers[topic] = callback

    def publish(self, topic: str, message: Any) -> Generator:
        """Process: deliver ``message`` to the topic's subscriber after the
        bus hop latency. A topic nobody subscribed to raises ``KeyError``:
        its message could never be consumed."""
        callback = self._subscribers.get(topic)
        if callback is None:
            raise KeyError(f"topic {topic!r} has no subscriber")
        if self.env.now < self._outage_until:  # chaos outage window
            tally("serverless", 1)
            yield self.env.timeout_at(self._outage_until)
        yield self.env.timeout(self.constants.kafka_hop_s)
        tally("serverless", 1)
        callback(message)
        self.published += 1
