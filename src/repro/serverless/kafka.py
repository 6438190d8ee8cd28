"""Kafka publish-subscribe bus (the Controller-to-Invoker path).

The OpenWhisk controller hands activations to invokers through Kafka topics
(section 4.3). The model is a per-topic FIFO with a fixed publish-to-deliver
hop latency — enough to charge the management pipeline its real cost without
simulating brokers.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Optional

from ..config import ServerlessConstants
from ..sim import Environment, Store
from ..sim.accounting import tally

__all__ = ["KafkaBus"]


class KafkaBus:
    """Named topics with a fixed hop latency.

    Topics are unbounded, so a publish appends its message inline after
    the hop latency (``Store.put_nowait``) instead of paying a put-event
    round trip; waiting consumers are served in FIFO order."""

    def __init__(self, env: Environment,
                 constants: Optional[ServerlessConstants] = None):
        self.env = env
        self.constants = constants or ServerlessConstants()
        self._topics: Dict[str, Store] = {}
        self._subscribers: Dict[str, Callable[[Any], None]] = {}
        self.published = 0
        #: Chaos outage window: publishes stall until this instant (the
        #: broker is unreachable; producers buffer and retry). 0.0 in
        #: fault-free runs, where the guard in :meth:`publish` never fires.
        self._outage_until = 0.0

    def set_outage(self, until: float) -> None:
        """Stall publishes until ``until`` (chaos Kafka outage window)."""
        self._outage_until = max(self._outage_until, until)

    def topic(self, name: str) -> Store:
        found = self._topics.get(name)
        if found is None:
            found = Store(self.env)
            self._topics[name] = found
        return found

    def subscribe(self, topic: str, callback: Callable[[Any], None]) -> None:
        """Register a direct-delivery consumer for ``topic``.

        A publish then hands the message straight to ``callback`` at
        delivery time (after the hop latency) instead of waking a
        consumer waiting on the topic store — one fewer kernel event per
        activation, same delivery instant and FIFO order."""
        if topic in self._subscribers:
            raise ValueError(f"topic {topic!r} already has a subscriber")
        self._subscribers[topic] = callback

    def publish(self, topic: str, message: Any) -> Generator:
        """Process: publish after the bus hop latency."""
        if self.env.now < self._outage_until:  # chaos outage window
            tally("serverless", 1)
            yield self.env.timeout_at(self._outage_until)
        yield self.env.timeout(self.constants.kafka_hop_s)
        callback = self._subscribers.get(topic)
        if callback is not None:
            tally("serverless", 1)
            callback(message)
            self.published += 1
            return
        tally("serverless", 1)
        self.topic(topic).put_nowait(message)
        self.published += 1

    def consume(self, topic: str) -> Generator:
        """Process: blocking consume of the next message on ``topic``."""
        tally("serverless", 1)
        message = yield self.topic(topic).get()
        return message

    def depth(self, topic: str) -> int:
        return len(self.topic(topic))
