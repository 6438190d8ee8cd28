"""CouchDB model (OpenWhisk's authentication and data-sharing store).

OpenWhisk consults CouchDB for subject authentication on every request and —
because functions may not communicate directly — stores intermediate results
there for dependent functions (sections 2.3, 3.3). The model captures what
the figures depend on:

- a per-operation base latency with a heavy (Pareto) tail, reproducing the
  compaction/contention spikes behind Fig 6c's tall CouchDB whiskers;
- limited effective throughput, so many-MB intermediate objects are slow;
- a single serialized service queue, so concurrent accessors interfere
  (section 4.4: "expensive, especially when many functions try to access
  data concurrently").

The concurrency-``k`` FIFO service runs on virtual clocks: a ``k``-entry
min-heap of server-free times yields each operation's grant instant in
O(log k), and one ``timeout_at`` event completes it. The per-request auth
check is only a claim (:meth:`CouchDB.claim`): the platform folds its end
instant into the controller's timeout instead. CouchDB owns its RNG
stream exclusively and FIFO multi-server grant order equals arrival
order, so the Pareto tail draw happens at arrival time without
perturbing the draw sequence (see DESIGN.md, "Virtual-clock queueing").
"""

from __future__ import annotations

import heapq
from typing import Generator, List, Optional

import numpy as np

from ..config import ServerlessConstants
from ..sim import Environment
from ..sim.accounting import tally

__all__ = ["CouchDB"]


class CouchDB:
    """Shared document store with tail-heavy access latency."""

    #: Requests the store serves at once.
    CONCURRENCY = 8

    def __init__(self, env: Environment,
                 constants: Optional[ServerlessConstants] = None,
                 rng: Optional[np.random.Generator] = None):
        self.env = env
        self.constants = constants or ServerlessConstants()
        self._rng = rng
        #: Virtual clocks: when each of the ``CONCURRENCY`` servers
        #: frees up.
        self._free: List[float] = [0.0] * self.CONCURRENCY
        self._documents = {}
        #: Chaos outage window: no operation starts service before this
        #: instant. 0.0 (the past) in fault-free runs, where the guard in
        #: :meth:`_serve` never fires.
        self._outage_until = 0.0

    def set_outage(self, until: float) -> None:
        """Refuse service until ``until`` (chaos CouchDB outage window).

        Queued operations are not lost — they stall and drain when the
        store comes back, which is how the real CouchDB behaves across a
        compaction stall or restart."""
        self._outage_until = max(self._outage_until, until)

    def _op_latency(self, megabytes: float) -> float:
        base = (self.constants.couchdb_latency_s +
                megabytes / self.constants.couchdb_mbs)
        if self._rng is None:
            return base
        # Pareto-tailed multiplier, mean ~ alpha/(alpha-1).
        alpha = self.constants.couchdb_tail_alpha
        multiplier = (1.0 + self._rng.pareto(alpha))
        return base * multiplier

    def claim(self, duration: float) -> float:
        """Claim one FIFO pass through the concurrency-k service that
        arrives now; returns the instant it ends. Schedules nothing.

        Grant instants never decrease in claim order (the earliest-free
        server only moves later, as do ``now`` and the outage end), so
        passes of equal duration also end in claim order."""
        free_at = heapq.heappop(self._free)
        grant_at = free_at if free_at > self.env.now else self.env.now
        if grant_at < self._outage_until:  # chaos outage window
            grant_at = self._outage_until
        end = grant_at + duration
        heapq.heappush(self._free, end)
        return end

    def _serve(self, duration: float) -> Generator:
        """Process: one FIFO pass through the concurrency-k service."""
        tally("serverless", 1)
        yield self.env.timeout_at(self.claim(duration))

    def access(self, megabytes: float = 0.0) -> Generator:
        """Process: one read-or-write of ``megabytes``; returns seconds."""
        if megabytes < 0:
            raise ValueError("size must be non-negative")
        start = self.env.now
        yield from self._serve(self._op_latency(megabytes))
        return self.env.now - start

    def store(self, key: str, megabytes: float) -> Generator:
        """Process: persist a document (used by the Persist directive)."""
        took = yield from self.access(megabytes)
        self._documents[key] = megabytes
        return took

    def has_document(self, key: str) -> bool:
        return key in self._documents

    @property
    def document_count(self) -> int:
        return len(self._documents)
