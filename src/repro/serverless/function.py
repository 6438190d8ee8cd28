"""Function and invocation records for the serverless platform.

- :class:`FunctionSpec` — static registration of a serverless action
  (name, memory reservation, container image), as registered with
  OpenWhisk.
- :class:`InvocationRequest` — one activation: the work to do (service
  seconds on one core), payload sizes, and the optional parent invocation
  whose output this function consumes (multi-tier jobs).
- :class:`Invocation` — the completed record with the timestamp trail and
  the latency breakdown the figures aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..obs import NULL_CONTEXT
from ..telemetry import LatencyBreakdown

__all__ = ["FunctionSpec", "InvocationRequest", "Invocation"]


@dataclass(frozen=True)
class FunctionSpec:
    """A registered serverless action."""

    name: str
    memory_mb: float = 256.0
    #: Runtimes with identical images can share a warm container; different
    #: software dependencies force a cold start (section 4.3 notes a child
    #: may need different dependencies than its parent).
    image: str = "default"

    def __post_init__(self):
        if not self.name:
            raise ValueError("function name must be non-empty")
        if self.memory_mb <= 0:
            raise ValueError("memory reservation must be positive")


@dataclass
class InvocationRequest:
    """One activation of a function."""

    spec: FunctionSpec
    service_s: float
    input_mb: float = 0.0
    output_mb: float = 0.0
    #: Parent invocation whose output this function consumes; drives the
    #: data-sharing path (CouchDB / RPC / in-memory / remote memory).
    parent: Optional["Invocation"] = None
    #: HiveMind hint: the scheduler may place this function in its parent's
    #: container for in-memory data exchange (section 4.3).
    colocate_with_parent: bool = True
    #: Back-pointer to this request's live invocation record, filled in by
    #: the platform at invoke time. Lets wrappers (straggler mitigation,
    #: chaos recovery) attribute the request to the server it actually ran
    #: on instead of guessing from global history.
    inflight: Optional["Invocation"] = None
    #: Causal trace handle for this request (``repro.obs``); the falsy
    #: NULL_CONTEXT when tracing is off, so every span site is one branch.
    trace: Any = NULL_CONTEXT

    def __post_init__(self):
        if self.service_s < 0:
            raise ValueError("service time must be non-negative")
        if self.input_mb < 0 or self.output_mb < 0:
            raise ValueError("payload sizes must be non-negative")


@dataclass
class Invocation:
    """The completed (or in-flight) record of one activation."""

    request: InvocationRequest
    #: Drawn from the platform's own counter, so ids (and the persist
    #: keys built from them) do not depend on what else ran in the
    #: process.
    invocation_id: int
    t_arrive: float = 0.0
    t_scheduled: float = 0.0
    t_complete: float = 0.0
    server_id: str = ""
    container_id: str = ""
    cold_start: bool = False
    colocated: bool = False
    failures: int = 0
    #: Times this activation was re-enqueued after its invoker/server
    #: crashed mid-flight (chaos recovery; always 0 in fault-free runs).
    requeues: int = 0
    #: Instantiation seconds of the function's container (the Fig 6b
    #: "instantiation" slice; also charged to the breakdown's management
    #: component).
    instantiation_s: float = 0.0
    #: Inter-function data exchange seconds (the Fig 6b "data I/O" slice).
    data_share_s: float = 0.0
    breakdown: LatencyBreakdown = field(default_factory=LatencyBreakdown)
    #: Per-invocation child trace context, opened by the platform at
    #: invoke time and closed when the invocation completes.
    trace: Any = NULL_CONTEXT

    @property
    def spec(self) -> FunctionSpec:
        return self.request.spec

    @property
    def latency_s(self) -> float:
        """End-to-end latency inside the cloud (arrival to completion)."""
        return self.t_complete - self.t_arrive
