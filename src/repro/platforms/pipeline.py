"""One task pipeline: the stages every runner's tasks pass through.

The paper runs every task as the same chain on every platform: an
on-board stage, the wireless upload, execution on the serverless cloud or
a reserved pool, then the download of the response (outputs a graph
persists go through :meth:`~repro.platforms.stack.CloudStack.persist`).
Only where each stage runs changes. :class:`TaskPipeline` holds each
stage once; the runners' per-task handlers call them in the order their
task needs. The handlers keep what fixes every pinned row: every draw
from the workload stream and every core claim
(:meth:`~repro.edge.device.EdgeDevice.reserve`), in recorded order, so a
stage draws nothing and claims no core.
"""

from __future__ import annotations

from typing import Generator

from ..network import NetworkPartitioned, RpcTimeout
from ..obs import NULL_CONTEXT
from ..serverless import InvocationRequest
from ..telemetry import BreakdownAggregate, LatencyBreakdown, MetricSeries
from .stack import build_edge_rpc

__all__ = ["TaskPipeline", "EDGE_FILTER_SLOWDOWN", "TX_DUTY"]

#: A filter/crop/compress pass is simple streaming work: it does not suffer
#: the cache-starved CNN slowdown on the A8.
EDGE_FILTER_SLOWDOWN = 1.5
#: Fraction of a transfer's wall time the radio spends at TX-level power;
#: while queued behind other stations it idles in backoff (CSMA carrier
#: sense and retries keep it partially active).
TX_DUTY = 0.35


class TaskPipeline:
    """The task stages of one run over its ``cloud`` (a
    :class:`~repro.platforms.stack.CloudStack`) or reserved ``pool``. A
    ``recovery_log`` (chaos runs only) makes the edge transport retry
    across partitions and arms the heal gate held transfers wait on."""

    def __init__(self, env, config, constants, fabric, cloud, pool,
                 series_name: str, recovery_log=None):
        self.env = env
        self.wireless = fabric.wireless
        self.edge_rpc = build_edge_rpc(env, config, constants,
                                       fabric.wireless, recovery_log)
        self.cloud = cloud
        self.pool = pool
        self.latencies = MetricSeries(series_name)
        self.breakdowns = BreakdownAggregate()
        self.recovery_log = recovery_log
        self._heal_waiters: list = []
        if recovery_log is not None:
            fabric.wireless.add_heal_listener(self._on_heal)

    # -- heal gate ------------------------------------------------------------
    def _on_heal(self) -> None:
        waiting, self._heal_waiters = self._heal_waiters, []
        for gate in waiting:
            gate.succeed()

    def _wait_for_heal(self) -> Generator:
        """Park until the cloud partition heals (no-op when connected)."""
        if not self.wireless.partitioned:
            return
        gate = self.env.event()
        self._heal_waiters.append(gate)
        yield gate

    # -- stages ---------------------------------------------------------------
    def edge_stage(self, done, breakdown: LatencyBreakdown,
                   trace=NULL_CONTEXT, span: str = "edge_execute"
                   ) -> Generator:
        """Await an on-board stage whose core ``done`` (a
        :meth:`~repro.edge.device.EdgeDevice.reserve` timeout) claimed."""
        start = self.env.now
        service = yield done
        breakdown.charge("execution", service)
        if trace:
            trace.emit(span, "edge", start, self.env.now)

    def upload(self, device, megabytes: float, breakdown: LatencyBreakdown,
               trace=NULL_CONTEXT, hold: bool = False) -> Generator:
        """Push ``megabytes`` to the cloud and charge the radio. When the
        transport gives up (:class:`RpcTimeout`, chaos only), a ``hold``
        upload retries after the heal inside the same span; otherwise the
        span closes timed out and the timeout reaches the caller."""
        env = self.env
        push_ctx = trace.span("upload", "network", env.now)
        while True:
            try:
                push_s = yield from self.edge_rpc.push(
                    device.device_id, megabytes, trace=push_ctx)
                break
            except RpcTimeout:
                if not hold:
                    push_ctx.close(env.now, timed_out=True)
                    raise
                yield from self._wait_for_heal()
        push_ctx.close(env.now, mb=megabytes)
        # CSMA contention keeps the radio active for most of the
        # transfer's wall time, not just its serialization slice.
        device.account_tx(TX_DUTY * push_s)
        breakdown.charge("network", push_s)

    def execute(self, spec, service_s: float, input_mb: float,
                output_mb: float, breakdown: LatencyBreakdown,
                trace=NULL_CONTEXT, parallelism: int = 1) -> Generator:
        """Run the task in the cloud or the pool; returns the cloud
        invocation (``None`` for the pool and for fan-outs)."""
        env = self.env
        if self.cloud is not None:
            request = InvocationRequest(
                spec=spec, service_s=service_s, input_mb=input_mb,
                output_mb=output_mb, trace=trace)
            if parallelism <= 1:
                return (yield from self.cloud.invoke(request, breakdown))
            shards = yield from self.cloud.platform.invoke_parallel(
                request, parallelism)
            for shard in shards:
                breakdown.charge("management",
                                 shard.breakdown.management / len(shards))
                breakdown.charge("data_io",
                                 shard.breakdown.data_io / len(shards))
            breakdown.charge("execution",
                             max(s.breakdown.execution for s in shards))
            return None
        start = env.now
        wait_s, service_s = yield from self.pool.execute(service_s)
        breakdown.charge("management", wait_s)
        breakdown.charge("execution", service_s)
        if trace:
            trace.emit("pool_queue", "serverless", start, start + wait_s)
            trace.emit("execute", "execution", start + wait_s, env.now)
        return None

    def download(self, device, megabytes: float,
                 breakdown: LatencyBreakdown,
                 trace=NULL_CONTEXT) -> Generator:
        """Fetch the response; across a partition it waits cloud-side and
        is re-fetched after the heal."""
        env = self.env
        down_ctx = trace.span("download", "network", env.now)
        while True:
            try:
                down_s = yield from self.wireless.download(
                    device.device_id, megabytes, trace=down_ctx)
                break
            except NetworkPartitioned:
                yield from self._wait_for_heal()
        down_ctx.close(env.now, mb=megabytes)
        device.account_rx(TX_DUTY * down_s)
        breakdown.charge("network", down_s)

    def shed(self, device, done, output_mb: float,
             breakdown: LatencyBreakdown, trace=NULL_CONTEXT) -> Generator:
        """Cloud unreachable past the retry budget (chaos only): await the
        on-device fallback ``done`` claimed, then hold its (small) result
        until the partition heals so downstream consumers still get it."""
        action = self.recovery_log.record("shed")
        if trace:
            trace.emit("shed_to_edge", "serverless", self.env.now,
                       self.env.now)
        yield from self.edge_stage(done, breakdown, trace)
        yield from self.upload(device, output_mb, breakdown, trace,
                               hold=True)
        self.recovery_log.complete(action)

    def record(self, start: float, breakdown: LatencyBreakdown) -> None:
        """One finished task's row: latency since ``start``, breakdown."""
        self.latencies.add(self.env.now - start, time=start)
        self.breakdowns.add(breakdown)
