"""The kernel's inlined dispatch loop: order, horizon, pins.

``Environment.run`` pops one (time, priority, insertion id) heap and
dispatches in one loop. It used to run beside a step-at-a-time twin, and
later merged zero-delay FIFO lanes into the heap and recycled timeouts
through pools; every one of these dispatched identical traces and rows
at fixed seeds, and the md5 digests recorded before the twin, lanes and
pools were deleted are pinned here as the exactness contract.
"""

import hashlib

import pytest

from repro.sim import Environment
from repro.sim.kernel import NORMAL, URGENT

pytestmark = pytest.mark.quick


def _mixed_workload(env, trace):
    """Delayed, zero-delay and urgent events, and ties, on one timeline."""

    def worker(tag, delay):
        yield env.timeout(delay)
        trace.append((env.now, f"{tag}-a"))
        yield env.timeout(0)  # zero-delay: after the instant's ties
        trace.append((env.now, f"{tag}-b"))

    def urgent_ping():
        for i in range(3):
            event = env.event()
            event.succeed(priority=URGENT)
            yield event
            trace.append((env.now, f"urgent{i}"))
            yield env.timeout(0.5)

    def late_value():
        yield env.timeout(4.0)
        return "done"

    for tag, delay in (("x", 1.0), ("y", 1.0), ("z", 2.5)):
        env.process(worker(tag, delay))
    env.process(urgent_ping())
    return env.process(late_value())


def _digest(value) -> str:
    return hashlib.md5(repr(value).encode()).hexdigest()


def test_dispatch_order_and_return_value_parity():
    env = Environment()
    trace = []
    value = env.run(_mixed_workload(env, trace))
    assert value == "done"
    assert _digest((trace, value)) == "633bf33ebfa2a46aa8fb3fbb97624c8a"


def test_run_until_time_parity():
    env = Environment()
    trace = []
    _mixed_workload(env, trace)
    env.run(until=1.0)
    assert env.now == 1.0
    # Events strictly after the horizon stay queued.
    assert trace and all(t <= 1.0 for t, _ in trace)


def test_normal_priority_fifo_parity():
    env = Environment()
    order = []

    def chain(tag):
        event = env.event()
        event.succeed(priority=NORMAL)
        yield event
        order.append(tag)

    for tag in "abc":
        env.process(chain(tag))
    env.run()
    assert order == list("abc")


def test_failed_event_raises_in_fast_loop():
    env = Environment()

    def boom():
        yield env.timeout(1.0)
        raise RuntimeError("exploded")

    env.process(boom())
    with pytest.raises(RuntimeError, match="exploded"):
        env.run()


class TestFigureRowParity:
    """A fixed-seed figure row, pinned: every dispatch/RNG/queueing
    fallback combination produced this digest before the fallbacks were
    deleted."""

    def test_all_fallback_combinations_byte_identical(self):
        from repro.apps import SCENARIO_A
        from repro.platforms import platform_config
        from repro.platforms.scenario_runner import ScenarioRunner
        result = ScenarioRunner(platform_config("hivemind"), SCENARIO_A,
                                seed=2, n_devices=16).run()
        payload = (result.extras["makespan_s"],
                   tuple(result.task_latencies.values))
        assert _digest(payload) == "707bc4419866be5af05651c882034ac8"


class TestDeviceAnalyticParity:
    def test_contended_core_pool_matches_legacy_resource(self):
        """The 2-core virtual-clock pool reproduces the finish times and
        energy the ``Resource`` pool it replaced produced (pinned)."""
        from repro.edge.device import EdgeDevice

        env = Environment()
        device = EdgeDevice(
            env, "d0", cpu_cores=2, battery_wh=50.0,
            motion_power_w=10.0, compute_power_w=4.0,
            compute_idle_w=1.0, radio_tx_w=2.0, radio_rx_w=1.5,
            radio_idle_w=0.5, cloud_to_edge_slowdown=4.0)
        device.start_mission()
        finishes = []

        def submit(service):
            yield device.reserve(service)
            finishes.append(env.now)

        # 6 tasks on 2 cores: contention, queueing, exact floats.
        for service in (0.3, 0.2, 0.7, 0.1, 0.4, 0.05):
            env.process(submit(service))
        env.run()
        assert _digest((finishes, device.energy.consumed_wh)) == \
            "baca5991f6b036f01a5c525bdc16f504"
