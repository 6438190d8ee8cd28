"""InvariantChecker bookkeeping: exactly-once, clocks, energy."""

import heapq

import pytest

from repro.faults import InvariantChecker
from repro.sim import Environment
from repro.sim.kernel import NORMAL
from repro.telemetry import EnergyAccount


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def checker(env):
    return InvariantChecker(env)


class TestExactlyOnce:
    def test_clean_lifecycle(self, checker):
        checker.task_submitted("t1")
        checker.task_completed("t1")
        checker.task_submitted("t2")
        checker.task_lost("t2", "partition")
        assert checker.finalize() == []
        assert checker.ok
        assert checker.submitted_count == 2
        assert checker.completed_count == 1
        assert checker.lost_count == 1

    def test_double_completion_flagged(self, checker):
        checker.task_submitted("t")
        checker.task_completed("t")
        checker.task_completed("t")
        assert not checker.ok
        assert "twice" in str(checker.violations[0])

    def test_completion_without_submission_flagged(self, checker):
        checker.task_completed("ghost")
        assert not checker.ok

    def test_lost_then_completed_flagged(self, checker):
        checker.task_submitted("t")
        checker.task_lost("t", "crash")
        checker.task_completed("t")
        assert not checker.ok

    def test_unaccounted_task_flagged_at_finalize(self, checker):
        checker.task_submitted("orphan")
        violations = checker.finalize()
        assert len(violations) == 1
        assert "never" in violations[0].detail


class TestInvocationRecords:
    def _invocation(self, iid, t_arrive=0.0, t_complete=1.0):
        class Stub:
            pass
        stub = Stub()
        stub.invocation_id = iid
        stub.t_arrive = t_arrive
        stub.t_complete = t_complete
        stub.t_scheduled = t_arrive
        return stub

    def test_single_completion_ok(self, checker):
        checker.invocation_finished(self._invocation(1))
        checker.invocation_finished(self._invocation(2))
        assert checker.ok

    def test_double_finish_flagged(self, checker):
        checker.invocation_finished(self._invocation(1))
        checker.invocation_finished(self._invocation(1))
        assert any(v.invariant == "single_completion"
                   for v in checker.violations)

    def test_backwards_timestamps_flagged(self, checker):
        checker.invocation_finished(
            self._invocation(3, t_arrive=5.0, t_complete=4.0))
        assert any(v.invariant == "timestamps"
                   for v in checker.violations)


class TestClocksAndEnergy:
    def test_entity_clock_monotone(self, checker):
        checker.observe_clock("drone0", 1.0)
        checker.observe_clock("drone0", 2.0)
        assert checker.ok
        checker.observe_clock("drone0", 1.5)
        assert any(v.invariant == "entity_clock"
                   for v in checker.violations)

    def test_negative_category_draw_flagged(self, checker):
        account = EnergyAccount(1.0, device="d0")
        account._drawn["compute"] = -0.5
        checker.check_energy([account])
        assert any(v.invariant == "energy" for v in checker.violations)

    def test_nonstrict_overdraw_is_a_battery_swap_not_a_bug(self, checker):
        account = EnergyAccount(1.0, device="d0")
        account.draw_energy("idle", 2.0 * 3600.0)  # 2 Wh from a 1 Wh cell
        checker.check_energy([account])
        assert checker.ok

    def test_healthy_battery_passes(self, checker):
        account = EnergyAccount(10.0, device="d0")
        account.draw_power("compute", 5.0, 60.0)
        checker.check_energy([account])
        assert checker.ok

    def test_kernel_attach_is_passive(self, env):
        checker = InvariantChecker(env)
        checker.attach_kernel()
        ticks = []

        def proc():
            for _ in range(5):
                yield env.timeout(1.0)
                ticks.append(env.now)

        env.run(env.process(proc()))
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert checker.ok

    def test_past_dated_heap_entry_flags_kernel_clock(self, env):
        checker = InvariantChecker(env)
        checker.attach_kernel()
        env.run(until=5.0)
        stale = env.event()
        stale._ok, stale._value = True, None
        heapq.heappush(env._queue, (1.0, NORMAL, -1, stale))
        env.run()
        assert [v.invariant for v in checker.violations] == ["kernel_clock"]
        assert "5.000000000 -> 1.000000000" in checker.violations[0].detail
