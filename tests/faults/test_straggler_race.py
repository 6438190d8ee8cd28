"""Straggler races: attribution, loser reaping, the duplicate racing a
genuine primary failure, and the in-place race against the process
race it replaced."""

import gc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.config import ClusterConstants, ControlConstants
from repro.core import StragglerMitigator
from repro.faults import InvariantChecker
from repro.serverless import (
    FunctionSpec,
    Invocation,
    InvocationRequest,
    OpenWhiskPlatform,
)
from repro.sim import Condition, Environment, RandomStreams


@pytest.fixture
def env():
    return Environment()


def make_stack(env, harden_races=True, servers=2):
    cluster = Cluster(env, ClusterConstants(servers=servers,
                                            cores_per_server=8))
    platform = OpenWhiskPlatform(env, cluster, RandomStreams(3))
    mitigator = StragglerMitigator(env, platform, ControlConstants(),
                                   harden_races=harden_races)
    return platform, mitigator


def prime_history(mitigator, name="f", latency=0.6, n=None):
    series = mitigator._series(name)
    for _ in range(n or StragglerMitigator.MIN_HISTORY):
        series.add(latency)


def slow_down(platform, server_id, factor=50.0):
    platform.invoker_of(server_id).slow_factor = factor


class TestAttribution:
    def test_strike_lands_on_the_actual_straggler(self, env):
        platform, mitigator = make_stack(env)
        prime_history(mitigator)
        spec = FunctionSpec("f")
        # Server0 is pathologically slow; the scheduler's rotation sends
        # the first activation there.
        slow_down(platform, "server0")

        def run():
            winner = yield from mitigator.invoke(
                InvocationRequest(spec, service_s=0.5))
            return winner

        winner = env.run(env.process(run()))
        assert mitigator.stragglers_detected == 1
        assert winner.server_id == "server1"
        assert mitigator._strikes.get("server0") == 1
        assert "server1" not in mitigator._strikes

    def test_hint_reads_the_inflight_record(self, env):
        platform, mitigator = make_stack(env)
        spec = FunctionSpec("f")
        request = InvocationRequest(spec, service_s=0.1)
        # No in-flight invocation yet -> no attribution.
        assert mitigator._primary_server_hint(request) is None

        def run():
            result = yield from platform.invoke(request)
            return result

        env.run(env.process(run()))
        assert mitigator._primary_server_hint(request) == \
            request.inflight.server_id


class TestLoserReaping:
    def test_losing_primary_is_cancelled(self, env):
        platform, mitigator = make_stack(env, harden_races=True)
        prime_history(mitigator)
        spec = FunctionSpec("f")
        slow_down(platform, "server0")

        def run():
            winner = yield from mitigator.invoke(
                InvocationRequest(spec, service_s=0.5))
            return winner

        winner = env.run(env.process(run()))
        assert winner.server_id == "server1"
        assert platform.cancellations == 1
        env.run()  # drain the cancel interrupt's cleanup
        # Only the winner left a completion record; the reaped loser
        # released its core.
        assert len(platform.invocations) == 1
        assert platform.invoker_of("server0").server.utilization == 0

    def test_reaping_off_lets_the_loser_drain(self, env):
        platform, mitigator = make_stack(env, harden_races=False)
        prime_history(mitigator)
        spec = FunctionSpec("f")
        slow_down(platform, "server0")

        def run():
            winner = yield from mitigator.invoke(
                InvocationRequest(spec, service_s=0.5))
            return winner

        winner = env.run(env.process(run()))
        assert winner.server_id == "server1"
        assert platform.cancellations == 0
        env.run()  # the loser drains to completion on its own
        assert len(platform.invocations) == 2


class TestDuplicateRacingGenuineFailure:
    def test_primary_crash_during_race_conserves_work(self, env):
        """The issue's nastiest interleaving: the watchdog has already
        launched a duplicate when the primary's server genuinely dies.
        The primary is requeued by the crash machinery while the
        duplicate wins the race; nothing may complete twice or hang."""
        platform, mitigator = make_stack(env, harden_races=True, servers=3)
        checker = InvariantChecker(env)
        platform.add_completion_listener(checker.invocation_finished)
        prime_history(mitigator, latency=0.4)
        spec = FunctionSpec("f")
        slow_down(platform, "server0", factor=200.0)

        def crash_when_racing():
            # Wait for the duplicate to be in flight, then kill the
            # primary's server mid-execution.
            while mitigator.duplicates_launched == 0:
                yield env.timeout(0.05)
            yield env.timeout(0.05)
            platform.crash_server("server0")

        def run():
            winner = yield from mitigator.invoke(
                InvocationRequest(spec, service_s=0.5))
            return winner

        env.process(crash_when_racing())
        winner = env.run(env.process(run()))
        assert winner is not None
        assert winner.server_id != "server0"
        assert mitigator.stragglers_detected == 1
        env.run()  # let any requeued replica drain fully
        # No invocation finished twice, timestamps stayed ordered.
        assert checker.violations == []
        # Every completion record is unique.
        ids = [inv.invocation_id for inv in platform.invocations]
        assert len(ids) == len(set(ids))

    def test_winner_recorded_in_history_once(self, env):
        platform, mitigator = make_stack(env)
        prime_history(mitigator)
        spec = FunctionSpec("f")
        slow_down(platform, "server0")
        before = len(mitigator._series("f"))

        def run():
            winner = yield from mitigator.invoke(
                InvocationRequest(spec, service_s=0.5))
            return winner

        env.run(env.process(run()))
        assert len(mitigator._series("f")) == before + 1


def _first_of(events, count):
    return count > 0


class _ReferenceMitigator(StragglerMitigator):
    """The race as it was: the primary and the duplicate run as
    processes, and each wait is a first-of condition over them (the
    condition defuses a loser's late failure)."""

    def invoke(self, request):
        threshold = self.threshold_for(request.spec.name)
        primary = self.env.process(self.platform.invoke(request))
        if threshold is None:
            result = yield primary
            self._record(result)
            return result
        watchdog = self.env.timeout(threshold)
        outcome = yield Condition(self.env, _first_of, [primary, watchdog])
        if primary in outcome:
            result = outcome[primary]
            self._record(result)
            return result
        self.stragglers_detected += 1
        self.duplicates_launched += 1
        duplicate_request = InvocationRequest(
            spec=request.spec, service_s=request.service_s,
            input_mb=request.input_mb, output_mb=request.output_mb,
            parent=request.parent, colocate_with_parent=False,
            trace=request.trace)
        duplicate = self.env.process(
            self.platform.invoke(duplicate_request))
        final = yield Condition(self.env, _first_of, [primary, duplicate])
        winner = next(iter(final.values()))
        self._record(winner)
        if primary in final:
            loser_request, loser_server = duplicate_request, None
        else:
            loser_request = request
            loser_server = (self._primary_server_hint(request)
                            if self.harden_races
                            else self._legacy_server_hint(request))
        if loser_server:
            self._strike(loser_server)
        self._reap_loser(loser_request)
        return winner


#: One activation: (gap to the previous arrival, function, service s).
#: Service times are heavy-tailed so both the primary and the watchdog
#: win races; every instant is a continuous draw, so no two events tie.
_activation = st.tuples(
    st.floats(0.01, 1.0), st.sampled_from(["f0", "f0", "f1"]),
    st.floats(0.05, 0.5) | st.floats(1.0, 8.0))
_crash = st.none() | st.tuples(st.floats(0.5, 25.0), st.integers(0, 3),
                               st.sampled_from(["server", "invoker"]))


def _race_run(cls, activations, history, slow, harden_races, crash):
    """Run one stream through ``cls``; returns what the run decided."""
    env = Environment()
    cluster = Cluster(env, ClusterConstants(servers=len(slow),
                                            cores_per_server=8))
    platform = OpenWhiskPlatform(env, cluster, RandomStreams(5))
    mitigator = cls(env, platform, ControlConstants(),
                    harden_races=harden_races)
    series = mitigator._series("f0")
    for latency in history:
        series.add(latency)
    for server, factor in enumerate(slow):
        slow_down(platform, f"server{server}", factor)
    resumed = []

    def caller(index, arrival, name, service_s):
        yield env.timeout(arrival)
        request = InvocationRequest(FunctionSpec(name), service_s=service_s)
        winner = yield from mitigator.invoke(request)
        resumed.append((index, env.now, winner.invocation_id,
                        winner.server_id, winner.request is request))

    def crasher(at, server, kind):
        yield env.timeout(at)
        server_id = f"server{server % len(slow)}"
        if kind == "server":
            platform.crash_server(server_id)
        else:
            platform.crash_invoker(server_id)

    arrival = 0.0
    for index, (gap, name, service_s) in enumerate(activations):
        arrival += gap
        env.process(caller(index, arrival, name, service_s))
    if crash is not None:
        env.process(crasher(*crash))
    env.run()
    return {
        # The last instant dispatched: a no-op watchdog of the process
        # race sets it as much as any settled race.
        "now": env.now,
        "resumed": resumed,
        "stragglers": mitigator.stragglers_detected,
        "duplicates": mitigator.duplicates_launched,
        "strikes": dict(mitigator._strikes),
        "history": {name: tuple(series.values)
                    for name, series in mitigator._history.items()},
        "completions": [(inv.invocation_id, inv.server_id, inv.t_complete)
                        for inv in platform.invocations],
        "cancellations": platform.cancellations,
        "requeues": platform.requeues,
    }


class TestRaceEquivalence:
    """The in-place race decides every stream as the process race did."""

    @settings(max_examples=60, deadline=None)
    # Quick activations on healthy servers: the last instant of the run
    # is a watchdog that decides nothing.
    @example(activations=[(0.2, "f0", 0.05)] * 10, history=[0.5] * 20,
             slow=[1.0, 1.0], harden_races=False, crash=None)
    @given(activations=st.lists(_activation, min_size=10, max_size=40),
           history=st.lists(st.floats(0.1, 0.8), min_size=20,
                            max_size=30),
           slow=st.lists(st.floats(1.0, 40.0), min_size=2, max_size=4),
           harden_races=st.booleans(), crash=_crash)
    def test_decisions_match_the_process_race(self, activations, history,
                                              slow, harden_races, crash):
        # An activation a crash strands is finalized whenever the
        # collector reaches its generator; keep that out of both runs.
        enabled = gc.isenabled()
        gc.disable()
        try:
            new, reference = (
                _race_run(cls, activations, history, slow, harden_races,
                          crash)
                for cls in (StragglerMitigator, _ReferenceMitigator))
            assert new == reference
        finally:
            if enabled:
                gc.enable()


class _ExactPlatform:
    """A platform whose activation takes exactly its service time, or
    never returns (``service_s`` 0: parked on an event nothing fires)."""

    invokers = ()

    def __init__(self, env):
        self.env = env
        self.invocations = []
        self._ids = 0

    def invoke(self, request):
        invocation = Invocation(request=request, invocation_id=self._ids,
                                t_arrive=self.env.now)
        self._ids += 1
        if request.service_s == 0:
            yield self.env.event()
        yield self.env.timeout(request.service_s)
        invocation.t_complete = self.env.now
        self.invocations.append(invocation)
        return invocation


class TestSameInstant:
    """A primary that returns at the watchdog's instant: whichever of the
    two is dispatched first decides the first race."""

    def _mitigator(self, env):
        mitigator = StragglerMitigator(env, _ExactPlatform(env))
        prime_history(mitigator, latency=0.4)  # threshold 0.4 * 1.5
        return mitigator

    def test_primary_scheduled_after_the_watchdog_is_a_straggler(self):
        # The watchdog is armed before the primary starts, so a primary
        # whose last wait ends at the threshold is dispatched after it:
        # a straggler is declared, the duplicate launches, and the
        # primary wins the second race at that same instant.
        env = Environment()
        mitigator = self._mitigator(env)
        threshold = mitigator.threshold_for("f")
        request = InvocationRequest(FunctionSpec("f"), service_s=threshold)

        def run():
            winner = yield from mitigator.invoke(request)
            return winner, env.now

        winner, resumed_at = env.run(env.process(run()))
        assert mitigator.stragglers_detected == 1
        assert winner.request is request
        assert resumed_at == threshold

    def test_primary_dispatched_before_the_watchdog_wins(self):
        # The same instant, but the primary's last wait was scheduled
        # before the watchdog was armed: it returns first, and the
        # watchdog then fires into a decided race.
        env = Environment()
        mitigator = self._mitigator(env)
        threshold = mitigator.threshold_for("f")
        earlier = env.timeout(threshold)
        platform = mitigator.platform

        def invoke(request):
            yield earlier
            return Invocation(request=request, invocation_id=0,
                              t_arrive=0.0, t_complete=env.now)

        platform.invoke = invoke
        request = InvocationRequest(FunctionSpec("f"), service_s=threshold)

        def run():
            winner = yield from mitigator.invoke(request)
            return winner, env.now

        winner, resumed_at = env.run(env.process(run()))
        env.run()  # the watchdog fires into the decided race
        assert mitigator.stragglers_detected == 0
        assert winner.request is request
        assert resumed_at == threshold

    def test_deadlines_at_one_instant_fire_at_their_own_ids(self):
        # Two activations of one function invoked at one instant share a
        # deadline float. A competing event due then lies between their
        # reserved ids, and another after both: each watchdog fires at
        # its own id, so the first competitor sees one straggler and the
        # second sees two.
        env = Environment()
        mitigator = self._mitigator(env)
        threshold = mitigator.threshold_for("f")
        seen = []

        def compete(label):
            env.timeout(threshold).callbacks.append(
                lambda _: seen.append(
                    (label, env.now, mitigator.stragglers_detected)))

        def caller():
            yield from mitigator.invoke(InvocationRequest(
                FunctionSpec("f"), service_s=4 * threshold))

        def launch():
            yield env.timeout(1.0)
            env.start(caller())
            compete("between")
            env.start(caller())
            compete("after")

        env.process(launch())
        env.run()
        due = 1.0 + threshold
        assert seen == [("between", due, 1), ("after", due, 2)]

    def test_run_ends_at_the_last_deadline(self):
        # Every primary wins, so no watchdog decides anything, yet the
        # run's last instant is the latest deadline, as it was when each
        # activation's watchdog was a dispatched event.
        env = Environment()
        mitigator = self._mitigator(env)
        threshold = mitigator.threshold_for("f")

        def caller(arrival):
            yield env.timeout(arrival)
            yield from mitigator.invoke(
                InvocationRequest(FunctionSpec("f"), service_s=0.1))

        env.process(caller(0.0))
        env.process(caller(0.3))
        env.run()
        assert mitigator.stragglers_detected == 0
        assert env.now == 0.3 + threshold


class TestOrphanedReplica:
    def test_closed_replica_resumes_no_one(self):
        # The primary never returns, and nothing but its own parked
        # event refers to its replica: the collector finalizes the
        # generator (GeneratorExit). That must settle nothing, resume
        # no waiter and raise nowhere.
        env = Environment()
        mitigator = StragglerMitigator(env, _ExactPlatform(env))
        prime_history(mitigator, latency=100.0)
        request = InvocationRequest(FunctionSpec("f"), service_s=0)

        def run():
            winner = yield from mitigator.invoke(request)
            return winner

        caller = env.process(run())
        env.run(until=1.0)
        gc.collect()
        env.run(until=2.0)
        assert caller.is_alive
        assert mitigator.stragglers_detected == 0
