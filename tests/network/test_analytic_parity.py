"""Digest pins for the virtual-clock queueing layers.

The network and serverless service layers compute departures in closed
form (see DESIGN.md, "Virtual-clock queueing"). They used to run beside a
``Resource``-based request/grant/release twin, and this suite compared
the two at fixed seeds. Both executions agreed exactly on every case
below, so each case has one answer: its md5 digest, recorded from both
executions before the twin was deleted. The pins are now the exactness
contract — a drift means the queueing model changed, not just its speed.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.apps import SCENARIO_A, SCENARIO_B, app
from repro.config import ServerlessConstants
from repro.network import Link
from repro.platforms import SingleTierRunner, platform_config
from repro.platforms.scenario_runner import ScenarioRunner
from repro.serverless import CouchDB
from repro.sim import Environment
from repro.sim.kernel import events_consumed


def _digest(value) -> str:
    return hashlib.md5(repr(value).encode()).hexdigest()


# -- single-link property tests ----------------------------------------------

def _link_departures(seed: int, *, bandwidth: float, latency: float,
                     loss: float, penalty: float, schedule) -> list:
    """Run one randomized offered-load schedule through a Link and return
    each transfer's (start, duration) pair, in arrival order."""
    env = Environment()
    rng = np.random.default_rng(seed) if loss else None
    link = Link(env, "l", bandwidth_mbs=bandwidth, latency_s=latency,
                loss_rate=loss, rng=rng, contention_penalty=penalty)
    results = {}

    def one(index, arrive_at, megabytes, extra):
        yield env.timeout(arrive_at)
        start = env.now
        took = yield from link.transfer(megabytes, extra_delay_s=extra)
        results[index] = (start, took)

    for index, (arrive_at, megabytes, extra) in enumerate(schedule):
        env.process(one(index, arrive_at, megabytes, extra))
    env.run()
    return [results[i] for i in range(len(schedule))]


def _random_schedule(seed: int, n: int = 60):
    """Bursty arrivals: enough same-instant and back-to-back transfers to
    exercise the backlog/contention paths, not just the idle fast path."""
    rng = np.random.default_rng(seed)
    schedule, t = [], 0.0
    for _ in range(n):
        # ~1/3 of arrivals land at the same instant as the previous one.
        if rng.random() > 0.35:
            t += float(rng.exponential(0.02))
        megabytes = float(rng.uniform(0.01, 4.0))
        extra = float(rng.choice([0.0, 0.0, 0.05]))
        schedule.append((t, megabytes, extra))
    return schedule


DETERMINISTIC_LINK = (
    "85c5bb969dcb991517fed4274e17617a", "d7628cd25373af7dd820b5a6d1f74d69",
    "d11ddb1e8efb7daa134c0b6f3e4c6669", "d9f3b395cb488659d905c30fdafe5726",
    "e152d296f43b4c8ad0d29c1b73bea2a8")
LOSSY_LINK = (
    "a2eb52f67c667dad8a1c86d542121734", "88c70942782dfe8747c6ac2c2c0afe8c",
    "9be894d16a61ce304ce44e1c360ea3a0", "a8c7fb39bf62da8a359b5a229680a3c1",
    "4ee49d9bccf77f7c00a888f5c352245a")


class TestLinkProperty:
    """Randomized offered load: departures match the pinned answers."""

    @pytest.mark.parametrize("seed", range(5))
    def test_deterministic_link(self, seed):
        departures = _link_departures(
            seed, bandwidth=20.0, latency=0.004, loss=0.0, penalty=0.0,
            schedule=_random_schedule(seed))
        assert _digest(departures) == DETERMINISTIC_LINK[seed]

    @pytest.mark.parametrize("seed", range(5))
    def test_lossy_contended_link(self, seed):
        """The wireless shape: shared-RNG retry draws + CSMA collapse."""
        departures = _link_departures(
            seed, bandwidth=3.4, latency=0.008, loss=0.08, penalty=0.12,
            schedule=_random_schedule(seed + 100))
        assert _digest(departures) == LOSSY_LINK[seed]

    def test_busy_accounting_matches(self):
        schedule = _random_schedule(7)
        fractions = []
        for loss in (0.0, 0.08):
            env = Environment()
            rng = np.random.default_rng(3) if loss else None
            link = Link(env, "l", bandwidth_mbs=10.0, latency_s=0.002,
                        loss_rate=loss, rng=rng, contention_penalty=0.1)

            def feed(link=link, env=env):
                for arrive_at, megabytes, extra in schedule:
                    if arrive_at > env.now:
                        yield env.timeout(arrive_at - env.now)
                    env.process(link.transfer(megabytes))
            env.process(feed())
            env.run()
            fractions.append(link.busy_fraction(10.0))
        assert _digest(fractions) == "9ce7ff1bd82de9c8993f2caadb22b8f2"


class TestMeterAtSerializationEnd:
    """The meter records when the payload leaves the wire (not after
    propagation), so utilization windows line up with busy_s."""

    def test_record_excludes_propagation(self):
        from repro.telemetry import BandwidthMeter
        env = Environment()
        meter = BandwidthMeter("m")
        # 10 MB/s link, 1.0 s propagation: a 5 MB transfer at t=0
        # serializes over [0, 0.5] and lands at t=1.5.
        link = Link(env, "l", bandwidth_mbs=10.0, latency_s=1.0,
                    meter=meter)
        env.run(env.process(link.transfer(5.0)))
        assert env.now == 1.5
        times = [t for t, _ in meter.events]
        assert times == [0.5]  # serialization end, not propagation end

    def test_metered_bytes_align_with_busy_fraction(self):
        from repro.telemetry import BandwidthMeter
        env = Environment()
        meter = BandwidthMeter("m")
        link = Link(env, "l", bandwidth_mbs=10.0, latency_s=2.0,
                    meter=meter)

        # Four transfers offered at t=0 serialize back-to-back over
        # [0, 4]; each then propagates for 2 s more.
        for _ in range(4):
            env.process(link.transfer(10.0))
        env.run()
        horizon = 4.0
        assert link.busy_fraction(horizon) == 1.0
        assert all(t <= horizon for t, _ in meter.events)
        assert sum(mb for _, mb in meter.events) == 40.0


class _ThreeServerCouchDB(CouchDB):
    CONCURRENCY = 3


class TestCouchDBParity:
    def test_contended_store_parity(self):
        env = Environment()
        store = _ThreeServerCouchDB(env, ServerlessConstants(),
                                    rng=np.random.default_rng(11))
        results = []

        def client(delay, megabytes):
            yield env.timeout(delay)
            took = yield from store.access(megabytes)
            results.append((env.now, took))

        for index in range(24):
            env.process(client(0.001 * (index % 5), 0.2 * (index % 7)))
        env.run()
        assert _digest(sorted(results)) == "e0e6994cc927ffc10ecec9500c2d7e21"


# -- full-scenario seed sweep -------------------------------------------------

def _scenario_fingerprint(**kwargs):
    result = ScenarioRunner(**kwargs).run()
    return {
        "makespan": result.extras["makespan_s"],
        "found": result.extras.get("items_found",
                                   result.extras.get("unique_people")),
        "latencies": tuple(result.task_latencies.values),
        "failed": tuple(result.extras["failed_devices"]),
        "energy": tuple(tuple(sorted(account.by_category().items()))
                        for account in result.energy_accounts),
    }


def _cell_fingerprint(**kwargs):
    result = SingleTierRunner(**kwargs).run()
    return {
        "latencies": tuple(result.task_latencies.values),
        "bandwidth": result.bandwidth_summary(),
        "tail": result.tail_latency_s,
    }


SCENARIO_CASES = [
    # (config, scenario, extra kwargs, digests by seed) — centralized
    # FaaS exercises the full wireless/RPC/Kafka/CouchDB/invoker
    # pipeline; hivemind adds the accelerated fabric; the failure case
    # covers fault detection and respawn.
    ("centralized_faas", SCENARIO_A, {}, (
        "080279101ccee59256e178f86e879335",
        "2eeb4b5fa011ddb9da70d2c445dd9bf2",
        "20200ca15abef9f8e95a15841e65044e",
        "836ba9e14d773f6ec69aa48cbaff9070",
        "5bdf7afa00258da3133e2b2d5c7e63ac")),
    ("hivemind", SCENARIO_A, {"fail_devices_at": [(2, 10.0)]}, (
        "5f7f1d6466cc1aa539192d07530566b2",
        "1d6725e6551acf8043d373da858bafb6",
        "008125f65764b7f483771f2a208153a0",
        "7764f84a9ac82ce266de72fa31c26eb2",
        "20bc6b3e234e99c2b002da9447fca0d7")),
    ("hivemind", SCENARIO_B, {}, (
        "dfea785e0d2345be94740deb11b0a03e",
        "0b2957501c406b32df9498f8b0d26fe4",
        "b532949174179e7b1f1946ddaf2dd52e",
        "4b9b6e7d0dee45c148d829465c213472",
        "f185ae9b7cf66688e722375970a8aa30")),
]

FAULTED_CELLS = (
    "1e95fe16e400cafc3140a1011a25b3b2", "6a20d9256b74cceed34778a34bc35c40",
    "310ad49de3ac517e41050cfcd971cbb1", "ab0177bfb6d1523782c8105e47781b67",
    "7ff878eca8f402b3edb5d8b028b43666")


class TestScenarioSeedSweep:
    """5 seeds × 3 scenarios: every figure row matches its pin."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize(
        "platform,scenario,extra,digests",
        SCENARIO_CASES,
        ids=[f"{p}-{s.key}{'-fail' if e else ''}"
             for p, s, e, _ in SCENARIO_CASES])
    def test_scenario_rows_identical(self, platform, scenario, extra,
                                     digests, seed):
        fingerprint = _scenario_fingerprint(
            config=platform_config(platform), scenario=scenario, seed=seed,
            n_devices=6, **extra)
        assert _digest(fingerprint) == digests[seed]

    @pytest.mark.parametrize("seed", range(5))
    def test_cell_rows_identical_with_faults(self, seed):
        fingerprint = _cell_fingerprint(
            config=platform_config("centralized_faas"), app=app("S3"),
            seed=seed, duration_s=20.0, load_fraction=0.8, fault_rate=0.05)
        assert _digest(fingerprint) == FAULTED_CELLS[seed]

    def test_analytic_path_reduces_events(self):
        """The S3 cell dispatches 5,835 events; the Resource-based queues
        it replaced dispatched 12,791 for the same rows, process starts
        for each task's ``handle`` 8,285, and the invoker handler as a
        process plus separate auth and controller timeouts 7,305."""
        before = events_consumed()
        SingleTierRunner(platform_config("centralized_faas"), app("S3"),
                         seed=0, duration_s=30.0, load_fraction=0.6).run()
        assert events_consumed() - before == 5835
