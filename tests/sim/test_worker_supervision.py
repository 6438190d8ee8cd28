"""Worker supervision: watchdogs, deterministic replay, incident records.

The contract under test (the robustness tentpole): a SIGKILLed or hung
shard/cloud worker is detected, its work is finished in the driver after a
journal replay, and the merged rows come out **byte-identical** to an undisturbed run — worker chaos may only change
wall-clock and incident accounting. Every test that touches real worker
processes is guarded by a hard SIGALRM so a supervision bug can never
hang the suite.
"""

import multiprocessing
import signal
import threading

import pytest

from repro.experiments.parallel import (total_events_consumed,
                                        total_layer_counts)
from repro.faults import WorkerFaultPlan
from repro.platforms import platform_config
from repro.sim import supervisor
from repro.sim.accounting import LAYERS
from repro.sim.shard import run_sharded
from repro.sim.supervisor import (ProtocolError, SupervisedConnection,
                                  can_spawn_workers, resolve_worker_deadline)

from .test_shard_determinism import result_bytes, scenario_variant

N_DEVICES = 16
CELL_DEVICES = 4
WINDOW_S = 10.0  # 120 s mission -> ~13 pipe ops per worker
#: Chaos runs shrink the hang deadline so detection costs ~1 s, not 60.
DEADLINE_S = 1.0

needs_processes = pytest.mark.skipif(
    not can_spawn_workers(),
    reason="environment cannot spawn worker processes")


@pytest.fixture(autouse=True)
def hang_guard():
    """Hard 120 s wall-clock cap: a supervision regression must fail the
    test, never wedge the run (SIGALRM is process-wide; these tests do
    not run in parallel within one process)."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def on_alarm(signum, frame):
        raise TimeoutError("supervision test exceeded 120s wall clock")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _run(worker_faults, **overrides):
    options = dict(seed=0, shards=2, cell_devices=CELL_DEVICES,
                   window_s=WINDOW_S, worker_deadline_s=DEADLINE_S)
    options.update(overrides)
    return run_sharded(platform_config("hivemind"), scenario_variant("S1"),
                       N_DEVICES, worker_faults=worker_faults, **options)


def _finish_ops(monkeypatch, **shape):
    """An undisturbed run and each worker's 1-based ``finish`` op in
    it."""
    sent = {}
    send = SupervisedConnection.send

    def counting(handle, command, argument):
        sent.setdefault(handle.name, []).append(command)
        return send(handle, command, argument)

    monkeypatch.setattr(SupervisedConnection, "send", counting)
    result = _run(WorkerFaultPlan(), **shape)
    monkeypatch.undo()
    return result, {name: commands.index("finish") + 1
                    for name, commands in sent.items()}


class _ReplyFirst:
    """A worker process whose SIGKILL waits until the reply to the op
    just sent is buffered in the driver's pipe: the worker wins the
    race against its kill every time."""

    def __init__(self, conn, process):
        self._conn = conn
        self._process = process

    def kill(self):
        assert self._conn.poll(30.0), "worker never answered"
        self._process.kill()

    def __getattr__(self, name):
        return getattr(self._process, name)


@pytest.fixture(scope="module")
def undisturbed_bytes():
    """One fault-free twin shared by every recovery test."""
    return result_bytes(_run(WorkerFaultPlan()))


@needs_processes
class TestKillRecovery:
    def test_sigkill_mid_advance_is_byte_identical(self, undisturbed_bytes):
        mark = supervisor.incident_count()
        result = _run(WorkerFaultPlan.parse("kill:shard:0:2"))
        assert result_bytes(result) == undisturbed_bytes
        incidents = supervisor.incidents_since(mark)
        assert len(incidents) == 1
        assert incidents[0].failure == "death"
        assert incidents[0].worker == "shard0"

    def test_a_recovered_worker_is_not_disturbed_again(
            self, undisturbed_bytes):
        """Faults are one-shot by construction: after the kill at op 2
        the handle runs in the driver, so the kill at op 4 has no
        process to fire at."""
        result = _run(WorkerFaultPlan.parse(
            "kill:shard:0:2,kill:shard:0:4"))
        assert result_bytes(result) == undisturbed_bytes
        [incident] = result.extras["worker_incidents"]
        assert incident["op"].endswith("[op 2]")

    def test_incidents_surface_in_extras(self):
        result = _run(WorkerFaultPlan.parse("kill:shard:1:3"))
        assert result.extras["worker_recoveries"] == 1
        [incident] = result.extras["worker_incidents"]
        assert incident["worker"] == "shard1"
        assert incident["failure"] == "death"

    def test_cloud_worker_kill_is_byte_identical(self):
        shape = dict(cloud_shards=2, region_devices=8)
        baseline = _run(WorkerFaultPlan(), **shape)
        chaotic = _run(WorkerFaultPlan.parse("kill:cloud:0:2"), **shape)
        assert result_bytes(chaotic) == result_bytes(baseline)
        assert chaotic.extras["worker_recoveries"] == 1
        assert chaotic.extras["worker_incidents"][0]["worker"] == "cloud0"

    def test_kill_on_finish_is_byte_identical(self, monkeypatch):
        """A cell worker and a region worker each killed on their
        ``finish`` op have their journals replayed in the driver, which
        yields the same rows."""
        shape = dict(cloud_shards=2, region_devices=8)
        baseline, finish_op = _finish_ops(monkeypatch, **shape)
        plan = WorkerFaultPlan.parse(
            f"kill:shard:0:{finish_op['shard0']},"
            f"kill:cloud:0:{finish_op['cloud0']}")
        chaotic = _run(plan, **shape)
        assert result_bytes(chaotic) == result_bytes(baseline)
        incidents = chaotic.extras["worker_incidents"]
        assert sorted(incident["worker"] for incident in incidents) == [
            "cloud0", "shard0"]
        for incident in incidents:
            assert incident["op"].startswith("finish@")
            assert incident["failure"] == "death"

    def test_reply_buffered_before_the_kill_is_not_merged(self,
                                                          monkeypatch):
        """A worker that answers ``finish`` before its SIGKILL lands is
        still a death: the buffered reply is dropped and the op is
        answered in the driver after the journal replay."""
        undisturbed, finish_ops = _finish_ops(monkeypatch)
        start = supervisor._start_worker

        def starting(build, faults):
            conn, process = start(build, faults)
            return conn, _ReplyFirst(conn, process)

        monkeypatch.setattr(supervisor, "_start_worker", starting)
        result = _run(WorkerFaultPlan.parse(
            f"kill:shard:0:{finish_ops['shard0']}"))
        assert result_bytes(result) == result_bytes(undisturbed)
        [incident] = result.extras["worker_incidents"]
        assert incident["worker"] == "shard0"
        assert incident["op"].startswith("finish@")
        assert incident["failure"] == "death"


@needs_processes
class TestHangRecovery:
    def test_hung_worker_is_detected_and_byte_identical(
            self, undisturbed_bytes):
        mark = supervisor.incident_count()
        result = _run(WorkerFaultPlan.parse("hang:shard:1:3"))
        assert result_bytes(result) == undisturbed_bytes
        [incident] = supervisor.incidents_since(mark)
        assert incident.failure == "hang"
        assert incident.worker == "shard1"

    def test_slow_reply_within_deadline_is_not_an_incident(
            self, undisturbed_bytes):
        result = _run(WorkerFaultPlan.parse("slow:shard:0:2:0.2"),
                      worker_deadline_s=5.0)
        assert result_bytes(result) == undisturbed_bytes
        assert "worker_incidents" not in result.extras


class TestUnarmedPath:
    def test_unarmed_extras_carry_no_supervision_keys(self):
        result = _run(WorkerFaultPlan())
        assert "worker_incidents" not in result.extras
        assert "worker_recoveries" not in result.extras


class TestResolvers:
    @pytest.fixture(autouse=True)
    def clean_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKER_DEADLINE", raising=False)

    def test_deadline_defaults_to_floor_over_window(self):
        assert resolve_worker_deadline(10.0) == 60.0
        assert resolve_worker_deadline(300.0) == 300.0

    def test_deadline_override_wins(self):
        assert resolve_worker_deadline(10.0, override=2.5) == 2.5

    def test_deadline_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKER_DEADLINE", "7.5")
        assert resolve_worker_deadline(300.0) == 7.5

    def test_bad_deadline_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKER_DEADLINE", "-1")
        with pytest.raises(ValueError, match="REPRO_WORKER_DEADLINE"):
            resolve_worker_deadline(10.0)


class _FakeProcess:
    """Just enough Process surface for SupervisedConnection teardown."""

    exitcode = None

    def __init__(self):
        self.alive = True

    def is_alive(self):
        return self.alive

    def join(self, timeout=None):
        pass

    def terminate(self):
        self.alive = False

    def kill(self):
        self.alive = False


class _FakeConn:
    def __init__(self, replies):
        self.replies = list(replies)
        self.sent = []

    def send(self, message):
        self.sent.append(message)

    def poll(self, timeout=None):
        return bool(self.replies)

    def recv(self):
        return self.replies.pop(0)

    def close(self):
        pass


def _supervised(monkeypatch, replies):
    """A handle whose worker is a scripted fake pipe (the process
    starter is replaced, so nothing is forked)."""
    monkeypatch.setattr(
        supervisor, "_start_worker",
        lambda build, faults: (_FakeConn(replies), _FakeProcess()))
    return SupervisedConnection("fake0", build=lambda: None,
                                deadline_s=1.0)


class _Recorder:
    """An executor that logs every command it answers."""

    def __init__(self):
        self.seen = []

    def request(self, command, argument):
        self.seen.append((command, argument))
        return (command, argument)


class TestRecoveryInTheDriver:
    """A dead worker's work finishes in the driver: the journal replays
    on an executor built there, which answers the failed command and
    every later one."""

    def test_death_replays_the_journal_in_the_driver(self, monkeypatch):
        process, conn = _FakeProcess(), _FakeConn([("advance", "rows")])
        monkeypatch.setattr(supervisor, "_start_worker",
                            lambda build, faults: (conn, process))
        built = []

        def build():
            built.append(_Recorder())
            return built[-1]

        sup = SupervisedConnection("fake0", build=build, deadline_s=1.0)
        mark = supervisor.incident_count()
        assert sup.request("advance", 60.0) == "rows"
        process.alive = False  # dies before answering the next command
        assert sup.request("advance", 120.0) == ("advance", 120.0)
        assert sup.request("finish", 180.0) == ("finish", 180.0)
        [executor] = built
        assert executor.seen == [("advance", 60.0), ("advance", 120.0),
                                 ("finish", 180.0)]
        assert conn.sent == [("advance", 60.0), ("advance", 120.0)]
        assert sup.counters is None
        [incident] = supervisor.incidents_since(mark)
        assert (incident.worker, incident.failure) == ("fake0", "death")
        assert incident.op == "advance@120.0 [op 2]"

    def test_failed_fork_runs_in_the_driver_without_an_incident(
            self, monkeypatch):
        def no_fork(build, faults):
            raise OSError("fork forbidden")

        monkeypatch.setattr(supervisor, "_start_worker", no_fork)
        mark = supervisor.incident_count()
        sup = SupervisedConnection("fake0", build=_Recorder,
                                   deadline_s=1.0, kill_ops=frozenset({1}))
        assert sup.request("advance", 60.0) == ("advance", 60.0)
        assert supervisor.incidents_since(mark) == []


class TestProtocolErrors:
    """Replies are tagged with the command they answer, and the protocol
    raises real exceptions, not ``assert``s — a mismatched reply must
    fail loudly even under ``python -O``."""

    def test_tagged_reply_is_returned(self, monkeypatch):
        sup = _supervised(monkeypatch, [("advance", ([], {0: 9.0}))])
        assert sup.request("advance", 60.0) == ([], {0: 9.0})
        assert sup.counters is None

    def test_finish_reply_carries_worker_counters(self, monkeypatch):
        counters = (7, {"edge": 3}, None)
        sup = _supervised(monkeypatch, [("finish", (["rows"], counters))])
        assert sup.request("finish", 120.0) == ["rows"]
        assert sup.counters == counters

    def test_wrong_reply_kind_raises(self, monkeypatch):
        sup = _supervised(monkeypatch, [("finish", None)])
        sup.send("advance", 60.0)
        with pytest.raises(ProtocolError, match="expected 'advance'"):
            sup.collect()

    def test_malformed_reply_raises(self, monkeypatch):
        sup = _supervised(monkeypatch, ["not-a-tuple"])
        sup.send("advance", 60.0)
        with pytest.raises(ProtocolError, match="malformed"):
            sup.collect()

    def test_unknown_command_rejected(self, monkeypatch):
        sup = _supervised(monkeypatch, [])
        with pytest.raises(ProtocolError, match="unknown command"):
            sup.send("explode", None)

    def test_send_while_outstanding_rejected(self, monkeypatch):
        sup = _supervised(monkeypatch, [("advance", ([], {}))])
        sup.send("advance", 60.0)
        with pytest.raises(ProtocolError, match="outstanding"):
            sup.send("advance", 120.0)

    def test_collect_without_send_rejected(self, monkeypatch):
        sup = _supervised(monkeypatch, [])
        with pytest.raises(ProtocolError, match="no outstanding"):
            sup.collect()


class _StubExecutor:
    def request(self, command, argument):
        if command not in ("advance", "finish"):
            raise ProtocolError(f"unknown stub command {command!r}")
        return (command, argument)


class TestServeLoop:
    """The one worker loop, driven over a real pipe from a thread."""

    @pytest.fixture
    def loop(self):
        driver, worker = multiprocessing.Pipe()
        errors = []

        def target():
            try:
                supervisor.serve(worker, _StubExecutor)
            except Exception as error:
                errors.append(error)

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        yield driver, worker, thread, errors
        driver.close()
        thread.join(5.0)

    def test_replies_are_tagged_with_their_command(self, loop):
        driver, _, _, errors = loop
        driver.send(("advance", 60.0))
        assert driver.recv() == ("advance", ("advance", 60.0))
        driver.send(("advance", 120.0))
        assert driver.recv() == ("advance", ("advance", 120.0))
        assert errors == []

    def test_returns_after_finish_and_closes_its_end(self, loop):
        driver, worker, thread, errors = loop
        driver.send(("finish", 5.0))
        command, (payload, counters) = driver.recv()
        assert (command, payload) == ("finish", ("finish", 5.0))
        sim_events, layer_events, _spans = counters
        assert sim_events == 0 and set(layer_events) == set(LAYERS)
        thread.join(5.0)
        assert not thread.is_alive()
        assert worker.closed and errors == []
        with pytest.raises(EOFError):
            driver.recv()

    def test_eof_from_the_driver_returns_cleanly(self, loop):
        driver, worker, thread, errors = loop
        driver.close()
        thread.join(5.0)
        assert not thread.is_alive()
        assert worker.closed and errors == []

    def test_unknown_command_raises(self, loop):
        driver, worker, thread, errors = loop
        driver.send(("explode", None))
        thread.join(5.0)
        assert not thread.is_alive()
        assert len(errors) == 1 and isinstance(errors[0], ProtocolError)
        assert worker.closed


@needs_processes
class TestEventAccounting:
    """Kernel-event and per-layer totals are the same on every execution
    path: in-process, worker processes, a killed cell worker and a
    killed region worker. Worker processes ship their deltas with the
    finish reply; a dead worker's partial counts never ship, and the
    driver recounts the replayed journal."""

    @staticmethod
    def _deltas(worker_faults, **overrides):
        events, layers = total_events_consumed(), total_layer_counts()
        _run(worker_faults, **overrides)
        after = total_layer_counts()
        return (total_events_consumed() - events,
                {layer: after[layer] - layers.get(layer, 0)
                 for layer in after})

    def test_cell_worker_paths_count_the_same_events(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "2")  # real processes
        reference = self._deltas(WorkerFaultPlan(), shards=1)
        assert reference[0] > 0 and all(reference[1].values())
        assert self._deltas(WorkerFaultPlan()) == reference
        assert self._deltas(WorkerFaultPlan.parse("kill:shard:0:2")) \
            == reference

    def test_region_worker_kill_counts_the_same_events(self):
        shape = dict(cloud_shards=2, region_devices=8)
        undisturbed = self._deltas(WorkerFaultPlan(), **shape)
        assert undisturbed[0] > 0
        assert self._deltas(WorkerFaultPlan.parse("kill:cloud:0:2"),
                            **shape) == undisturbed
