"""Worker protocol and supervision: one serve loop, one supervised handle.

The sharded runtime (:mod:`repro.sim.shard`) runs two kinds of worker —
cell workers and cloud-region workers — and both speak one protocol:

- **Executors.** A worker's state lives in an *executor*, any object
  with ``request(command, argument) -> payload`` (``_Cells`` and
  ``_Regions`` in :mod:`repro.sim.shard`). The same executor runs
  inside a worker process or in the driver, so no command dispatch is
  written twice. Every executor answers ``finish`` last.
- **One worker loop.** :func:`serve` builds the executor from a
  zero-argument factory, then answers each ``(command, argument)`` with
  ``(command, payload)``. Its ``finish`` reply also carries the worker's
  kernel-event, layer-event and span deltas
  (:func:`repro.experiments.parallel.counters_since`), which the driver
  credits to its own totals. The loop returns after ``finish``, so
  multiprocessing finalizers still run.
- **One supervised handle.** :class:`SupervisedConnection` forks the
  worker process itself and falls back to running the executor in the
  driver. It adds:

  - *Deadline-guarded receives.* Every reply is awaited with ``poll()``
    in short slices against a wall-clock deadline
    (``REPRO_WORKER_DEADLINE``, default ``max(60 s, lookahead window)``
    — a worker that cannot advance one lookahead window of simulated
    time within that many wall seconds is considered wedged).
  - *Failure taxonomy.* A dead worker (pipe EOF/OSError, or the process
    exited without replying) raises :class:`WorkerDeath`; a silent one
    raises :class:`WorkerHang` after the deadline, and the supervisor
    escalates ``terminate()`` → ``kill()`` so nothing is leaked. A reply
    tagged with the wrong command raises :class:`ProtocolError`.
  - *Deterministic recovery.* Each cell/region is a pure function of
    its spec and per-entity seeded RNG stream, and the driver's command
    sequence (barrier times, canonical call batches) is itself
    deterministic. The handle journals every completed command; when
    its worker dies or hangs it builds the executor in the driver,
    replays the journal to byte-identical state (replies discarded:
    their rows were already merged), then answers the failed command
    there, whose reply was never merged, so it merges once. The handle
    runs in the driver for the rest of the run.
  - *Incident records.* Every recovery emits a :class:`WorkerIncident`
    (what died, during which operation, and the recovery latency) into
    a process-wide log that `run_sharded` surfaces in result extras and
    `run_experiment` attaches to the :class:`RunManifest`.

Chaos hooks: parent-side kills from a
:class:`repro.faults.worker.WorkerFaultPlan` are injected here (SIGKILL
right after a matching send); worker-side hangs/slows call
:func:`chaos_pause` inside :func:`serve`. Faults are one-shot by
construction: a handle that has fallen back has no process left to kill
or hang.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from .flags import resolve

__all__ = [
    "ProtocolError", "WorkerFailure", "WorkerDeath", "WorkerHang",
    "WorkerIncident", "SupervisedConnection", "serve", "chaos_pause",
    "resolve_worker_deadline",
    "can_spawn_workers", "incident_count", "incidents_since",
    "record_incident",
]

#: The protocol's commands: cell workers answer ``advance``, region
#: workers ``serve``, and both answer ``finish`` last.
COMMANDS = frozenset({"advance", "serve", "finish"})

#: Deadline floor: even tiny lookahead windows get this much wall time.
DEADLINE_FLOOR_S = 60.0

#: ``poll()`` slice so death/hang checks stay responsive (wall seconds).
POLL_SLICE_S = 0.2

#: Worker-side ``hang`` faults sleep this long (far past any sane
#: deadline; the supervisor's terminate/kill escalation ends it sooner).
HANG_SLEEP_S = 3600.0


class ProtocolError(RuntimeError):
    """The pipe protocol was violated (wrong reply command or shape).

    A real exception, not an ``assert``: it must survive ``python -O``,
    where asserts vanish and a mismatched reply would silently corrupt
    the merge.
    """


class WorkerFailure(RuntimeError):
    """Base for recoverable worker failures."""

    kind = "failure"


class WorkerDeath(WorkerFailure):
    """The worker process died (EOF/broken pipe/exited without reply)."""

    kind = "death"


class WorkerHang(WorkerFailure):
    """The worker missed its reply deadline and was escalated away."""

    kind = "hang"


@dataclass
class WorkerIncident:
    """One supervised failure + recovery, for manifests and reports."""

    worker: str          # e.g. "shard0", "cloud1"
    op: str              # e.g. "advance@60.0 [op 2]"
    failure: str         # "death" | "hang"
    recovery_s: float    # wall-clock latency of the recovery

    def to_dict(self) -> Dict[str, Any]:
        return {
            "worker": self.worker,
            "op": self.op,
            "failure": self.failure,
            "recovery_s": round(self.recovery_s, 6),
        }


# Process-wide incident log. `run_sharded` snapshots the length before a
# run and reads the delta after, so concurrent figure harness runs in
# one process still get per-run attribution.
_INCIDENTS: List[WorkerIncident] = []


def record_incident(incident: WorkerIncident) -> None:
    _INCIDENTS.append(incident)


def incident_count() -> int:
    return len(_INCIDENTS)


def incidents_since(mark: int) -> List[WorkerIncident]:
    return list(_INCIDENTS[mark:])


def resolve_worker_deadline(window_s: float,
                            override: Optional[float] = None) -> float:
    """Reply deadline in wall seconds.

    Explicit override wins, then ``REPRO_WORKER_DEADLINE``, then the
    derived default ``max(60 s, lookahead window)``: one barrier asks a
    worker for at most one window of simulated time, and simulated
    seconds price far below wall seconds, so a worker that cannot keep
    that pace is wedged, not slow.
    """
    configured = resolve("REPRO_WORKER_DEADLINE", override)
    if configured is not None:
        return configured
    return max(DEADLINE_FLOOR_S, float(window_s))


def _spawn_probe() -> None:
    pass


_CAN_SPAWN: Optional[bool] = None


def can_spawn_workers() -> bool:
    """Whether this environment can start worker processes at all
    (some sandboxes forbid fork/spawn). Probed once, cached."""
    global _CAN_SPAWN
    if _CAN_SPAWN is None:
        import multiprocessing
        try:
            process = multiprocessing.Process(target=_spawn_probe,
                                              daemon=True)
            process.start()
            process.join(10.0)
            _CAN_SPAWN = True
        except (OSError, ValueError):
            _CAN_SPAWN = False
    return _CAN_SPAWN


def chaos_pause(faults: Tuple[Tuple[str, int, float], ...],
                op: int) -> None:
    """Worker-side chaos injection: called by :func:`serve` before
    handling its ``op``-th command (1-based). ``faults`` holds
    ``(action, op, delay_s)`` triples from
    :meth:`WorkerFaultPlan.worker_side`."""
    for action, at_op, delay_s in faults:
        if at_op != op:
            continue
        if action == "hang":
            time.sleep(HANG_SLEEP_S)
        elif action == "slow":
            time.sleep(delay_s)


def serve(conn, build: Callable[[], Any],
          faults: Tuple[Tuple[str, int, float], ...] = ()) -> None:
    """The worker loop: build the executor, then answer commands.

    Each ``(command, argument)`` received is answered with ``(command,
    executor.request(command, argument))``. The ``finish`` reply's
    payload is ``(result, counters)``, where ``counters`` are this
    process's kernel-event, layer-event and span deltas since the loop
    started; the loop then returns. ``faults`` carries worker-side chaos
    triples applied via :func:`chaos_pause`. EOF from the driver ends the
    loop quietly.
    """
    from ..experiments.parallel import counter_mark, counters_since
    mark = counter_mark()
    executor = build()
    op = 0
    try:
        while True:
            command, argument = conn.recv()
            op += 1
            chaos_pause(faults, op)
            payload = executor.request(command, argument)
            if command == "finish":
                conn.send((command, (payload, counters_since(mark))))
                return
            conn.send((command, payload))
    except (EOFError, BrokenPipeError, KeyboardInterrupt):
        return
    finally:
        conn.close()


def _start_worker(build: Callable[[], Any],
                  faults: Tuple[Tuple[str, int, float], ...]
                  ) -> Tuple[Any, Any]:
    """Fork one worker process running :func:`serve`; returns the
    driver's pipe end and the process. Workers are fork-started so they
    inherit the driver's loaded modules and any after-fork hooks."""
    import multiprocessing
    context = multiprocessing.get_context("fork")
    parent_conn, child_conn = context.Pipe()
    process = context.Process(target=serve,
                              args=(child_conn, build, faults),
                              daemon=True)
    process.start()
    child_conn.close()
    return parent_conn, process


class SupervisedConnection:
    """Supervises one worker: split-phase send/collect with watchdog,
    journaled recovery in the driver, and escalation teardown.

    Parameters
    ----------
    name:
        Stable worker name for incidents ("shard0", "cloud1", ...).
    build:
        Zero-argument executor factory. A worker process runs it inside
        :func:`serve`; the handle calls it itself, in
        :meth:`_run_in_driver`, when ``in_process`` is set, when the
        fork fails (parity with environments without fork), and when
        its worker dies or hangs.
    kill_ops:
        1-based command indices after which the driver SIGKILLs the
        worker (parent-side chaos).
    worker_side_faults:
        Chaos triples for the worker process.

    ``counters`` holds the worker counters shipped with the ``finish``
    reply, or None while the handle runs in the driver (its events then
    ran in this process and are already counted here).
    """

    def __init__(self, name: str, build: Callable[[], Any],
                 deadline_s: float,
                 kill_ops: FrozenSet[int] = frozenset(),
                 worker_side_faults: Tuple[Tuple[str, int, float], ...] = (),
                 in_process: bool = False):
        self.name = name
        self._build = build
        self._deadline_s = float(deadline_s)
        self._kill_ops = frozenset(kill_ops)
        self._conn = None
        self._process = None
        self._local = None
        self._journal: List[Tuple[str, Any]] = []
        self._outstanding: Optional[Tuple[str, Any]] = None
        self._ops_sent = 0
        #: Set when a kill op fires; that op's reply is never read.
        self._killed = False
        self.counters = None
        if not in_process:
            try:
                self._conn, self._process = _start_worker(
                    build, tuple(worker_side_faults))
                return
            except (OSError, ValueError):
                # A failed fork is a capability probe, not a fault: run
                # in the driver silently, exactly as an explicit
                # in_process run (forkless sandboxes).
                pass
        self._run_in_driver()

    # -- protocol -------------------------------------------------------
    def send(self, command: str, argument: Any) -> None:
        if self._outstanding is not None:
            raise ProtocolError(
                f"{self.name}: send({command!r}) while "
                f"{self._outstanding[0]!r} is still outstanding")
        if command not in COMMANDS:
            raise ProtocolError(f"{self.name}: unknown command "
                                f"{command!r}")
        self._outstanding = (command, argument)
        if self._local is not None:
            return
        self._ops_sent += 1
        try:
            self._conn.send((command, argument))
        except (BrokenPipeError, OSError):
            # Worker already gone; collect() will notice and recover.
            return
        if self._ops_sent in self._kill_ops:
            # Parent-side chaos: SIGKILL the worker right after the
            # send. A fast worker may have answered already, so the
            # kill is joined and collect() treats the op as lost
            # rather than merging a reply from a killed worker.
            self._process.kill()
            self._process.join()
            self._killed = True

    def collect(self) -> Any:
        if self._outstanding is None:
            raise ProtocolError(f"{self.name}: collect() with no "
                                "outstanding command")
        command, argument = self._outstanding
        self._outstanding = None
        if self._local is not None:
            return self._local.request(command, argument)
        try:
            if self._killed:
                raise WorkerDeath(f"{self.name}: killed after op "
                                  f"{self._ops_sent}")
            payload = self._recv(command)
        except WorkerFailure as failure:
            return self._recover(failure, command, argument)
        self._journal.append((command, argument))
        if command == "finish":
            payload, self.counters = payload
        return payload

    def request(self, command: str, argument: Any) -> Any:
        self.send(command, argument)
        return self.collect()

    # -- receive with watchdog ------------------------------------------
    def _recv(self, command: str) -> Any:
        deadline = time.monotonic() + self._deadline_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise WorkerHang(
                    f"{self.name}: no reply within "
                    f"{self._deadline_s:.1f}s")
            try:
                ready = self._conn.poll(min(remaining, POLL_SLICE_S))
            except (EOFError, OSError):
                raise WorkerDeath(f"{self.name}: pipe closed") from None
            if ready:
                try:
                    message = self._conn.recv()
                except (EOFError, OSError):
                    raise WorkerDeath(
                        f"{self.name}: worker died mid-reply "
                        f"(exitcode {self._exitcode()})") from None
                if not (isinstance(message, tuple) and len(message) == 2):
                    raise ProtocolError(
                        f"{self.name}: malformed reply {message!r}")
                answered, payload = message
                if answered != command:
                    raise ProtocolError(
                        f"{self.name}: expected {command!r} reply, "
                        f"got {answered!r}")
                return payload
            if self._process is not None and not self._process.is_alive():
                if self._conn.poll(0):
                    continue  # drain a reply buffered before death
                raise WorkerDeath(
                    f"{self.name}: worker exited with code "
                    f"{self._exitcode()} without replying")

    def _exitcode(self):
        return None if self._process is None else self._process.exitcode

    # -- recovery -------------------------------------------------------
    def _run_in_driver(self) -> None:
        """Build the executor in the driver and replay the journal on
        it, discarding the replies: their rows were already merged, and
        the same deterministic command sequence rebuilds the state the
        worker had."""
        self._local = self._build()
        for command, argument in self._journal:
            self._local.request(command, argument)

    def _recover(self, failure: WorkerFailure, command: str,
                 argument: Any) -> Any:
        started = time.perf_counter()
        self._close_process(grace_s=0.0)
        self._run_in_driver()
        payload = self._local.request(command, argument)
        record_incident(WorkerIncident(
            worker=self.name,
            op=f"{command}@{argument!r} [op {self._ops_sent}]",
            failure=failure.kind,
            recovery_s=time.perf_counter() - started,
        ))
        return payload

    # -- teardown -------------------------------------------------------
    def _close_process(self, grace_s: float = 5.0) -> None:
        """Close the pipe and reap the worker, escalating
        join → terminate → kill so no exit path leaks a child."""
        conn, process = self._conn, self._process
        self._conn = None
        self._process = None
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        if process is None:
            return
        # Closing our pipe end EOFs a healthy worker's recv(), so the
        # graceful join usually succeeds immediately.
        if grace_s > 0:
            process.join(grace_s)
        if process.is_alive():
            process.terminate()
            process.join(2.0)
        if process.is_alive():
            process.kill()
            process.join(5.0)

    def close(self) -> None:
        """Idempotent; safe on every exit path, including exceptions."""
        self._outstanding = None
        self._close_process()
