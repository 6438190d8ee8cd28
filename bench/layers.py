"""Per-layer host time from cProfile, for the run process and every
worker it forks.

A traced run profiles each process with stdlib :mod:`cProfile`. The run
process starts its profiler just before the simulation call; forked
workers start their own from :func:`multiprocessing.util.register_after_fork`
and write one ``.prof`` per PID when they exit. :func:`fold` then splits
each profile into the repository's layers by source module:

- a function in ``repro/<package>/<module>.py`` belongs to the longest
  matching entry of :data:`LAYERS`, and to ``other`` when none matches;
- time in builtins, the stdlib and third-party code goes to the nearest
  ``repro`` caller, split by the callers' shares of that time;
- a blocking read or poll reached through ``multiprocessing`` is
  waiting, not work: it is counted as ``wait`` for the process.

Pipe traffic is counted by wrapping the ``multiprocessing`` connection's
byte-level send and receive in the run process only. Every pipe has the
run process at one end, so these counts cover all inter-process traffic,
and in-process worker fallbacks, which use no pipe, add nothing.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import re
from typing import Dict, Iterable, List, Tuple

__all__ = ["LAYERS", "layer_of", "fold", "fold_files", "Tracer"]

#: The repository's modules, as reported per layer. ``serverless`` is the
#: event-driven OpenWhisk model (invoker, CouchDB, Kafka, controller).
LAYERS = (
    "sim.kernel", "sim.rng", "sim.resources", "sim.shard", "sim.supervisor",
    "edge", "network", "serverless", "serverless.region",
    "serverless.gateway", "serving", "platforms", "core", "cluster",
    "telemetry", "learning", "hardware", "obs", "other",
)

WAIT = "wait"

#: A builtin that blocks its caller until another process acts, e.g.
#: ``<built-in method posix.read>`` or ``<method 'poll' of ... objects>``.
_BLOCKING = re.compile(r"[.'](poll|select|read|readinto|waitpid|sleep)['>]")

Func = Tuple[str, int, str]


def _module(filename: str) -> str:
    """``.../repro/sim/kernel.py`` -> ``sim.kernel``; ``""`` if not repro."""
    _, sep, tail = filename.replace(os.sep, "/").rpartition("/repro/")
    if not sep or not tail.endswith(".py"):
        return ""
    module = tail[:-3].replace("/", ".")
    return module[:-len(".__init__")] if module.endswith(
        ".__init__") else module


def layer_of(filename: str) -> str:
    """The layer of a source file; ``""`` for code outside ``repro``."""
    module = _module(filename)
    if not module:
        return ""
    best = "other"
    for layer in LAYERS[:-1]:
        if ((module == layer or module.startswith(layer + "."))
                and (best == "other" or len(layer) > len(best))):
            best = layer
    return best


def fold(stats: Dict) -> Dict:
    """Split one process's profile into layers.

    ``stats`` is a ``pstats.Stats.stats`` mapping ``func -> (cc, nc, tt,
    ct, callers)`` with ``callers`` mapping ``func -> (nc, cc, tt, ct)``.
    Returns ``{"host_s": {layer: s}, "calls": {layer: n}, "wait_s": s,
    "total_s": s}``; the layers' host seconds plus ``wait_s`` add up to
    ``total_s``, the process's whole profiled time.
    """
    layers = {func: layer_of(func[0]) for func in stats}
    memo: Dict[Tuple[Func, bool], Dict[str, float]] = {}

    def owner_of(caller: Func, blocking: bool) -> Dict[str, float]:
        if layers.get(caller):
            return {layers[caller]: 1.0}
        if blocking and "/multiprocessing/" in caller[0].replace(os.sep, "/"):
            return {WAIT: 1.0}
        key = (caller, blocking)
        if key not in memo:
            memo[key] = {}  # in progress: a cycle back here adds nothing
            memo[key] = split(caller, blocking, 3)
        return memo[key]

    def split(func: Func, blocking: bool, index: int) -> Dict[str, float]:
        """Share out ``func``'s own time by its callers' ``index`` field:
        tottime (2) for the first hop, cumtime (3) further up."""
        shares: Dict[str, float] = {}
        total = 0.0
        for caller, edge in stats[func][4].items():
            owners = owner_of(caller, blocking) if edge[index] > 0 else {}
            if owners:
                total += edge[index]
                for owner, part in owners.items():
                    shares[owner] = shares.get(owner, 0.0) + part * edge[index]
        if not total:
            return {"other": 1.0}  # a root outside repro: no repro caller
        return {owner: part / total for owner, part in shares.items()}

    host = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    wait = 0.0
    total = 0.0
    for func, (_, nc, tt, _, _) in stats.items():
        total += tt
        if layers[func]:
            host[layers[func]] += tt
            calls[layers[func]] += nc
        elif tt > 0:
            blocking = func[0] == "~" and bool(_BLOCKING.search(func[2]))
            for owner, part in split(func, blocking, 2).items():
                if owner == WAIT:
                    wait += tt * part
                else:
                    host[owner] += tt * part
    return {"host_s": host, "calls": calls, "wait_s": wait,
            "total_s": total}


def _kind(stats: Dict) -> str:
    """A worker serving cloud regions runs ``serverless.region`` code."""
    return ("region" if any(layer_of(func[0]) == "serverless.region"
                            for func in stats) else "cell")


def fold_files(driver: str, workers: Iterable[str]) -> List[Dict]:
    """Fold the run process's and the workers' ``.prof`` files, one
    entry per process."""
    processes: List[Dict] = []
    for path, kind in [(driver, "driver")] + [(p, None) for p in workers]:
        stats = pstats.Stats(path).stats
        folded = fold(stats)
        folded["kind"] = kind or _kind(stats)
        folded["profile"] = os.path.basename(path)
        folded["other_share"] = (folded["host_s"]["other"]
                                 / folded["total_s"]
                                 if folded["total_s"] else 0.0)
        processes.append(folded)
    return processes


class _PipeCounter:
    """Counts messages and bytes through ``multiprocessing`` pipes."""

    def __init__(self):
        self.messages = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self._original = None

    def install(self) -> None:
        from multiprocessing.connection import Connection
        send, receive = Connection._send_bytes, Connection._recv_bytes
        self._original = (send, receive)
        counter = self

        def _send_bytes(connection, buf):
            counter.messages += 1
            counter.bytes_sent += memoryview(buf).nbytes
            return send(connection, buf)

        def _recv_bytes(connection, maxsize=None):
            buf = receive(connection, maxsize)
            counter.messages += 1
            counter.bytes_received += buf.getbuffer().nbytes
            return buf

        Connection._send_bytes = _send_bytes
        Connection._recv_bytes = _recv_bytes

    def remove(self) -> None:
        if self._original is not None:
            from multiprocessing.connection import Connection
            Connection._send_bytes, Connection._recv_bytes = self._original
            self._original = None


def _dump_profile(profile: cProfile.Profile, path: str) -> None:
    profile.disable()
    profile.dump_stats(path)


class Tracer:
    """Profiles the simulation call in this process and in every worker
    forked during it; counts pipe traffic from this process's side.

    Use as a context manager around the call. Profiles land in
    ``<directory>/<stem>.driver.prof`` and ``<stem>.worker.<pid>.prof``.
    """

    def __init__(self, directory: str, stem: str):
        self.driver_path = os.path.join(directory, f"{stem}.driver.prof")
        self._worker_prefix = os.path.join(directory, f"{stem}.worker.")
        self.pipes = _PipeCounter()
        self._profile = cProfile.Profile()

    def worker_paths(self) -> List[str]:
        directory, prefix = os.path.split(self._worker_prefix)
        return sorted(os.path.join(directory, name)
                      for name in os.listdir(directory)
                      if name.startswith(prefix) and name.endswith(".prof"))

    def __enter__(self) -> "Tracer":
        from multiprocessing import util
        util.register_after_fork(self, Tracer._start_in_worker)
        self.pipes.install()
        self._profile.enable()
        return self

    def __exit__(self, *exc) -> None:
        self._profile.disable()
        self.pipes.remove()
        self._profile.dump_stats(self.driver_path)

    def _start_in_worker(self) -> None:
        # Runs in the forked child, which inherited the parent's active
        # profiler and pipe counter: drop both and start its own profile,
        # written when multiprocessing finalizes the worker.
        from multiprocessing import util
        self._profile.disable()
        self.pipes.remove()
        profile = cProfile.Profile()
        util.Finalize(None, _dump_profile,
                      args=(profile, f"{self._worker_prefix}{os.getpid()}"
                                     ".prof"),
                      exitpriority=100)
        profile.enable()
