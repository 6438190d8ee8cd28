"""Runtime knobs: every ``REPRO_*`` environment variable, declared once.

:data:`FLAGS` is the one table of the knobs this package reads from the
environment, and :func:`resolve` is the only code that reads them. An
explicit argument always wins over the environment, an empty value
means the default, and a malformed or out-of-range environment value
raises ``ValueError`` starting with ``VAR=value:``. The
``python -m repro.experiments`` options that set a knob, the run
manifest stamps (:func:`repro.obs.manifest.runtime_flags`) and the
README knob table (:func:`knob_table`) are derived from the same table,
so a new knob is one new entry here.

Defaults keep unarmed runs byte-identical to the seed. The scale-out
knobs (shards, cloud shards, serving) are off by default; arming one
opts into the sharded or open-loop runtimes of :mod:`repro.sim.shard`
and :mod:`repro.serving`. Every switch defaults off and accepts only an
empty value, ``0`` or ``1``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

__all__ = ["Flag", "FLAGS", "knob_table", "resolve"]

_TYPES = {"switch": bool, "count": int, "duration": float, "text": str}


@dataclass(frozen=True)
class Flag:
    """One knob of the table.

    ``kind`` is ``switch`` (bool), ``count`` (int, at least ``minimum``),
    ``duration`` (float seconds, above zero) or ``text``. ``rule`` is the
    error text for an out-of-range number; ``check`` validates a text
    value and raises ``ValueError``. Every knob also has a CLI option
    named after it (:attr:`option`), described by ``help``.
    """

    env: str
    kind: str
    default: Any = None
    minimum: int = 0
    rule: str = ""
    check: Optional[Callable[[str], Any]] = None
    help: str = ""
    metavar: Optional[str] = None

    @property
    def key(self) -> str:
        """Manifest stamp and argparse dest: ``REPRO_CLOUD_SHARDS`` ->
        ``cloud_shards``."""
        return self.env[len("REPRO_"):].lower()

    @property
    def option(self) -> str:
        """CLI spelling: ``REPRO_CLOUD_SHARDS`` -> ``--cloud-shards``."""
        return "--" + self.key.replace("_", "-")


def _serving_spec(spec: str) -> None:
    # Imported on use: the grammar pulls in numpy, and this module is
    # imported by every process before any knob is read.
    from ..serving.load import parse_serving_spec
    parse_serving_spec(spec)


FLAGS: Dict[str, Flag] = {flag.env: flag for flag in (
    Flag("REPRO_TRACE", "switch", False,
         help="arm causal request tracing (pool workers trace too)"),
    Flag("REPRO_SHARDS", "count", 1, minimum=1,
         rule="shard count must be at least 1", metavar="N",
         help="decompose each swarm run into cells over N shard "
              "processes (results are byte-identical at any count)"),
    Flag("REPRO_CLOUD_SHARDS", "count", 0,
         rule="cloud shard count must be non-negative", metavar="N",
         help="decompose the cloud tier into per-region controller "
              "workers over up to N processes (rows identical at any "
              "N >= 1; 0 = monolithic gateway)"),
    Flag("REPRO_SERVING", "text", "", check=_serving_spec, metavar="SPEC",
         help="overlay open-loop background tenants on the regional "
              "cloud tier, e.g. 'poisson:200,onoff:80:flash'; '1' arms "
              "one default Poisson tenant; implies a sharded cloud tier"),
    Flag("REPRO_WORKER_DEADLINE", "duration",
         rule="worker deadline must be positive", metavar="S",
         help="hang-detection deadline in seconds for supervised "
              "workers (default: max(60s, barrier window))"),
    Flag("REPRO_MAX_WORKERS", "count", minimum=1,
         rule="worker count must be at least 1", metavar="N",
         help="process-pool size for figure sweeps and the shard "
              "grouping of sharded runs (default: one per core)"),
    Flag("REPRO_PROFILE_OUT", "text", "", metavar="PATH",
         help="dump per-replica cProfile stats to PATH.r<index> "
              "(parallel-executor safe)"),
)}


def knob_table() -> str:
    """:data:`FLAGS` as the Markdown table README.md carries: one row per
    knob with its variable, kind, default and CLI option."""
    def default(flag: Flag) -> str:
        if flag.default is None or flag.default == "":
            return "unset"
        if flag.kind == "switch":
            return f"`{int(flag.default)}`"
        return f"`{flag.default}`"

    def option(flag: Flag) -> str:
        return f"`{flag.option}`" if flag.metavar is None \
            else f"`{flag.option} {flag.metavar}`"

    rows = ["| Variable | Kind | Default | CLI option |",
            "|---|---|---|---|"]
    rows += [f"| `{flag.env}` | {flag.kind} | {default(flag)} | "
             f"{option(flag)} |" for flag in FLAGS.values()]
    return "\n".join(rows)


def resolve(name: str, override: Any = None) -> Any:
    """The value of knob ``name``: ``override`` when given, else the
    environment variable, else the table default.

    Raises ``ValueError`` for a value the knob rejects; on the
    environment path the message starts with ``VAR=value:``.
    """
    flag = FLAGS[name]
    if override is not None:
        prefix, value = "", _TYPES[flag.kind](override)
    else:
        raw = os.environ.get(name, "")
        if not raw:
            return flag.default
        prefix = f"{name}={raw}: "
        if flag.kind == "switch":
            if raw not in ("0", "1"):
                raise ValueError(f"{prefix}expected 0 or 1")
            value = raw == "1"
        else:
            try:
                value = _TYPES[flag.kind](raw)
            except ValueError:
                expected = ("an integer" if flag.kind == "count"
                            else "a number")
                raise ValueError(f"{prefix}expected {expected}") from None
    if flag.kind == "count" and value < flag.minimum:
        raise ValueError(f"{prefix}{flag.rule}")
    if flag.kind == "duration" and not value > 0:
        raise ValueError(f"{prefix}{flag.rule}")
    if flag.check is not None:
        try:
            flag.check(value)
        except ValueError as error:
            if not prefix:
                raise
            raise ValueError(f"{prefix}{error}") from None
    return value
