"""Structured run manifests: what produced a result, exactly.

Every :class:`~repro.experiments.common.ExperimentResult` (and every
``--trace-out`` export) carries a :class:`RunManifest`: the figure id,
seed, runtime flags, git revision, wall clock, and the kernel-event /
layer accounting — enough to re-run the experiment bit-for-bit and to
tell two trace files apart six months later. Manifests round-trip
through JSON (``to_json`` / ``from_json``).
"""

from __future__ import annotations

import datetime
import json
import os
import subprocess
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["RunManifest", "git_revision", "runtime_flags"]

_GIT_REV: Optional[str] = None


def git_revision() -> str:
    """The repo's short git revision, or ``"unknown"`` outside a
    checkout (cached; the subprocess runs at most once per process)."""
    global _GIT_REV
    if _GIT_REV is None:
        try:
            _GIT_REV = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=os.path.dirname(os.path.abspath(__file__)),
                capture_output=True, text=True, timeout=5,
                check=True).stdout.strip() or "unknown"
        except Exception:
            _GIT_REV = "unknown"
    return _GIT_REV


def runtime_flags() -> Dict[str, Any]:
    """The switches in effect right now: ``trace`` always, plus every
    :data:`~repro.sim.flags.FLAGS` knob whose value differs from its
    default, so unarmed manifests compare clean and an armed run
    (sharded, mean-field, serving, ...) says so."""
    from . import tracing_enabled
    from ..sim.flags import FLAGS, resolve
    flags = {"trace": tracing_enabled()}
    for flag in FLAGS.values():
        value = resolve(flag.env)
        if value != flag.default:
            flags.setdefault(flag.key, value)
    return flags


@dataclass
class RunManifest:
    """Provenance + accounting for one experiment run."""

    figure: str
    seed: Optional[int] = None
    flags: Dict[str, Any] = field(default_factory=dict)
    git_rev: str = "unknown"
    created: str = ""
    elapsed_s: float = 0.0
    sim_events: int = 0
    layer_events: Dict[str, int] = field(default_factory=dict)
    spans: int = 0
    trace_files: List[str] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def collect(cls, figure: str, seed: Optional[int] = None,
                **fields: Any) -> "RunManifest":
        """Build a manifest stamped with the current flags/rev/time.

        ``created`` is timezone-aware UTC: naive local stamps made two
        manifests from the same run look hours apart when compared
        across hosts.
        """
        return cls(figure=figure, seed=seed, flags=runtime_flags(),
                   git_rev=git_revision(),
                   created=datetime.datetime.now(
                       datetime.timezone.utc).isoformat(
                       timespec="seconds"),
                   **fields)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True,
                          default=str)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunManifest":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        fields = {key: value for key, value in payload.items()
                  if key in known}
        # Unknown keys (written by a newer version) survive the round
        # trip inside ``extra`` instead of being dropped.
        unknown = {key: value for key, value in payload.items()
                   if key not in known}
        if unknown:
            fields.setdefault("extra", {}).update(unknown)
        return cls(**fields)

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        return cls.from_dict(json.loads(text))

    def write(self, path: str) -> str:
        with open(path, "w") as handle:
            handle.write(self.to_json())
            handle.write("\n")
        return path
