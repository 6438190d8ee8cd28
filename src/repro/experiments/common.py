"""Shared experiment-harness utilities.

Every figure module exposes ``run(options) -> ExperimentResult``. Results
carry structured rows plus a rendered table so benchmarks can both assert
on the numbers and print the same series the paper reports.

Repeats default below the paper's (10x for jobs, 50x for scenarios) to keep
the full harness runnable in minutes; pass ``repeats=...`` for more.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..obs.manifest import RunManifest
from ..telemetry import render_table

__all__ = ["ExperimentResult", "mean_over_seeds"]


@dataclass
class ExperimentResult:
    """Structured output of one figure's harness."""

    figure: str
    title: str
    headers: List[str]
    rows: List[List[Any]]
    #: Free-form per-figure payloads (series, tallies) for assertions.
    data: Dict[str, Any] = field(default_factory=dict)
    #: Wall-clock seconds the harness took (filled in by the registry).
    elapsed_s: float = 0.0
    #: Kernel events dispatched while producing this result, pool workers
    #: included (filled in by the registry).
    sim_events: int = 0
    #: Per-layer breakdown of ``sim_events`` (edge/network/serverless plus
    #: the untagged remainder under "other"; filled in by the registry).
    layer_events: Dict[str, int] = field(default_factory=dict)
    #: Structured run manifest (:class:`repro.obs.RunManifest`): seed,
    #: flags, git revision, accounting — attached by the registry.
    manifest: Optional[RunManifest] = None

    def render(self) -> str:
        return render_table(self.headers, self.rows,
                            title=f"{self.figure}: {self.title}")


def mean_over_seeds(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("no values")
    return float(np.mean(values))
