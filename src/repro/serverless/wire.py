"""The sharded runtime's wire forms: cloud calls and completions as columns.

A cloud-bound call has one form from the cell boundary to the pricers
and back: :class:`Calls`, a batch of arrays. Cells build it, the driver
sorts and routes it by region, and both cloud tiers read its rows and
answer with :class:`Completions`. Nothing stamps a call after it is
built; the edge half of a call stays in its cell until the merge.

This module imports only numpy and :mod:`repro.telemetry`: cell and
region workers both run it, so it belongs to neither's layer.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Sequence

import numpy as np

from ..telemetry import COMPONENTS

__all__ = ["Calls", "Completions"]


def _column(values, count: int, dtype) -> np.ndarray:
    """``values`` as a ``count``-long column; a scalar is repeated."""
    if np.ndim(values) == 0:
        return np.full(count, values, dtype=dtype)
    return np.asarray(values, dtype=dtype)


class Calls(NamedTuple):
    """Cloud-bound calls as columns, one row per call.

    ``(cell, seq)`` is unique per call. ``recognition_s`` and
    ``dedup_s`` carry the service draws the cell took from its own
    streams, NaN for a call without that stage. ``tenant`` indexes
    ``ServingConfig.tenants`` (-1 for swarm and mean-field calls);
    ``synthetic`` calls are background load (mean-field or serving),
    never joined into a latency row. ``len(calls.seq)`` is the number
    of calls (``len(calls)`` counts fields).
    """

    cell: np.ndarray  # int64
    seq: np.ndarray  # int64
    region: np.ndarray  # int64
    arrival_s: np.ndarray  # float64
    input_mb: np.ndarray  # float64
    output_mb: np.ndarray  # float64
    weight: np.ndarray  # float64
    recognition_s: np.ndarray  # float64, NaN: no recognition stage
    dedup_s: np.ndarray  # float64, NaN: no dedup stage
    tenant: np.ndarray  # int64, -1: not a serving call
    synthetic: np.ndarray  # bool

    @classmethod
    def build(cls, cell, seq, arrival_s, recognition_s, dedup_s,
              input_mb, output_mb, region=0, weight=1.0, tenant=-1,
              synthetic=False) -> "Calls":
        """Columns from sequences or scalars (repeated to ``len(seq)``);
        ``None`` service draws become NaN."""
        count = len(seq)
        return cls(
            _column(cell, count, np.int64), _column(seq, count, np.int64),
            _column(region, count, np.int64),
            _column(arrival_s, count, float),
            _column(input_mb, count, float), _column(output_mb, count, float),
            _column(weight, count, float),
            _column(recognition_s, count, float),
            _column(dedup_s, count, float),
            _column(tenant, count, np.int64),
            _column(synthetic, count, bool))

    @staticmethod
    def float_columns(rows: Sequence[tuple]) -> np.ndarray:
        """``(arrival_s, recognition_s, dedup_s, input_mb, output_mb)``
        rows as five columns, the float arguments of :meth:`build`
        (``None`` becomes NaN)."""
        return np.array(rows, dtype=float).reshape(-1, 5).T

    @classmethod
    def concat(cls, parts: Sequence["Calls"]) -> "Calls":
        if not parts:
            return cls.build((), (), (), (), (), (), ())
        return cls(*(np.concatenate(column) for column in zip(*parts)))

    def take(self, index) -> "Calls":
        """The rows ``index`` selects (a mask, indices or a slice)."""
        return Calls(*(column[index] for column in self))

    def sorted(self) -> "Calls":
        """Canonical ``(arrival_s, cell, seq)`` order."""
        return self.take(np.lexsort((self.seq, self.cell, self.arrival_s)))

    def by_region(self) -> Dict[int, "Calls"]:
        """The calls of each region present, in batch order."""
        return {region: self.take(self.region == region)
                for region in np.unique(self.region).tolist()}


class Completions(NamedTuple):
    """Served calls as columns: the shape both cloud tiers return.

    Row ``i`` is call ``(cell[i], seq[i])``, done at ``done_s[i]``, with
    its cloud-side breakdown in ``breakdown[i]`` (``COMPONENTS`` order).
    """

    cell: np.ndarray  # int64
    seq: np.ndarray  # int64
    done_s: np.ndarray  # float64
    breakdown: np.ndarray  # (n, 4) float64

    @classmethod
    def build(cls, cell: Sequence[int], seq: Sequence[int],
              done_s: Sequence[float], breakdown) -> "Completions":
        """Columns from sequences; ``breakdown`` is an ``(n, 4)``
        array-like, one row per call in ``COMPONENTS`` order."""
        return cls(np.asarray(cell, dtype=np.int64),
                   np.asarray(seq, dtype=np.int64),
                   np.asarray(done_s, dtype=float),
                   np.asarray(breakdown, dtype=float).reshape(
                       len(seq), len(COMPONENTS)))

    @classmethod
    def concat(cls, parts: Sequence["Completions"]) -> "Completions":
        if not parts:
            return cls.build((), (), (), ())
        return cls(*(np.concatenate(column) for column in zip(*parts)))

    def rows_for(self, cell: np.ndarray, seq: np.ndarray) -> np.ndarray:
        """The row that served each ``(cell, seq)`` key, or -1.

        Keys become flat indices into a ``(cells, seqs)`` grid
        (``ravel_multi_index`` raises rather than overflow), are ranked
        with a stable sort and looked up by bisection. A served key is
        unique (serving calls take ``SERVING_CELL_BASE + index`` as their
        cell), so a key served twice raises ``ValueError``.
        """
        index = np.full(seq.shape[0], -1, dtype=np.int64)
        if not seq.shape[0] or not self.seq.shape[0]:
            return index
        dims = (int(max(cell.max(), self.cell.max())) + 1,
                int(max(seq.max(), self.seq.max())) + 1)
        served = np.ravel_multi_index((self.cell, self.seq), dims)
        wanted = np.ravel_multi_index((cell, seq), dims)
        order = np.argsort(served, kind="stable")
        ranked = served[order]
        repeated = np.flatnonzero(ranked[1:] == ranked[:-1])
        if repeated.size:
            first = order[repeated[0]]
            raise ValueError(
                f"key (cell={int(self.cell[first])}, "
                f"seq={int(self.seq[first])}) served more than once")
        slot = np.searchsorted(ranked, wanted, side="right") - 1
        hit = slot >= 0
        hit[hit] = ranked[slot[hit]] == wanted[hit]
        index[hit] = order[slot[hit]]
        return index

    def latencies(self, calls: Calls) -> np.ndarray:
        """End-to-end latency of each served call, in ``calls`` order."""
        index = self.rows_for(calls.cell, calls.seq)
        served = index >= 0
        return self.done_s[index[served]] - calls.arrival_s[served]
