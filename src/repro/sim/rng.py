"""Deterministic named random streams.

Every stochastic model in the repository draws from a named stream derived
from a single experiment seed. Streams are independent of the order in which
they are first requested, so adding a new model never perturbs the draws of
existing ones — essential for comparing platform variants on identical
workloads (common random numbers).
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np

__all__ = ["RandomStreams"]


class RandomStreams:
    """Factory of independent, reproducible ``numpy`` generators.

    >>> streams = RandomStreams(seed=7)
    >>> streams.stream("network.wifi").random()  # doctest: +SKIP
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._cache: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name`` (created on first use)."""
        generator = self._cache.get(name)
        if generator is None:
            generator = np.random.default_rng(self._derive(name))
            self._cache[name] = generator
        return generator

    def _derive(self, name: str) -> int:
        digest = hashlib.sha256(
            f"{self.seed}:{name}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")

    def __repr__(self) -> str:
        return f"RandomStreams(seed={self.seed})"
