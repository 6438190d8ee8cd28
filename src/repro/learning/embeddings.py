"""Synthetic embedding space for the recognition workloads.

FaceNet-style recognizers map inputs into a Euclidean space where distance
corresponds to identity similarity (section 2.1). We reproduce that contract
directly: every true identity (person, or item class) is a unit-norm
centroid in R^d; an observation is the centroid plus isotropic Gaussian
sensor noise. This gives the recognition, deduplication, and continuous-
learning experiments a real signal to work against rather than scripted
accuracy numbers.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

__all__ = ["IdentitySpace"]


class IdentitySpace:
    """Ground-truth identities as centroids in an embedding space."""

    def __init__(self, n_identities: int, dim: int = 16,
                 rng: Optional[np.random.Generator] = None):
        if n_identities <= 0:
            raise ValueError("need at least one identity")
        if dim <= 1:
            raise ValueError("embedding dimension must exceed 1")
        self.dim = dim
        self._rng = rng if rng is not None else np.random.default_rng(0)
        vectors = self._rng.normal(size=(n_identities, dim))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        self.centroids: Dict[int, np.ndarray] = {
            identity: vectors[identity] for identity in range(n_identities)
        }

    @property
    def identities(self) -> List[int]:
        return sorted(self.centroids)

    def __len__(self) -> int:
        return len(self.centroids)

    def observe(self, identity: int, noise_sigma: float) -> np.ndarray:
        """One noisy observation (sensor view) of ``identity``.

        ``noise_sigma`` is the *expected norm* of the noise vector (the
        per-dimension scale is noise_sigma / sqrt(dim)), so thresholds stay
        meaningful regardless of the embedding dimension.
        """
        if identity not in self.centroids:
            raise KeyError(f"unknown identity {identity}")
        if noise_sigma < 0:
            raise ValueError("noise must be non-negative")
        noise = self._rng.normal(scale=noise_sigma / np.sqrt(self.dim),
                                 size=self.dim)
        return self.centroids[identity] + noise

    def confusable(self, noise_sigma: float = 1.05) -> np.ndarray:
        """Background that *resembles* a random identity (a pale stone in
        a tennis-ball search): far enough that a well-trained model
        rejects it, close enough that a poorly trained one may not."""
        identity = int(self._rng.integers(len(self.centroids)))
        return self.observe(identity, noise_sigma)
