"""Nearest-centroid recognition and embedding-space deduplication.

- :class:`NearestCentroidClassifier` — the recognition model: maintains a
  centroid *estimate* per identity and classifies an embedding to the
  nearest estimate within an acceptance radius (else "unknown"). Estimates
  improve as labeled observations accumulate — the hook continuous learning
  (Fig 15) exploits.
- :class:`DeduplicationEngine` — S5/Scenario B: greedy threshold clustering
  of face embeddings across devices to count unique people.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

__all__ = ["NearestCentroidClassifier", "DeduplicationEngine"]


class NearestCentroidClassifier:
    """Incremental nearest-centroid model with an acceptance radius."""

    def __init__(self, dim: int, accept_radius: float = 0.8):
        if dim <= 0:
            raise ValueError("dimension must be positive")
        if not accept_radius > 0:
            raise ValueError("acceptance radius must be positive")
        self.dim = dim
        self.accept_radius = accept_radius
        self._sums: Dict[int, np.ndarray] = {}
        self._counts: Dict[int, int] = {}
        # Cached centroid matrix for vectorized predict, one row per
        # identity in sorted order. An observation of a known identity
        # rewrites its row; a new identity drops the matrix for a rebuild.
        self._matrix_ids: list = []
        self._matrix_rows: Dict[int, int] = {}
        self._matrix: Optional[np.ndarray] = None

    @property
    def known_identities(self) -> List[int]:
        return sorted(self._sums)

    def observations_of(self, identity: int) -> int:
        return self._counts.get(identity, 0)

    def add_observation(self, identity: int,
                        embedding: np.ndarray) -> None:
        """Fold one labeled observation into the identity's estimate."""
        embedding = np.asarray(embedding, dtype=float)
        if embedding.shape != (self.dim,):
            raise ValueError(
                f"embedding shape {embedding.shape} != ({self.dim},)")
        if identity in self._sums:
            self._sums[identity] = self._sums[identity] + embedding
            self._counts[identity] += 1
            if self._matrix is not None:
                self._matrix[self._matrix_rows[identity]] = (
                    self._sums[identity] / self._counts[identity])
        else:
            self._sums[identity] = embedding.copy()
            self._counts[identity] = 1
            self._matrix = None

    def centroid_estimate(self, identity: int) -> np.ndarray:
        if identity not in self._sums:
            raise KeyError(f"unknown identity {identity}")
        return self._sums[identity] / self._counts[identity]

    def _centroid_matrix(self) -> Optional[np.ndarray]:
        if not self._sums:
            return None
        if self._matrix is None:
            self._matrix_ids = sorted(self._sums)
            self._matrix_rows = {
                identity: row
                for row, identity in enumerate(self._matrix_ids)}
            self._matrix = np.stack([
                self._sums[i] / self._counts[i] for i in self._matrix_ids])
        return self._matrix

    def predict(self, embedding: np.ndarray) -> Optional[int]:
        """Nearest identity within the acceptance radius, else None."""
        matrix = self._centroid_matrix()
        if matrix is None:
            return None
        embedding = np.asarray(embedding, dtype=float)
        distances = np.linalg.norm(matrix - embedding, axis=1)
        best = int(np.argmin(distances))
        if distances[best] > self.accept_radius:
            return None
        return self._matrix_ids[best]


class DeduplicationEngine:
    """Counts unique entities from embeddings via threshold clustering.

    Greedy: an embedding joins the first cluster whose running centroid is
    within ``merge_radius``; otherwise it founds a new cluster. The unique
    count is the number of clusters — Scenario B's "number of unique people".
    """

    def __init__(self, merge_radius: float = 0.8):
        if not merge_radius > 0:
            raise ValueError("merge radius must be positive")
        self.merge_radius = merge_radius
        self._sums: List[np.ndarray] = []
        self._counts: List[int] = []
        #: Running centroids, one row per cluster.
        self._centroids: Optional[np.ndarray] = None
        self.observations = 0

    def add(self, embedding: np.ndarray) -> int:
        """Assign the embedding to a cluster; returns the cluster index.

        All clusters are screened at once with a row-wise norm and a
        relative margin of 1e-9, which absorbs the last-bit difference
        between a row-wise reduction and a 1-D ``np.linalg.norm``. The
        candidates are then confirmed in index order with the 1-D test,
        so the first cluster within ``merge_radius`` wins as in a scan.
        """
        embedding = np.asarray(embedding, dtype=float)
        self.observations += 1
        centroids = self._centroids
        if centroids is not None:
            screen = np.linalg.norm(centroids - embedding, axis=1) <= \
                self.merge_radius * (1 + 1e-9)
            for index in np.flatnonzero(screen).tolist():
                if float(np.linalg.norm(centroids[index] - embedding)) <= \
                        self.merge_radius:
                    self._sums[index] = self._sums[index] + embedding
                    self._counts[index] += 1
                    centroids[index] = (self._sums[index] /
                                        self._counts[index])
                    return index
        self._centroids = (embedding[np.newaxis].copy()
                           if centroids is None
                           else np.vstack([centroids, embedding]))
        self._sums.append(embedding.copy())
        self._counts.append(1)
        return len(self._sums) - 1

    @property
    def unique_count(self) -> int:
        return len(self._sums)

    def cluster_sizes(self) -> List[int]:
        return list(self._counts)
