"""Continuous-learning modes (paper section 4.6, Fig 15).

A centralized backend can retrain recognition models with feedback from the
entire swarm instead of each device alone. Three modes:

- ``NONE``  — models ship pretrained and never improve.
- ``SELF``  — each device retrains only on its own decisions.
- ``SWARM`` — HiveMind: all devices' decisions retrain one global model,
  which then updates every device — convergence is roughly fleet-size times
  faster.

:class:`OnlineRecognizer` wires an :class:`~repro.learning.embeddings.
IdentitySpace` to per-device or shared :class:`~repro.learning.classifier.
NearestCentroidClassifier` instances. Pretraining uses a deliberately small
sample so the initial model has residual error; retraining folds in new
labeled observations, shrinking centroid-estimate error as 1/sqrt(n).
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, List, Optional

import numpy as np

from .accuracy import DetectionTally
from .classifier import NearestCentroidClassifier
from .embeddings import IdentitySpace

__all__ = ["RetrainingMode", "OnlineRecognizer"]


class RetrainingMode(Enum):
    NONE = "none"
    SELF = "self"
    SWARM = "swarm"


class OnlineRecognizer:
    """Recognition with optional per-device or swarm-wide retraining."""

    #: Acceptance radius of every device's recognition model.
    ACCEPT_RADIUS = 0.8

    def __init__(self, space: IdentitySpace, device_ids: List[str],
                 mode: RetrainingMode,
                 rng: np.random.Generator,
                 sensor_noise: float = 0.45,
                 pretrain_noise: float = 0.6,
                 pretrain_samples: int = 2,
                 clutter_rate: float = 0.06):
        if not device_ids:
            raise ValueError("need at least one device")
        if not 0 <= clutter_rate < 1:
            raise ValueError("clutter rate must be in [0, 1)")
        self.space = space
        self.mode = mode
        self.rng = rng
        self.sensor_noise = sensor_noise
        self.clutter_rate = clutter_rate
        self.tally = DetectionTally()
        if mode is RetrainingMode.SWARM:
            shared = self._pretrained(pretrain_noise, pretrain_samples)
            self._models: Dict[str, NearestCentroidClassifier] = {
                device: shared for device in device_ids}
        else:
            self._models = {
                device: self._pretrained(pretrain_noise, pretrain_samples)
                for device in device_ids}

    def _pretrained(self, noise: float,
                    samples: int) -> NearestCentroidClassifier:
        """A model shipped with only a few noisy training examples."""
        model = NearestCentroidClassifier(self.space.dim, self.ACCEPT_RADIUS)
        for identity in self.space.identities:
            for _ in range(samples):
                model.add_observation(
                    identity, self.space.observe(identity, noise))
        return model

    def model_of(self, device_id: str) -> NearestCentroidClassifier:
        model = self._models.get(device_id)
        if model is None:
            raise KeyError(f"unknown device {device_id!r}")
        return model

    def sight(self, device_id: str, identity: int) -> Optional[int]:
        """One device sighting of a true identity: classify and tally.

        With probability ``clutter_rate`` the sighting is background clutter
        instead; matching clutter to any identity is a false positive.
        Returns the predicted identity (or None).
        """
        model = self.model_of(device_id)
        if float(self.rng.random()) < self.clutter_rate:
            predicted = model.predict(self.space.confusable())
            if predicted is not None:
                self.tally.record_false_positive()
            else:
                self.tally.record_true_negative()
            return predicted
        embedding = self.space.observe(identity, self.sensor_noise)
        predicted = model.predict(embedding)
        if predicted == identity:
            self.tally.record_correct()
        elif predicted is None:
            self.tally.record_false_negative()
        else:
            self.tally.record_false_positive()
        if self.mode is not RetrainingMode.NONE:
            # Online feedback: the verified label retrains the model —
            # device-local in SELF, the shared model (hence every device)
            # in SWARM.
            model.add_observation(identity, embedding)
        return predicted

    def training_observations(self, device_id: str) -> int:
        """Total labeled observations backing one device's model."""
        model = self.model_of(device_id)
        return sum(model.observations_of(identity)
                   for identity in model.known_identities)
