"""Tests for the learning substrate."""

import numpy as np
import pytest

from repro.learning import (
    DeduplicationEngine,
    DetectionTally,
    IdentitySpace,
    NearestCentroidClassifier,
    OnlineRecognizer,
    RetrainingMode,
)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


@pytest.fixture
def space(rng):
    return IdentitySpace(n_identities=10, dim=16, rng=rng)


class TestIdentitySpace:
    def test_validation(self):
        with pytest.raises(ValueError):
            IdentitySpace(0)
        with pytest.raises(ValueError):
            IdentitySpace(5, dim=1)

    def test_centroids_unit_norm(self, space):
        for centroid in space.centroids.values():
            assert np.linalg.norm(centroid) == pytest.approx(1.0)

    def test_observation_noise(self, space):
        clean = space.observe(0, noise_sigma=0.0)
        assert np.allclose(clean, space.centroids[0])
        noisy = space.observe(0, noise_sigma=0.5)
        assert not np.allclose(noisy, space.centroids[0])

    def test_observe_unknown_identity(self, space):
        with pytest.raises(KeyError):
            space.observe(999, 0.1)

    def test_negative_noise_rejected(self, space):
        with pytest.raises(ValueError):
            space.observe(0, -0.1)


class TestNearestCentroid:
    def test_validation(self):
        with pytest.raises(ValueError):
            NearestCentroidClassifier(0)
        with pytest.raises(ValueError):
            NearestCentroidClassifier(4, accept_radius=0)

    def test_nan_accept_radius_rejected(self):
        """A NaN radius used to make predict accept every embedding."""
        with pytest.raises(ValueError):
            NearestCentroidClassifier(2, accept_radius=float("nan"))

    def test_predict_empty_model_is_unknown(self):
        model = NearestCentroidClassifier(4)
        assert model.predict(np.zeros(4)) is None

    def test_learns_identity(self, space):
        model = NearestCentroidClassifier(space.dim, accept_radius=0.5)
        for identity in space.identities:
            model.add_observation(identity, space.centroids[identity])
        for identity in space.identities:
            assert model.predict(space.centroids[identity]) == identity

    def test_out_of_radius_is_unknown(self, space):
        model = NearestCentroidClassifier(space.dim, accept_radius=0.1)
        model.add_observation(0, space.centroids[0])
        far = space.centroids[0] + 5.0
        assert model.predict(far) is None

    def test_centroid_estimate_converges(self, space):
        """More observations -> estimate closer to the true centroid."""
        model = NearestCentroidClassifier(space.dim)
        errors = []
        for n in (2, 200):
            fresh = NearestCentroidClassifier(space.dim)
            for _ in range(n):
                fresh.add_observation(0, space.observe(0, 0.5))
            errors.append(float(np.linalg.norm(
                fresh.centroid_estimate(0) - space.centroids[0])))
        assert errors[1] < errors[0]

    def test_shape_validation(self):
        model = NearestCentroidClassifier(4)
        with pytest.raises(ValueError):
            model.add_observation(0, np.zeros(5))

    def test_unknown_centroid_estimate(self):
        with pytest.raises(KeyError):
            NearestCentroidClassifier(4).centroid_estimate(0)


class TestDeduplication:
    def test_validation(self):
        with pytest.raises(ValueError):
            DeduplicationEngine(merge_radius=0)

    def test_nan_merge_radius_rejected(self):
        with pytest.raises(ValueError):
            DeduplicationEngine(merge_radius=float("nan"))

    def test_exact_duplicates_merge(self, space):
        engine = DeduplicationEngine(merge_radius=0.3)
        for _ in range(5):
            engine.add(space.centroids[0])
        assert engine.unique_count == 1
        assert engine.cluster_sizes() == [5]

    def test_distinct_identities_stay_apart(self, space):
        engine = DeduplicationEngine(merge_radius=0.3)
        for identity in space.identities:
            engine.add(space.centroids[identity])
        assert engine.unique_count == len(space)

    def test_noisy_multi_device_count(self, space, rng):
        """Multiple noisy sightings per person still count ~25 people."""
        people = IdentitySpace(25, dim=16, rng=rng)
        engine = DeduplicationEngine(merge_radius=0.75)
        for identity in people.identities:
            for _ in range(6):  # photographed by several drones
                engine.add(people.observe(identity, noise_sigma=0.12))
        assert engine.unique_count == pytest.approx(25, abs=3)

    def test_observation_counter(self, space):
        engine = DeduplicationEngine()
        for identity in (0, 1):
            engine.add(space.centroids[identity])
        assert engine.observations == 2


class TestDetectionTally:
    def test_percentages(self):
        tally = DetectionTally()
        for _ in range(8):
            tally.record_correct()
        tally.record_false_negative()
        tally.record_false_positive()
        assert tally.correct_pct == pytest.approx(80.0)
        assert tally.false_negative_pct == pytest.approx(10.0)
        assert tally.false_positive_pct == pytest.approx(10.0)
        assert sum(tally.as_row()) == pytest.approx(100.0)

    def test_empty_tally_raises(self):
        with pytest.raises(ValueError):
            _ = DetectionTally().correct_pct

    def test_true_negatives_excluded_from_decisions(self):
        tally = DetectionTally()
        tally.record_correct()
        tally.record_true_negative()
        assert tally.decisions == 1


class TestOnlineRecognizer:
    def _run(self, mode, rng, sightings=400):
        space = IdentitySpace(10, dim=16,
                              rng=np.random.default_rng(123))
        devices = [f"d{i}" for i in range(16)]
        recognizer = OnlineRecognizer(
            space, devices, mode, rng=rng,
            sensor_noise=0.40, pretrain_noise=0.65, pretrain_samples=1)
        for step in range(sightings):
            device = devices[step % len(devices)]
            identity = int(rng.integers(len(space)))
            recognizer.sight(device, identity)
        return recognizer

    def test_validation(self, space, rng):
        with pytest.raises(ValueError):
            OnlineRecognizer(space, [], RetrainingMode.NONE, rng)
        with pytest.raises(ValueError):
            OnlineRecognizer(space, ["d0"], RetrainingMode.NONE, rng,
                             clutter_rate=1.5)

    def test_swarm_shares_one_model(self, space, rng):
        recognizer = OnlineRecognizer(
            space, ["d0", "d1"], RetrainingMode.SWARM, rng)
        assert recognizer.model_of("d0") is recognizer.model_of("d1")

    def test_self_mode_separate_models(self, space, rng):
        recognizer = OnlineRecognizer(
            space, ["d0", "d1"], RetrainingMode.SELF, rng)
        assert recognizer.model_of("d0") is not recognizer.model_of("d1")

    def test_unknown_device(self, space, rng):
        recognizer = OnlineRecognizer(
            space, ["d0"], RetrainingMode.NONE, rng)
        with pytest.raises(KeyError):
            recognizer.model_of("ghost")

    def test_none_mode_never_accumulates(self, space, rng):
        recognizer = OnlineRecognizer(
            space, ["d0"], RetrainingMode.NONE, rng,
            pretrain_samples=2, clutter_rate=0.0)
        before = recognizer.training_observations("d0")
        for _ in range(50):
            recognizer.sight("d0", 0)
        assert recognizer.training_observations("d0") == before

    def test_swarm_accumulates_fastest(self, rng):
        """Fig 15 mechanism: swarm-wide feedback trains models faster."""
        space = IdentitySpace(10, dim=16, rng=np.random.default_rng(5))
        devices = [f"d{i}" for i in range(16)]
        modes = {}
        for mode in (RetrainingMode.SELF, RetrainingMode.SWARM):
            recognizer = OnlineRecognizer(
                space, devices, mode,
                rng=np.random.default_rng(9), clutter_rate=0.0)
            for step in range(160):
                recognizer.sight(devices[step % 16], step % 10)
            modes[mode] = recognizer.training_observations("d0")
        assert modes[RetrainingMode.SWARM] > 5 * modes[RetrainingMode.SELF]

    def test_accuracy_ordering_swarm_best(self):
        """Swarm retraining must beat self, which must beat none."""
        accuracies = {}
        for mode in RetrainingMode:
            recognizer = self._run(mode, np.random.default_rng(31))
            accuracies[mode] = recognizer.tally.correct_pct
        assert accuracies[RetrainingMode.SWARM] > \
            accuracies[RetrainingMode.NONE]
        assert accuracies[RetrainingMode.SWARM] >= \
            accuracies[RetrainingMode.SELF] - 1.0  # allow statistical tie
        assert accuracies[RetrainingMode.SWARM] > 80.0
