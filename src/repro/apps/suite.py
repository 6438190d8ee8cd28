"""The ten single-tier benchmark applications (paper section 2.1).

Calibration notes (all magnitudes are representative for the named
technologies; the paper reports only chart shapes):

- S1 face recognition (FaceNet): CNN inference over a 1 s frame batch.
- S2 tree recognition (TF Model Zoo CNN): slightly heavier CNN.
- S3 drone detection (SVM on orange tags): light classical model — the
  cloud/edge gap nearly vanishes (Fig 4a).
- S4 obstacle avoidance (ardrone-autonomy SVM): light, latency-critical,
  *always* on-board in the end-to-end scenarios; when benchmarked as a
  cloud job its response must return to the drone before the course can
  change, which is what makes edge execution win (Fig 4a).
- S5 people deduplication (FaceNet embeddings): heavy pairwise matching
  with a swarm-wide synchronization flavor.
- S6 maze traversal (wall follower): few tasks per second (drones move
  slowly in the maze) so task concurrency buys little (Fig 5a).
- S7 weather analytics: tiny sensor records, light computation.
- S8 soil analytics: images + humidity, moderate.
- S9 text recognition (OCR): very parallel and compute hungry — a top
  beneficiary of intra-task parallelism (Fig 5a).
- S10 SLAM: the heaviest job; ample parallelism, CPU- and memory-bound.
"""

from __future__ import annotations

from typing import Dict, List

from .base import AppSpec

__all__ = ["SUITE", "APP_KEYS", "app", "all_apps"]


def _suite() -> Dict[str, AppSpec]:
    apps = [
        # Identify human faces with FaceNet.
        AppSpec(
            key="S1", name="face_recognition",
            cloud_service_s=0.30, service_sigma=0.25, edge_slowdown=8.0,
            input_mb=16.0, output_mb=0.20, parallelism=8,
            edge_filter_keep=0.40, edge_filter_service_s=0.03),
        # Identify trees with a TF Model Zoo CNN.
        AppSpec(
            key="S2", name="tree_recognition",
            cloud_service_s=0.40, service_sigma=0.25, edge_slowdown=10.0,
            input_mb=16.0, output_mb=0.10, parallelism=8,
            edge_filter_keep=0.40, edge_filter_service_s=0.04),
        # Detect other drones with an SVM on orange tags.
        AppSpec(
            key="S3", name="drone_detection",
            cloud_service_s=0.08, service_sigma=0.20, edge_slowdown=1.4,
            input_mb=4.0, output_mb=0.05, parallelism=4,
            edge_filter_keep=0.50, edge_filter_service_s=0.01),
        # Detect obstacles and adjust course in place.
        AppSpec(
            key="S4", name="obstacle_avoidance",
            cloud_service_s=0.06, service_sigma=0.20, edge_slowdown=1.2,
            input_mb=4.0, output_mb=0.02, parallelism=2,
            response_to_device=True, edge_pinned=True),
        # Disambiguate faces via FaceNet embeddings.
        AppSpec(
            key="S5", name="people_deduplication",
            cloud_service_s=0.50, service_sigma=0.30, edge_slowdown=12.0,
            input_mb=12.0, output_mb=0.10, parallelism=8,
            edge_filter_keep=0.45, edge_filter_service_s=0.04),
        # Navigate a walled maze with the wall follower.
        AppSpec(
            key="S6", name="maze",
            cloud_service_s=0.90, service_sigma=0.30, edge_slowdown=4.0,
            input_mb=24.0, output_mb=0.02, parallelism=1, rate_hz=0.2,
            edge_filter_keep=0.40, edge_filter_service_s=0.05),
        # Weather prediction from temperature/humidity.
        AppSpec(
            key="S7", name="weather_analytics",
            cloud_service_s=0.05, service_sigma=0.20, edge_slowdown=1.3,
            input_mb=0.05, output_mb=0.01, parallelism=1,
            response_to_device=False),
        # Soil hydration from images + humidity sensor.
        AppSpec(
            key="S8", name="soil_analytics",
            cloud_service_s=0.15, service_sigma=0.22, edge_slowdown=3.0,
            input_mb=4.0, output_mb=0.05, parallelism=2,
            response_to_device=False,
            edge_filter_keep=0.50, edge_filter_service_s=0.02),
        # Image-to-text conversion of signs (OCR).
        AppSpec(
            key="S9", name="text_recognition",
            cloud_service_s=0.70, service_sigma=0.30, edge_slowdown=15.0,
            input_mb=8.0, output_mb=0.02, parallelism=16,
            edge_filter_keep=0.45, edge_filter_service_s=0.06),
        # Simultaneous localization and mapping.
        AppSpec(
            key="S10", name="slam",
            cloud_service_s=1.00, service_sigma=0.30, edge_slowdown=8.0,
            input_mb=16.0, output_mb=0.50, parallelism=16,
            memory_mb=512.0,
            edge_filter_keep=0.50, edge_filter_service_s=0.08),
    ]
    return {spec.key: spec for spec in apps}


SUITE: Dict[str, AppSpec] = _suite()
APP_KEYS: List[str] = list(SUITE)


def app(key: str) -> AppSpec:
    found = SUITE.get(key)
    if found is None:
        raise ValueError(f"unknown application {key!r}; valid: {APP_KEYS}")
    return found


def all_apps() -> List[AppSpec]:
    return [SUITE[key] for key in APP_KEYS]
