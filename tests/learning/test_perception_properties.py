"""Property tests: the array code of the perception hot path against the
per-object scalar scans it replaced.

The scalar references live only here. Each property drives the library
and the reference through the same random sequence of operations and
asserts identical answers: the people footprint over moving walkers
(including walkers exactly on the footprint edge), classifier
predictions after interleaved observations, and the deduplication
cluster index of every embedding (including embeddings one ulp either
side of the merge radius).
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edge import FieldWorld
from repro.learning import DeduplicationEngine, NearestCentroidClassifier


# -- scalar references --------------------------------------------------------
def reference_visible_people(world, center, width_m, depth_m):
    """The per-walker footprint scan."""
    return [p.person_id for p in world.people.values()
            if abs(p.position[0] - center[0]) <= width_m / 2 and
            abs(p.position[1] - center[1]) <= depth_m / 2]


class ReferenceDeduplication:
    """Greedy threshold clustering, one 1-D norm per cluster."""

    def __init__(self, merge_radius):
        self.merge_radius = merge_radius
        self.sums = []
        self.counts = []

    def centroid(self, index):
        return self.sums[index] / self.counts[index]

    def add(self, embedding):
        embedding = np.asarray(embedding, dtype=float)
        for index in range(len(self.sums)):
            if float(np.linalg.norm(self.centroid(index) - embedding)) <= \
                    self.merge_radius:
                self.sums[index] = self.sums[index] + embedding
                self.counts[index] += 1
                return index
        self.sums.append(embedding.copy())
        self.counts.append(1)
        return len(self.sums) - 1


def at_distance(centroid, direction, target):
    """An embedding along ``direction`` whose 1-D distance to
    ``centroid`` is the largest reachable float not above ``target``."""
    direction = direction / np.linalg.norm(direction)
    step = target
    while True:
        embedding = centroid + step * direction
        if float(np.linalg.norm(centroid - embedding)) <= target:
            return embedding
        step = math.nextafter(step, 0.0)


# -- people footprint ---------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       size=st.tuples(st.floats(1, 200), st.floats(1, 200)),
       data=st.data())
def test_visible_people_matches_scan(seed, size, data):
    world = FieldWorld(size[0], size[1], np.random.default_rng(seed))
    clock = 0.0
    for _ in range(data.draw(st.integers(1, 12), label="steps")):
        op = data.draw(st.sampled_from(["advance", "place", "query"]))
        if op == "advance":
            clock += data.draw(st.sampled_from([0.0, 0.5, 1.0, 7.25]))
            world.advance(clock)
        elif op == "place":
            world.place_people(data.draw(st.integers(0, 40)))
        width = data.draw(st.floats(0.5, 60), label="width")
        depth = data.draw(st.floats(0.5, 60), label="depth")
        if world.people and data.draw(st.booleans(), label="on edge"):
            # Centre the footprint so one walker sits on its edge.
            walker = world.people[data.draw(
                st.integers(0, world.people_count - 1))].position
            sx = data.draw(st.sampled_from([-1, 0, 1]))
            sy = data.draw(st.sampled_from([-1, 0, 1]))
            center = (walker[0] + sx * width / 2, walker[1] + sy * depth / 2)
        else:
            center = (data.draw(st.floats(-10, 210), label="cx"),
                      data.draw(st.floats(-10, 210), label="cy"))
        assert world.visible_people(center, width, depth) == \
            reference_visible_people(world, center, width, depth)


@settings(max_examples=30, deadline=None)
@given(xs=st.lists(st.integers(0, 20), min_size=1, max_size=30),
       ys=st.lists(st.integers(0, 20), min_size=1, max_size=30),
       center=st.tuples(st.integers(0, 20), st.integers(0, 20)),
       half=st.tuples(st.integers(1, 10), st.integers(1, 10)))
def test_walkers_exactly_on_the_edge_are_seen(xs, ys, center, half):
    """On a lattice ``abs(x - c) == w / 2`` holds exactly: edge walkers
    are inside, as in the scan."""
    world = FieldWorld(20, 20, np.random.default_rng(0))
    world.place_people(min(len(xs), len(ys)))
    # Pinned before the first query, so the position array is built
    # from these lattice points.
    for person, x, y in zip(world.people.values(), xs, ys):
        person.position = (float(x), float(y))
    width, depth = 2.0 * half[0], 2.0 * half[1]
    center = (float(center[0]), float(center[1]))
    seen = world.visible_people(center, width, depth)
    assert seen == reference_visible_people(world, center, width, depth)
    on_edge = [p.person_id for p in world.people.values()
               if abs(p.position[0] - center[0]) == width / 2 and
               abs(p.position[1] - center[1]) <= depth / 2]
    assert set(on_edge) <= set(seen)


def test_world_without_people_builds_nothing():
    world = FieldWorld(10, 10, np.random.default_rng(0))
    world.place_items(5)
    world.advance(3.0)
    assert world.visible_people((5.0, 5.0), 20.0, 20.0) == []
    assert world._people_xy is None


# -- classifier ---------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 16), seed=st.integers(0, 2**32 - 1),
       radius=st.floats(0.05, 3.0),
       ops=st.lists(st.tuples(st.booleans(), st.integers(0, 5)),
                    min_size=1, max_size=40))
def test_predict_after_interleaved_observations(dim, seed, radius, ops):
    """The incrementally kept centroid matrix answers like a model built
    from scratch on the same observations."""
    rng = np.random.default_rng(seed)
    model = NearestCentroidClassifier(dim, accept_radius=radius)
    history = []
    for observe, identity in ops:
        embedding = rng.normal(0.0, 1.0, dim)
        if observe:
            model.add_observation(identity, embedding)
            history.append((identity, embedding))
            continue
        fresh = NearestCentroidClassifier(dim, accept_radius=radius)
        for known, seen in history:
            fresh.add_observation(known, seen)
        assert model.predict(embedding) == fresh.predict(embedding)
        for known in fresh.known_identities:
            assert model.predict(fresh.centroid_estimate(known)) == \
                fresh.predict(fresh.centroid_estimate(known))


# -- deduplication ------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(dim=st.integers(1, 16), seed=st.integers(0, 2**32 - 1),
       radius=st.floats(0.05, 2.0), data=st.data())
def test_dedup_indices_match_scan(dim, seed, radius, data):
    rng = np.random.default_rng(seed)
    engine = DeduplicationEngine(merge_radius=radius)
    reference = ReferenceDeduplication(radius)
    for _ in range(data.draw(st.integers(1, 60), label="adds")):
        if reference.sums and data.draw(st.booleans(), label="boundary"):
            # One ulp inside, on, or one ulp outside the radius of an
            # existing centroid, in a random direction.
            index = data.draw(st.integers(0, len(reference.sums) - 1))
            target = data.draw(st.sampled_from([
                math.nextafter(radius, 0.0), radius,
                math.nextafter(radius, math.inf)]))
            embedding = at_distance(reference.centroid(index),
                                    rng.normal(0.0, 1.0, dim), target)
        else:
            embedding = rng.normal(0.0, radius, dim)
        assert engine.add(embedding) == reference.add(embedding)
    assert engine.cluster_sizes() == reference.counts


def test_dedup_merges_on_the_radius_in_any_direction():
    """Where the 1-D distance is at most the radius the embedding merges,
    whatever last bit a row-wise norm of the same difference has."""
    rng = np.random.default_rng(5)
    radius = 0.75
    for _ in range(200):
        engine = DeduplicationEngine(merge_radius=radius)
        centroid = rng.normal(0.0, 1.0, 16)
        engine.add(centroid)
        assert engine.add(at_distance(centroid, rng.normal(0.0, 1.0, 16),
                                      radius)) == 0


def test_dedup_merges_at_exactly_the_radius():
    """With a dyadic offset the 1-D distance is exactly the radius (a
    merge) or one ulp past it (a new cluster)."""
    radius = 0.75
    engine = DeduplicationEngine(merge_radius=radius)
    engine.add(np.zeros(16))
    on_edge = np.zeros(16)
    on_edge[3] = radius
    assert engine.add(on_edge) == 0
    engine = DeduplicationEngine(merge_radius=radius)
    engine.add(np.zeros(16))
    past = np.zeros(16)
    past[3] = math.nextafter(radius, math.inf)
    assert engine.add(past) == 1
