"""Unit and property tests for the uniform grid spatial index."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.grid import CircleScan, GridIndex
from repro.testing.strategies import clustered_points

coordinate = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False)


def brute_force_circle(coords: np.ndarray, x: float, y: float, radius: float) -> set:
    # Compare squared distances with the same tiny absolute slack the grid
    # index uses, so the reference and the index agree on boundary points.
    deltas = coords - np.array([x, y])
    squared = deltas[:, 0] ** 2 + deltas[:, 1] ** 2
    return set(np.nonzero(squared <= radius * radius + 1e-18)[0].tolist())


class TestConstruction:
    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            GridIndex(np.zeros((3, 3)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            GridIndex(np.zeros((0, 2)))

    def test_single_point(self):
        index = GridIndex([(0.5, 0.5)])
        assert index.size == 1
        assert index.query_circle(0.5, 0.5, 0.1) == [0]

    def test_identical_points(self):
        index = GridIndex([(0.5, 0.5)] * 10)
        assert sorted(index.query_circle(0.5, 0.5, 0.0)) == list(range(10))

    def test_explicit_cell_size(self):
        index = GridIndex([(0.0, 0.0), (1.0, 1.0)], cell_size=0.25)
        assert index.cell_size == 0.25


class TestCircleQueries:
    def setup_method(self):
        rng = np.random.default_rng(42)
        self.coords = rng.uniform(0.0, 1.0, size=(500, 2))
        self.index = GridIndex(self.coords)

    def test_zero_radius_finds_exact_point(self):
        x, y = self.coords[17]
        assert 17 in self.index.query_circle(float(x), float(y), 0.0)

    def test_negative_radius_returns_empty(self):
        assert self.index.query_circle(0.5, 0.5, -1.0) == []

    def test_full_radius_returns_everything(self):
        result = self.index.query_circle(0.5, 0.5, 2.0)
        assert sorted(result) == list(range(500))

    @pytest.mark.parametrize("radius", [0.05, 0.1, 0.25, 0.5])
    def test_matches_brute_force(self, radius):
        expected = brute_force_circle(self.coords, 0.4, 0.6, radius)
        actual = set(self.index.query_circle(0.4, 0.6, radius))
        assert actual == expected

    def test_query_center_outside_bounding_box(self):
        result = set(self.index.query_circle(2.0, 2.0, 1.6))
        expected = brute_force_circle(self.coords, 2.0, 2.0, 1.6)
        assert result == expected


class TestAnnulusQueries:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.coords = rng.uniform(0.0, 1.0, size=(300, 2))
        self.index = GridIndex(self.coords)

    def test_annulus_matches_brute_force(self):
        inner, outer = 0.2, 0.4
        actual = set(self.index.query_annulus(0.5, 0.5, inner, outer))
        deltas = self.coords - np.array([0.5, 0.5])
        distances = np.hypot(deltas[:, 0], deltas[:, 1])
        expected = set(
            np.nonzero((distances >= inner - 1e-9) & (distances <= outer + 1e-9))[0].tolist()
        )
        assert actual == expected

    def test_inverted_bounds_empty(self):
        assert self.index.query_annulus(0.5, 0.5, 0.5, 0.2) == []

    def test_zero_inner_equals_circle(self):
        annulus = set(self.index.query_annulus(0.3, 0.3, 0.0, 0.2))
        circle = set(self.index.query_circle(0.3, 0.3, 0.2))
        assert annulus == circle


class TestNearest:
    def setup_method(self):
        rng = np.random.default_rng(11)
        self.coords = rng.uniform(0.0, 1.0, size=(200, 2))
        self.index = GridIndex(self.coords)

    def test_nearest_single(self):
        deltas = self.coords - np.array([0.5, 0.5])
        distances = np.hypot(deltas[:, 0], deltas[:, 1])
        expected = int(np.argmin(distances))
        assert self.index.nearest(0.5, 0.5, 1) == [expected]

    def test_nearest_k_matches_brute_force(self):
        k = 10
        deltas = self.coords - np.array([0.25, 0.75])
        distances = np.hypot(deltas[:, 0], deltas[:, 1])
        expected = list(np.argsort(distances)[:k])
        actual = self.index.nearest(0.25, 0.75, k)
        assert [int(v) for v in actual] == [int(v) for v in expected]

    def test_nearest_with_exclusions(self):
        first = self.index.nearest(0.5, 0.5, 1)[0]
        second = self.index.nearest(0.5, 0.5, 1, exclude={first})[0]
        assert second != first

    def test_nearest_zero_count(self):
        assert self.index.nearest(0.5, 0.5, 0) == []

    def test_nearest_more_than_available(self):
        result = self.index.nearest(0.5, 0.5, 500)
        assert len(result) == 200


class TestDistanceIteration:
    def test_sorted_ascending(self):
        coords = [(0.0, 0.0), (0.5, 0.0), (0.2, 0.0), (0.9, 0.0)]
        index = GridIndex(coords)
        pairs = index.iter_distances_ascending(0.0, 0.0)
        distances = [d for d, _ in pairs]
        assert distances == sorted(distances)

    def test_candidate_restriction(self):
        coords = [(0.0, 0.0), (0.5, 0.0), (0.2, 0.0)]
        index = GridIndex(coords)
        pairs = index.iter_distances_ascending(0.0, 0.0, candidates=[1, 2])
        assert [idx for _, idx in pairs] == [2, 1]


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=80),
    coordinate,
    coordinate,
    st.floats(min_value=0.0, max_value=1.5, allow_nan=False),
)
def test_grid_circle_query_property(points, x, y, radius):
    coords = np.asarray(points, dtype=np.float64)
    index = GridIndex(coords)
    expected = brute_force_circle(coords, x, y, radius)
    actual = set(index.query_circle(x, y, radius))
    assert actual == expected


class TestCircleScan:
    """A scan's prefixes are exactly the grid's answers at smaller radii."""

    def test_prefixes_shrink_with_the_radius(self):
        rng = np.random.default_rng(9)
        index = GridIndex(rng.uniform(0, 1, size=(300, 2)))
        scan = CircleScan(index, 0.4, 0.6, 0.5)
        assert set(scan.indices.tolist()) == set(index.query_circle(0.4, 0.6, 0.5))
        for radius in (0.5, 0.37, 0.2, 0.05, 0.0):
            count = scan.prefix_length(radius)
            assert count >= 0
            assert set(scan.indices[:count].tolist()) == set(index.query_circle(0.4, 0.6, radius))

    def test_a_point_on_the_axis_at_the_radius_is_not_a_prefix(self):
        # (1, 0) lies exactly at distance 1 along the x axis: the squared
        # distance admits it, and its axis offset equals the radius.
        index = GridIndex([(0.0, 0.0), (0.5, 0.0), (1.0, 0.0), (0.3, 0.3), (2.0, 2.0)])
        scan = CircleScan(index, 0.0, 0.0, 1.5)
        assert scan.prefix_length(1.0) == -1
        assert scan.prefix_length(0.9) == 3
        assert scan.prefix_length(2.0) == -1  # above the scan's radius
        assert scan.prefix_length(-1.0) == 0


@settings(max_examples=80, deadline=None)
@given(
    points=st.lists(clustered_points(), min_size=1, max_size=40),
    center=clustered_points(),
    radii=st.lists(st.floats(min_value=0.0, max_value=1.5), min_size=1, max_size=6),
)
def test_circle_scan_prefix_property(points, center, radii):
    index = GridIndex(np.asarray(points, dtype=np.float64))
    largest = max(radii)
    scan = CircleScan(index, center[0], center[1], largest)
    for radius in sorted(radii, reverse=True):
        count = scan.prefix_length(radius)
        expected = set(index.query_circle(center[0], center[1], radius))
        if count >= 0:
            assert set(scan.indices[:count].tolist()) == expected
        # A radius on a point's axis offset may answer "not a prefix"; the
        # caller then asks the grid itself.
