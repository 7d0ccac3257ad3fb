"""Unit tests for the SpatialGraph data structure."""

import json
import math

import numpy as np
import pytest

from repro.exceptions import (
    GraphConstructionError,
    InvalidParameterError,
    VertexNotFoundError,
)
from repro.graph.builder import GraphBuilder
from repro.graph.spatial_graph import SpatialGraph


def simple_graph() -> SpatialGraph:
    builder = GraphBuilder()
    positions = {"a": (0.0, 0.0), "b": (1.0, 0.0), "c": (0.0, 1.0), "d": (1.0, 1.0)}
    for label, (x, y) in positions.items():
        builder.add_vertex(label, x, y)
    builder.add_edges([("a", "b"), ("a", "c"), ("b", "c"), ("c", "d")])
    return builder.build()


class TestConstructionValidation:
    def test_coordinate_shape_validated(self):
        with pytest.raises(GraphConstructionError):
            SpatialGraph([np.array([], dtype=np.int32)], np.zeros((1, 3)))

    def test_adjacency_length_mismatch(self):
        with pytest.raises(GraphConstructionError):
            SpatialGraph([np.array([], dtype=np.int32)], np.zeros((2, 2)))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(GraphConstructionError):
            SpatialGraph(
                [np.array([], dtype=np.int32)] * 2,
                np.zeros((2, 2)),
                labels=["x", "x"],
            )

    def test_label_count_mismatch(self):
        with pytest.raises(GraphConstructionError):
            SpatialGraph(
                [np.array([], dtype=np.int32)] * 2,
                np.zeros((2, 2)),
                labels=["x"],
            )


class TestBasicAccessors:
    def test_sizes(self):
        graph = simple_graph()
        assert graph.num_vertices == 4
        assert graph.num_edges == 4
        assert len(graph) == 4

    def test_contains_label(self):
        graph = simple_graph()
        assert "a" in graph
        assert "zzz" not in graph

    def test_label_round_trip(self):
        graph = simple_graph()
        for label in graph.labels():
            assert graph.label_of(graph.index_of(label)) == label

    def test_unknown_label_raises(self):
        graph = simple_graph()
        with pytest.raises(VertexNotFoundError):
            graph.index_of("missing")

    def test_unknown_index_raises(self):
        graph = simple_graph()
        with pytest.raises(VertexNotFoundError):
            graph.label_of(99)

    def test_degrees(self):
        graph = simple_graph()
        c = graph.index_of("c")
        d = graph.index_of("d")
        assert graph.degree(c) == 3
        assert graph.degree(d) == 1
        assert graph.degrees.sum() == 2 * graph.num_edges

    def test_neighbors_sorted(self):
        graph = simple_graph()
        for v in graph.vertices():
            neighbors = graph.neighbors(v)
            assert list(neighbors) == sorted(neighbors)

    def test_has_edge(self):
        graph = simple_graph()
        a, b, d = (graph.index_of(x) for x in "abd")
        assert graph.has_edge(a, b)
        assert graph.has_edge(b, a)
        assert not graph.has_edge(a, d)

    def test_edges_listed_once(self):
        graph = simple_graph()
        edges = list(graph.edges())
        assert len(edges) == 4
        assert all(u < v for u, v in edges)


def _path_graph(labels=None) -> SpatialGraph:
    coords = np.arange(8, dtype=float).reshape(4, 2)
    adjacency = [np.array([1]), np.array([0, 2]), np.array([1, 3]), np.array([2])]
    return SpatialGraph(adjacency, coords, labels)


class TestLabelsOf:
    @pytest.mark.parametrize(
        "labels",
        [None, [0, 1, 2, 3], [13, 12, 11, 10], ["d", "c", "b", "a"], [("t", 1), 7, "x", 2.5]],
    )
    def test_matches_label_of_in_the_order_given(self, labels):
        graph = _path_graph(labels)
        for indices in ([2, 0, 3], np.array([3, 1], dtype=np.int32), np.arange(4), []):
            assert graph.labels_of(indices) == [graph.label_of(int(v)) for v in indices]

    def test_labels_come_back_as_plain_python_values(self):
        numpy_labels = (
            [np.int64(v) for v in (5, 6, 7, 8)],
            [np.int32(5), "b", np.float64(0.5), np.bool_(True)],
        )
        for labels in (None, [13, 12, 11, 10], *numpy_labels):
            graph = _path_graph(labels)
            out = graph.labels_of(np.array([3, 0], dtype=np.int64))
            singles = [graph.label_of(v) for v in range(4)]
            for label in out + singles:
                assert not isinstance(label, np.generic), labels
            json.dumps(out + singles)

    def test_integral_bools_are_not_identity(self):
        graph = SpatialGraph(
            [np.array([1]), np.array([0])], np.zeros((2, 2)), labels=[False, True]
        )
        assert graph.labels_of([1, 0]) == [True, False]

    def test_store_attached_labels(self):
        graph = _path_graph([13, 12, 11, 10])
        attached = SpatialGraph.attach_arrays(graph.export_arrays(), labels=graph.labels())
        assert attached.labels_of(np.array([0, 3])) == [13, 10]
        identity = SpatialGraph.attach_arrays(graph.export_arrays())
        assert identity.labels_of(np.array([0, 3])) == [0, 3]

    @pytest.mark.parametrize("bad", [[4], [-1], [0, 9]])
    def test_out_of_range_raises(self, bad):
        with pytest.raises(VertexNotFoundError):
            _path_graph(["a", "b", "c", "d"]).labels_of(bad)

    def test_non_integer_indices_refused(self):
        with pytest.raises(TypeError):
            _path_graph().labels_of([0.5])


class TestGeometryAccessors:
    def test_position_and_distance(self):
        graph = simple_graph()
        a = graph.index_of("a")
        d = graph.index_of("d")
        assert graph.position(a) == (0.0, 0.0)
        assert graph.distance(a, d) == pytest.approx(math.sqrt(2.0))

    def test_distance_to_point(self):
        graph = simple_graph()
        a = graph.index_of("a")
        assert graph.distance_to_point(a, 3.0, 4.0) == pytest.approx(5.0)

    def test_vertices_within(self):
        graph = simple_graph()
        a = graph.index_of("a")
        near = graph.vertices_within(0.0, 0.0, 1.0)
        assert a in near
        assert graph.index_of("d") not in near

    def test_grid_is_cached(self):
        graph = simple_graph()
        assert graph.grid is graph.grid


class TestLocationUpdates:
    def test_with_updated_locations(self):
        graph = simple_graph()
        a = graph.index_of("a")
        updated = graph.with_updated_locations({a: (5.0, 5.0)})
        assert updated.position(a) == (5.0, 5.0)
        # The original graph is unchanged.
        assert graph.position(a) == (0.0, 0.0)
        # Structure is shared/identical.
        assert updated.num_edges == graph.num_edges

    def test_update_unknown_vertex(self):
        graph = simple_graph()
        with pytest.raises(VertexNotFoundError):
            graph.with_updated_locations({42: (0.0, 0.0)})

    @pytest.mark.parametrize("with_grid", [False, True])
    def test_non_finite_location_refused_before_any_write(self, with_grid):
        graph = simple_graph()
        if with_grid:
            assert graph.grid is not None  # built now; moves go through it
        a = graph.index_of("a")
        before = graph.coordinates.copy()
        for x, y in ((math.nan, 0.5), (math.inf, 0.5), (0.5, -math.inf)):
            with pytest.raises(InvalidParameterError):
                graph.update_location(a, x, y)
        assert np.array_equal(graph.coordinates, before)


class TestSubgraphs:
    def test_induced_subgraph_structure(self):
        graph = simple_graph()
        keep = [graph.index_of(x) for x in "abc"]
        sub = graph.induced_subgraph(keep)
        assert sub.num_vertices == 3
        assert sub.num_edges == 3
        assert set(sub.labels()) == {"a", "b", "c"}

    def test_induced_subgraph_unknown_vertex(self):
        graph = simple_graph()
        with pytest.raises(VertexNotFoundError):
            graph.induced_subgraph([0, 99])

    def test_empty_induced_subgraph(self):
        graph = simple_graph()
        sub = graph.induced_subgraph([])
        assert sub.num_vertices == 0
        assert sub.num_edges == 0

    def test_subgraph_degrees(self):
        graph = simple_graph()
        keep = [graph.index_of(x) for x in "abc"]
        degrees = graph.subgraph_degrees(keep)
        assert all(value == 2 for value in degrees.values())

    def test_random_subgraph_fraction(self):
        graph = simple_graph()
        sub = graph.random_subgraph_fraction(0.5, seed=1)
        assert 1 <= sub.num_vertices <= 4

    def test_random_subgraph_full_fraction_returns_same(self):
        graph = simple_graph()
        assert graph.random_subgraph_fraction(1.0) is graph

    def test_random_subgraph_invalid_fraction(self):
        graph = simple_graph()
        with pytest.raises(ValueError):
            graph.random_subgraph_fraction(0.0)
        with pytest.raises(ValueError):
            graph.random_subgraph_fraction(1.5)
