"""Unit tests for batch SAC processing and the pairwise-distance objective."""

import pytest

from repro.core.appfast import app_fast
from repro.datasets.geosocial import brightkite_like
from repro.exceptions import InvalidParameterError
from repro.experiments.queries import select_query_vertices
from repro.extensions.pairwise import pairwise_sac_search
from repro.kcore.connected_core import is_connected
from repro.metrics.spatial import average_pairwise_distance, diameter_distance
from repro.metrics.structural import minimum_degree
from repro.service import SACService


@pytest.fixture(scope="module")
def graph():
    return brightkite_like(800, average_degree=8.0, seed=33)


@pytest.fixture(scope="module")
def queries(graph):
    return select_query_vertices(graph, 8, min_core=4, seed=2)


def _service(graph):
    """A batch service without an answer cache: every batch recomputes."""
    return SACService(graph, use_cache=False)


class TestBatchProcessor:
    def test_invalid_arguments(self, graph, queries):
        with pytest.raises(InvalidParameterError):
            _service(graph).submit_batch(queries, 4, algorithm="bogus")
        with pytest.raises(InvalidParameterError):
            _service(graph).submit_batch(queries, 0)

    def test_batch_matches_single_queries(self, graph, queries):
        batch = _service(graph).submit_batch(
            queries, 4, algorithm="appfast", epsilon_f=0.5
        )
        assert batch.answered + len(batch.failed) == len(queries)
        for query, result in batch.results.items():
            single = app_fast(graph, query, 4, 0.5)
            assert result.radius == pytest.approx(single.radius, rel=1e-9)
            assert result.members == single.members

    def test_all_results_are_feasible(self, graph, queries):
        batch = _service(graph).submit_batch(queries, 4)
        for query, result in batch.results.items():
            assert query in result.members
            assert minimum_degree(graph, result.members) >= 4
            assert is_connected(graph, set(result.members))

    def test_failed_queries_reported(self, graph):
        low_degree_vertex = min(range(graph.num_vertices), key=graph.degree)
        batch = _service(graph).submit_batch([low_degree_vertex], 4)
        if batch.answered == 0:
            assert batch.failed == [low_degree_vertex]

    def test_timing_fields_populated(self, graph, queries):
        batch = _service(graph).submit_batch(queries, 4)
        assert batch.elapsed_seconds > 0.0
        assert 0.0 <= batch.shared_preprocessing_seconds <= batch.elapsed_seconds

    def test_shared_preprocessing_is_reused(self, graph, queries):
        """A second batch on the same service reuses the cached core numbers."""
        service = _service(graph)
        first = service.submit_batch(queries, 4)
        second = service.submit_batch(queries, 4)
        assert second.shared_preprocessing_seconds <= first.shared_preprocessing_seconds + 1e-3
        assert second.answered == first.answered


class TestPairwiseObjective:
    def test_invalid_objective(self, graph, queries):
        with pytest.raises(InvalidParameterError):
            pairwise_sac_search(graph, queries[0], 4, objective="median")

    def test_invalid_rounds(self, graph, queries):
        with pytest.raises(InvalidParameterError):
            pairwise_sac_search(graph, queries[0], 4, max_rounds=-1)

    @pytest.mark.parametrize("objective", ["average", "maximum"])
    def test_result_is_feasible(self, graph, queries, objective):
        for query in queries[:4]:
            result = pairwise_sac_search(graph, query, 4, objective=objective)
            assert query in result.members
            assert minimum_degree(graph, result.members) >= 4
            assert is_connected(graph, set(result.members))

    def test_objective_never_worse_than_seed(self, graph, queries):
        for query in queries[:4]:
            result = pairwise_sac_search(graph, query, 4, objective="average")
            assert result.stats["objective_value"] <= result.stats["seed_objective_value"] + 1e-12
            measured = average_pairwise_distance(graph, result.members)
            assert measured == pytest.approx(result.stats["objective_value"], abs=1e-12)

    def test_maximum_objective_uses_diameter(self, graph, queries):
        result = pairwise_sac_search(graph, queries[0], 4, objective="maximum")
        measured = diameter_distance(graph, result.members)
        assert measured == pytest.approx(result.stats["objective_value"], abs=1e-12)

    def test_zero_rounds_returns_seed(self, graph, queries):
        seed = app_fast(graph, queries[0], 4, 0.0)
        result = pairwise_sac_search(graph, queries[0], 4, max_rounds=0)
        assert result.members == seed.members

    def test_algorithm_name_records_objective(self, graph, queries):
        result = pairwise_sac_search(graph, queries[0], 4, objective="maximum")
        assert result.algorithm == "pairwise-sac(maximum)"
