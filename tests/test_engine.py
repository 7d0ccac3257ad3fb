"""QueryEngine tests: parity with the per-query API, caching, and batch reuse."""

import numpy as np
import pytest

from repro.core.searcher import ALGORITHMS, SACSearcher
from repro.datasets.geosocial import brightkite_like
from repro.engine import QueryEngine
from repro.exceptions import InvalidParameterError, NoCommunityError
from repro.experiments.queries import select_query_vertices
from repro.kcore.decomposition import core_numbers
from repro.service import SACService
from repro.testing.oracle import oracle_search

ALGORITHM_PARAMS = {
    "exact": {},
    "exact+": {"epsilon_a": 1e-3},
    "appinc": {},
    "appfast": {"epsilon_f": 0.5},
    "appacc": {"epsilon_a": 0.5},
}


@pytest.fixture(scope="module")
def medium_graph():
    return brightkite_like(600, average_degree=8.0, seed=11)


@pytest.fixture(scope="module")
def medium_queries(medium_graph):
    return select_query_vertices(medium_graph, 4, min_core=4, seed=3)


def _assert_identical(seed_result, engine_result):
    assert engine_result.members == seed_result.members
    assert engine_result.circle.radius == seed_result.circle.radius
    assert engine_result.circle.center.x == seed_result.circle.center.x
    assert engine_result.circle.center.y == seed_result.circle.center.y


class TestEngineParity:
    """Engine results must be bit-identical to the seed per-query API."""

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_parity_on_fixture_graphs(
        self, algorithm, two_triangle_graph, clique_grid_graph
    ):
        cases = [(two_triangle_graph, 0, 2), (clique_grid_graph, 0, 4), (clique_grid_graph, 5, 3)]
        for graph, query, k in cases:
            engine = QueryEngine(graph)
            seed = ALGORITHMS[algorithm](graph, query, k, **ALGORITHM_PARAMS[algorithm])
            served = engine.search(query, k, algorithm=algorithm, **ALGORITHM_PARAMS[algorithm])
            _assert_identical(seed, served)

    @pytest.mark.parametrize("algorithm", ["appinc", "appfast", "appacc", "exact+"])
    def test_parity_on_synthetic_graph(self, algorithm, medium_graph, medium_queries):
        engine = QueryEngine(medium_graph)
        for query in medium_queries:
            seed = ALGORITHMS[algorithm](medium_graph, query, 4, **ALGORITHM_PARAMS[algorithm])
            served = engine.search(query, 4, algorithm=algorithm, **ALGORITHM_PARAMS[algorithm])
            _assert_identical(seed, served)

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_parity_for_k_equals_one(self, algorithm, two_triangle_graph):
        engine = QueryEngine(two_triangle_graph)
        seed = ALGORITHMS[algorithm](two_triangle_graph, 6, 1)
        served = engine.search(6, 1, algorithm=algorithm)
        _assert_identical(seed, served)

    def test_repeated_queries_stay_identical(self, medium_graph, medium_queries):
        engine = QueryEngine(medium_graph)
        first = engine.search(medium_queries[0], 4)
        second = engine.search(medium_queries[0], 4)
        _assert_identical(first, second)


class TestEngineCaching:
    def test_core_numbers_computed_once(self, medium_graph):
        engine = QueryEngine(medium_graph)
        np.testing.assert_array_equal(engine.core_numbers(), core_numbers(medium_graph))
        engine.core_numbers()
        assert engine.stats.core_decompositions == 1

    def test_component_labels(self, disconnected_graph):
        engine = QueryEngine(disconnected_graph)
        labels, count = engine.component_labels(2)
        assert count == 2
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5]
        assert labels[0] != labels[3]

    def test_labels_mark_non_core_vertices(self, two_triangle_graph):
        engine = QueryEngine(two_triangle_graph)
        labels, count = engine.component_labels(2)
        assert count == 1
        assert labels[6] == -1 and labels[0] == 0

    def test_empty_kcore_labellings_are_not_cached(self, medium_graph):
        """Asking about ever larger ``k`` must not grow the labelling cache."""
        engine = QueryEngine(medium_graph)
        top = int(engine.core_numbers().max())
        for k in range(top + 1, top + 301):
            with pytest.raises(NoCommunityError):
                engine.search(0, k)
            labels, count = engine.component_labels(k)
            assert count == 0 and (labels == -1).all()
        assert engine.export_state()["labellings"] == {}
        assert engine.stats.labelings_built == 0
        engine.prepare(top)
        assert list(engine.export_state()["labellings"]) == [top]
        assert engine.stats.labelings_built == 1

    def test_artifacts_shared_within_component(self, medium_graph, medium_queries):
        engine = QueryEngine(medium_graph)
        contexts = [engine.context(q, 4) for q in medium_queries]
        same_component = [
            c for c in contexts if medium_queries[0] in c.candidates
        ]
        assert all(c.artifacts is same_component[0].artifacts for c in same_component)
        assert engine.stats.components_materialised <= len(
            {id(c.artifacts) for c in contexts}
        )

    def test_no_community_raises(self, star_graph):
        engine = QueryEngine(star_graph)
        with pytest.raises(NoCommunityError):
            engine.context(0, 2)
        with pytest.raises(NoCommunityError):
            engine.search(0, 2)

    def test_invalid_inputs_rejected(self, two_triangle_graph):
        engine = QueryEngine(two_triangle_graph)
        with pytest.raises(InvalidParameterError):
            engine.search(0, 2, algorithm="bogus")
        with pytest.raises(InvalidParameterError):
            engine.component_labels(0)

    def test_search_label_and_many(self, two_triangle_graph):
        engine = QueryEngine(two_triangle_graph)
        by_label = engine.search(two_triangle_graph.index_of(0), 2)
        assert 0 in by_label.members
        batch = SACService(engine=engine, use_cache=False).submit_batch([0, 6], 2)
        assert batch.results[0].members == by_label.members
        assert batch.results.get(6) is None and batch.failed == [6]
        with pytest.raises(NoCommunityError):
            engine.search(6, 2)


class TestSearcherIntegration:
    def test_engine_and_legacy_paths_agree(self, medium_graph, medium_queries):
        label = medium_graph.label_of(medium_queries[0])
        shared = SACSearcher(medium_graph, default_algorithm="appfast")
        legacy = oracle_search(medium_graph, medium_queries[0], 4, algorithm="appfast")
        _assert_identical(legacy, shared.search(label, 4))
        assert shared.engine.stats.queries_served == 1

    def test_missing_query_returns_none(self, star_graph):
        searcher = SACSearcher(star_graph)
        assert searcher.search(0, 2) is None
        with pytest.raises(NoCommunityError):
            searcher.search(0, 2, missing_ok=False)


class TestBatchEngineReuse:
    def test_external_engine_is_reused(self, medium_graph, medium_queries):
        engine = QueryEngine(medium_graph)
        service = SACService(engine=engine, use_cache=False)
        batch = service.submit_batch(medium_queries, 4)
        assert batch.answered == len(medium_queries)
        assert engine.stats.core_decompositions == 1
        # A second batch at the same k performs no new shared work.
        materialised = engine.stats.components_materialised
        service.submit_batch(medium_queries, 4)
        assert engine.stats.components_materialised == materialised


class TestAppIncStatsSchema:
    def test_k1_shortcut_emits_full_schema(self, two_triangle_graph):
        shortcut = ALGORITHMS["appinc"](two_triangle_graph, 0, 1)
        general = ALGORITHMS["appinc"](two_triangle_graph, 0, 2)
        for key in ("delta", "gamma", "feasibility_checks", "candidate_set_size"):
            assert key in shortcut.stats, key
            assert key in general.stats, key
