"""Plan-layer tests: batch-plan shape and factorised-execution parity.

Two halves, mirroring the two promises of :mod:`repro.engine.plan`:

* **Plan shape** — deterministic unit tests over what :func:`plan_batch`
  produces: one group per ``(component, k)``, duplicates resolved at plan
  time, cache hits pruned from the groups before execution, empty and
  fully-cached batches short-circuiting cleanly, errors and no-community
  vertices classified per occurrence.
* **Execution parity** — hypothesis properties asserting the factorised
  pipeline returns answers *bit-identical* (member sets, circle floats,
  stats) to the reference oracle (:mod:`repro.testing.oracle`), across the
  engine, :func:`repro.service.sharding.run_plan`, and the answer-cached
  service, including while incremental check-ins and edge flips interleave
  with planned batches.
"""

from collections import Counter

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import IncrementalEngine, QueryEngine
from repro.engine.plan import execute_group, plan_batch
from repro.exceptions import VertexNotFoundError
from repro.graph.builder import GraphBuilder
from repro.service import SACService
from repro.service.sharding import run_plan
from repro.testing.oracle import assert_results_identical as _assert_identical
from repro.testing.oracle import oracle_batch
from repro.testing.strategies import random_spatial_graph


def _two_component_graph():
    """Two disjoint 5-cliques (two k=2 components) plus a degree-1 outcast."""
    rng = np.random.default_rng(3)
    builder = GraphBuilder()
    for vertex in range(11):
        builder.add_vertex(vertex, float(rng.uniform()), float(rng.uniform()))
    left = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    right = [(u, v) for u in range(5, 10) for v in range(u + 1, 10)]
    builder.add_edges(left + right + [(0, 10)])  # vertex 10 is in no 2-core
    graph = builder.build()
    labels, count = QueryEngine(graph).component_labels(2)
    assert count == 2 and labels[10] < 0
    return graph, labels


def _queries_per_component(labels, count, per_component=2):
    queries = []
    for component in range(count):
        members = np.flatnonzero(labels == component)[:per_component]
        queries.extend(int(q) for q in members)
    return queries


class TestPlanShape:
    def test_groups_queries_by_component(self):
        graph, labels = _two_component_graph()
        engine = QueryEngine(graph)
        count = int(labels.max()) + 1
        queries = _queries_per_component(labels, count)

        plan = plan_batch(engine, queries, 2)

        assert len(plan.groups) == count
        assert plan.order == queries
        assert plan.planned == len(queries)
        for group in plan.groups:
            assert group.queries  # empty groups are dropped at plan time
            for query in group.queries:
                assert labels[query] == group.component
            assert group.representative == min(
                int(v) for v in np.flatnonzero(labels == group.component)
            )
            assert group.version == engine.component_version(
                2, group.representative
            )

    def test_duplicates_resolved_at_plan_time(self):
        graph, labels = _two_component_graph()
        engine = QueryEngine(graph)
        distinct = _queries_per_component(labels, int(labels.max()) + 1)
        queries = distinct * 3  # every query occurs three times

        plan = plan_batch(engine, queries, 2)

        assert plan.deduped == 2 * len(distinct)
        assert plan.planned == len(distinct)
        assert plan.order == queries  # per-occurrence order survives dedupe
        assert engine.stats.queries_deduped == 2 * len(distinct)
        assert sorted(q for group in plan.groups for q in group.queries) == sorted(
            distinct
        )

    def test_results_fan_out_to_every_occurrence(self):
        graph, labels = _two_component_graph()
        engine = QueryEngine(graph)
        distinct = _queries_per_component(labels, int(labels.max()) + 1)
        queries = distinct * 3

        fanned = SACService(engine=engine, use_cache=False).submit_batch(queries, 2)
        serial = oracle_batch(graph, distinct, 2)

        assert set(fanned.results) == set(distinct)
        for query in distinct:
            _assert_identical(serial[query], fanned.results[query], query)

    def test_cache_hits_pruned_from_groups(self):
        graph, labels = _two_component_graph()
        service = SACService(graph)
        distinct = _queries_per_component(labels, int(labels.max()) + 1)
        left = [q for q in distinct if labels[q] == labels[distinct[0]]]

        cold = service.submit_batch(left, 2)
        mixed = service.submit_batch(distinct + left, 2)

        # The warmed component's group is pruned whole; only the other one
        # executes, and every occurrence of a hit counts as a cache hit.
        assert mixed.cache_hits == 2 * len(left)
        assert mixed.deduped == 0
        assert mixed.plan_groups == 1
        assert service.engine.stats.plan_groups == 2  # one per batch
        assert service.engine.stats.queries_deduped == 0
        assert sorted(mixed.results) == sorted(distinct)
        for query in left:
            _assert_identical(cold.results[query], mixed.results[query], query)
        assert service.engine.stats.queries_factorised == len(distinct)

    def test_all_cached_batch_short_circuits(self):
        graph, labels = _two_component_graph()
        service = SACService(graph)
        distinct = _queries_per_component(labels, int(labels.max()) + 1)

        cold = service.submit_batch(distinct, 2)
        warm = service.submit_batch(distinct * 2, 2)

        assert warm.cache_hits == 2 * len(cold.results)
        assert warm.plan_groups == 0
        for query in cold.results:
            _assert_identical(cold.results[query], warm.results[query], query)
        # The warm round executed nothing: the execution counter is unchanged.
        assert service.engine.stats.queries_factorised == len(cold.results)

    def test_empty_batch(self):
        graph, _labels = _two_component_graph()
        engine = QueryEngine(graph)

        plan = plan_batch(engine, [], 2)

        assert plan.groups == []
        assert plan.order == []
        assert plan.planned == 0
        assert SACService(engine=engine, use_cache=False).submit_batch([], 2).results == {}

    def test_errors_and_failures_classified_per_occurrence(self):
        graph, labels = _two_component_graph()
        engine = QueryEngine(graph)
        inside = int(np.flatnonzero(labels >= 0)[0])
        outside_candidates = np.flatnonzero(labels < 0)
        missing = graph.num_vertices + 5
        queries = [inside, missing, inside, missing]
        failed = []
        if outside_candidates.size:
            outcast = int(outside_candidates[0])
            queries += [outcast, outcast]
            failed = [outcast, outcast]

        plan = plan_batch(engine, queries, 2)

        assert isinstance(plan.errors[missing], VertexNotFoundError)
        assert plan.failed == failed  # one entry per occurrence
        assert plan.order == queries  # order keeps every occurrence
        assert plan.planned == 1  # `inside` once; duplicates don't execute
        assert plan.deduped == 1

    def test_run_plan_honours_group_overrides(self):
        """A rung-overridden group runs at its own algorithm in ``run_plan``."""
        graph, labels = _two_component_graph()
        queries = _queries_per_component(labels, int(labels.max()) + 1)
        engine = QueryEngine(graph)
        plan = plan_batch(engine, queries, 2, params={"epsilon_f": 0.5})
        assert len(plan.groups) == 2
        plan.groups[1].algorithm = "appacc"
        plan.groups[1].params = {"epsilon_a": 0.5}
        expected = {}
        for group in plan.groups:
            expected.update(execute_group(engine, plan, group))

        batch = run_plan(QueryEngine(graph), plan)

        assert set(batch.results) == set(expected)
        for query, result in expected.items():
            _assert_identical(result, batch.results[query], query)
        assert {batch.results[q].algorithm for q in plan.groups[1].queries} == {
            "appacc"
        }


class TestFactorisedParity:
    """Planned execution == per-query serial execution, bitwise."""

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_planned_matches_serial_with_duplicates(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(30, 80))
        graph, _ = random_spatial_graph(rng, n, int(rng.integers(2 * n, 4 * n)))
        k = int(rng.integers(1, 4))
        base = [int(q) for q in rng.choice(n, size=min(10, n), replace=False)]
        duplicates = [base[int(i)] for i in rng.integers(0, len(base), size=6)]
        queries = base + duplicates

        engine = QueryEngine(graph)
        planned = SACService(engine=engine, use_cache=False).submit_batch(
            queries, k, algorithm="appfast", epsilon_f=0.5
        )
        serial = oracle_batch(graph, queries, k, algorithm="appfast", epsilon_f=0.5)

        assert set(planned.results) | set(planned.failed) == set(serial)
        for query in serial:
            _assert_identical(serial[query], planned.results.get(query), (seed, k, query))
        # Only duplicates of answerable queries dedupe; duplicates of
        # no-community vertices stay per-occurrence entries in `failed`.
        counts = Counter(queries)
        assert engine.stats.queries_deduped == sum(
            count - 1 for query, count in counts.items() if serial[query] is not None
        )

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_planned_sharded_cached_agree_with_serial(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(40, 90))
        graph, _ = random_spatial_graph(rng, n, int(rng.integers(2 * n, 4 * n)))
        k = int(rng.integers(2, 4))
        queries = [int(q) for q in rng.choice(n, size=min(12, n), replace=False)]
        queries = queries + queries[: len(queries) // 2]

        serial = oracle_batch(graph, queries, k, algorithm="appfast", epsilon_f=0.5)
        engine = QueryEngine(graph)
        sharded_batch = run_plan(
            engine,
            plan_batch(engine, queries, k, algorithm="appfast", params={"epsilon_f": 0.5}),
        )
        cached = SACService(graph)
        cached_cold = cached.submit_batch(queries, k, algorithm="appfast", epsilon_f=0.5)
        cached_warm = cached.submit_batch(queries, k, algorithm="appfast", epsilon_f=0.5)

        for query in serial:
            context = (seed, k, query)
            _assert_identical(serial[query], sharded_batch.results.get(query), context)
            _assert_identical(serial[query], cached_cold.results.get(query), context)
            _assert_identical(serial[query], cached_warm.results.get(query), context)
        # Warm round: every occurrence of an answered query is a cache hit.
        assert cached_warm.cache_hits == sum(
            1 for q in queries if serial[q] is not None
        )

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_planned_batches_track_incremental_mutations(self, seed):
        """Interleaved check-ins/edge flips: planned batches == fresh serial."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(25, 60))
        graph, edges = random_spatial_graph(rng, n, int(rng.integers(2 * n, 4 * n)))
        service = SACService(engine=IncrementalEngine(graph))

        def compare():
            fresh = service.graph.mutable_copy()
            queries = [int(q) for q in rng.choice(n, size=6, replace=False)]
            queries = queries + queries[:3]
            for k in (2, 3):
                batch = service.submit_batch(
                    queries, k, algorithm="appfast", epsilon_f=0.5
                )
                serial = oracle_batch(
                    fresh, queries, k, algorithm="appfast", epsilon_f=0.5
                )
                for query in serial:
                    _assert_identical(
                        serial[query], batch.results.get(query), (seed, k, query)
                    )

        compare()  # populate the cache so mutations have answers to evict
        for _ in range(5):
            roll = rng.random()
            if roll < 0.5:
                vertex = int(rng.integers(0, n))
                x, y = (float(c) for c in rng.uniform(-0.1, 1.1, size=2))
                service.apply_checkin(vertex, x, y)
            elif roll < 0.75 and edges:
                edge = sorted(edges)[int(rng.integers(0, len(edges)))]
                edges.remove(edge)
                service.apply_edge(*edge, "delete")
            else:
                while True:
                    u, v = (int(a) for a in rng.integers(0, n, size=2))
                    if u != v and (min(u, v), max(u, v)) not in edges:
                        break
                edges.add((min(u, v), max(u, v)))
                service.apply_edge(u, v, "insert")
            compare()
