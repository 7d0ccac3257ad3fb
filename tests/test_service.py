"""Tests for the serving layer: planned execution, answer cache, facade.

Covers :func:`repro.service.sharding.run_plan` (per-query errors, ``k = 1``
batches, bit-identity for every algorithm), the version-guarded
invalidation of :class:`repro.service.AnswerCache`, the
:class:`repro.service.SACService` facade, and the negative paths the batch
surfaces historically lacked tests for: empty batches, all-failed batches,
per-query errors, and cache eviction after incremental-engine mutations.
"""

import sys
import threading
import time
from collections import OrderedDict

import numpy as np
import pytest

from repro.core.searcher import ALGORITHMS
from repro.datasets.geosocial import brightkite_like
from repro.engine import IncrementalEngine, QueryEngine
from repro.exceptions import InvalidParameterError, NoCommunityError
from repro.experiments.queries import select_query_vertices
from repro.engine.plan import plan_batch
from repro.core.result import SACResult
from repro.geometry.circle import Circle
from repro.service import AnswerCache, SACService
from repro.service.cache import _CACHE_BYTES, _ENTRY_OVERHEAD
from repro.service.sharding import run_plan
from repro.testing.strategies import random_spatial_graph


@pytest.fixture(scope="module")
def graph():
    return brightkite_like(700, average_degree=8.0, seed=29)


@pytest.fixture(scope="module")
def queries(graph):
    return select_query_vertices(graph, 10, min_core=4, seed=5)


class _YieldingDict(OrderedDict):
    """An ordered dict that lets other threads run inside every ``get``.

    The interpreter switches threads only at a few points of the bytecode,
    and none falls between the cache's read of an entry and its update, so
    without this a missing lock would go unseen.
    """

    def get(self, key, default=None):
        value = super().get(key, default)
        time.sleep(0)
        return value


def _assert_identical(first, second):
    assert first.members == second.members
    assert first.circle.radius == second.circle.radius
    assert first.circle.center.x == second.circle.center.x
    assert first.circle.center.y == second.circle.center.y
    assert first.stats == second.stats
    assert first.query == second.query
    assert first.k == second.k


class TestRunPlan:
    def test_deterministic_error_propagates(self, graph, queries):
        service = SACService(graph, use_cache=False)
        with pytest.raises(InvalidParameterError):
            service.submit_batch(queries, 4, algorithm="appfast", epsilon_f=-1.0)

    def test_k1_batch_builds_no_bundles(self, graph, queries):
        engine = QueryEngine(graph)
        batch = run_plan(engine, plan_batch(engine, queries, 1))
        assert engine.stats.components_materialised == 0
        reference = QueryEngine(graph)
        for q in queries:
            _assert_identical(reference.search(q, 1), batch.results[q])

    def test_out_of_range_queries_reported_as_errors(self, graph, queries):
        engine = QueryEngine(graph)
        bad = [-1, graph.num_vertices + 7]
        plan = plan_batch(
            engine, list(queries) + bad, 4, algorithm="appfast", params={"epsilon_f": 0.5}
        )
        batch = run_plan(engine, plan)
        assert set(batch.errors) == set(bad)
        for message in batch.errors.values():
            assert "not in the graph" in message
        assert batch.answered == len(queries)
        assert not batch.failed


class TestAnswerCache:
    def test_hit_returns_equal_result_with_isolated_stats(self, graph, queries):
        engine = QueryEngine(graph)
        cache = AnswerCache()
        result = engine.search(queries[0], 4, algorithm="appfast", epsilon_f=0.5)
        cache.store(engine, queries[0], 4, "appfast", {"epsilon_f": 0.5}, result)
        hit = cache.lookup(engine, queries[0], 4, "appfast", {"epsilon_f": 0.5})
        _assert_identical(result, hit)
        assert cache.stats.hits == 1
        # Mutating a served result's stats must corrupt neither the cache
        # nor other callers' hits (stats dicts are copied at both ends).
        result.stats["note"] = 1.0
        hit.stats["other"] = 2.0
        clean = cache.lookup(engine, queries[0], 4, "appfast", {"epsilon_f": 0.5})
        assert "note" not in clean.stats and "other" not in clean.stats

    def test_key_includes_algorithm_params_and_engine(self, graph, queries):
        engine, other = QueryEngine(graph), QueryEngine(graph)
        cache = AnswerCache()
        result = engine.search(queries[0], 4, algorithm="appfast", epsilon_f=0.5)
        cache.store(engine, queries[0], 4, "appfast", {"epsilon_f": 0.5}, result)
        assert cache.lookup(engine, queries[0], 4, "appfast", {"epsilon_f": 0.25}) is None
        assert cache.lookup(engine, queries[0], 4, "appinc", {}) is None
        assert cache.lookup(other, queries[0], 4, "appfast", {"epsilon_f": 0.5}) is None

    def test_k1_answers_are_uncacheable(self, graph):
        engine = QueryEngine(graph)
        cache = AnswerCache()
        result = engine.search(0, 1)
        cache.store(engine, 0, 1, "appfast", {}, result)
        assert cache.lookup(engine, 0, 1, "appfast", {}) is None
        assert len(cache) == 0
        assert cache.stats.uncacheable == 2

    def test_lru_eviction(self, graph, queries):
        engine = QueryEngine(graph)
        cache = AnswerCache(capacity=2)
        for q in queries[:3]:
            cache.store(
                engine, q, 4, "appfast", {}, engine.search(q, 4, algorithm="appfast")
            )
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.lookup(engine, queries[0], 4, "appfast", {}) is None
        assert cache.lookup(engine, queries[2], 4, "appfast", {}) is not None

    def test_hit_shares_the_stored_member_array(self, graph, queries):
        engine = QueryEngine(graph)
        cache = AnswerCache()
        result = engine.search(queries[0], 4, algorithm="appfast")
        cache.store(engine, queries[0], 4, "appfast", {}, result)
        hit = cache.lookup(engine, queries[0], 4, "appfast", {})
        assert hit.members is result.members
        assert not hit.members.array.flags.writeable
        assert cache.stats.nbytes == (
            result.members.array.nbytes + result.footprint.nbytes + _ENTRY_OVERHEAD
        )

    def test_byte_cap_bounds_answers_far_larger_than_gowallas(self, graph):
        # Gowalla's AppFast answers hold about 600 members; these hold
        # 50,000.  One member array is shared by every entry, so the test
        # stays small while the cache is charged the full size of each.
        engine = QueryEngine(graph)
        cache = AnswerCache()
        big = SACResult(
            "appfast", 0, 4, np.arange(50_000), Circle.from_xy(0.0, 0.0, 1.0), {}
        )
        charge = big.members.array.nbytes + _ENTRY_OVERHEAD
        stored = 3 * _CACHE_BYTES // charge
        stamp = {"representative": 0, "version": 0}
        for start in range(0, stored, 32):
            group = {q: big for q in range(start, min(start + 32, stored))}
            cache.store_group(engine, group, 4, "appfast", {}, **stamp)
            assert cache.stats.nbytes <= _CACHE_BYTES
        assert cache.stats.nbytes == len(cache) * charge
        assert len(cache) == _CACHE_BYTES // charge < cache.capacity
        assert cache.stats.evictions == stored - len(cache)
        recent = list(range(stored - 32, stored))
        hits, misses = cache.lookup_group(engine, recent, 4, "appfast", {}, **stamp)
        assert not misses and set(hits) == set(recent)
        assert cache.lookup_group(engine, [0], 4, "appfast", {}, **stamp)[1] == [0]

    def test_two_threads_keep_entries_and_counters_consistent(self, graph):
        # The daemon's engine thread fills plan groups while its event loop
        # looks up hits.  Here one thread fills far past the capacity, so
        # entries are evicted under the lookups of two others (more threads
        # than this host's two cores).
        engine = QueryEngine(graph)
        cache = AnswerCache(capacity=64)
        cache._entries = _YieldingDict()
        stamp = {"representative": 0, "version": 0}
        answers = {
            q: SACResult(
                "appfast", q, 4, np.arange(q % 50 + 1), Circle.from_xy(0.0, 0.0, 1.0), {}
            )
            for q in range(512)
        }
        rounds, width, lookers = 1500, 8, 2
        start, done = threading.Barrier(1 + lookers), threading.Event()
        errors, fresh_hits = [], []

        def fill():
            start.wait()
            while not done.is_set():
                for first in range(0, len(answers), 16):
                    group = {q: answers[q] for q in range(first, first + 16)}
                    cache.store_group(engine, group, 4, "appfast", {}, **stamp)

        def look(seed):
            rng = np.random.default_rng(seed)
            start.wait()
            for _ in range(rounds):
                queries = [int(q) for q in rng.integers(0, len(answers), width)]
                cache.lookup_group(engine, queries, 4, "appfast", {}, **stamp)
                hit = cache.lookup_fresh(engine, queries[0], 4, "appfast", {}, **stamp)
                fresh_hits.append(hit is not None)

        def guarded(work, *args):
            try:
                work(*args)
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        threads = [threading.Thread(target=guarded, args=(look, seed)) for seed in range(lookers)]
        filler = threading.Thread(target=guarded, args=(fill,))
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in (filler, *threads):
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            done.set()
            filler.join(timeout=120)
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in (filler, *threads))
        assert errors == []
        stats = cache.stats
        assert stats.evictions > 0
        assert len(cache) <= cache.capacity
        held = [key[1] for key in cache._entries]
        assert stats.nbytes == sum(
            answers[q].members.array.nbytes + _ENTRY_OVERHEAD for q in held
        )
        assert stats.hits + stats.misses == lookers * rounds * width + sum(fresh_hits)

    def test_invalidation_releases_its_bytes(self):
        rng = np.random.default_rng(41)
        graph, _ = random_spatial_graph(rng, 60, 150)
        engine = IncrementalEngine(graph)
        cache = AnswerCache()
        labels, _count = engine.component_labels(2)
        query = next(q for q in range(60) if labels[q] >= 0)
        cache.store(engine, query, 2, "appfast", {}, engine.search(query, 2))
        cache.store(engine, query, 2, "appfast", {}, engine.search(query, 2))
        assert len(cache) == 1 and cache.stats.nbytes > 0
        engine.apply_checkin(query, 0.99, 0.99)
        assert cache.lookup(engine, query, 2, "appfast", {}) is None
        assert cache.stats.nbytes == 0

    def test_invalid_capacity(self):
        with pytest.raises(InvalidParameterError):
            AnswerCache(capacity=0)

    def test_checkin_evicts_only_touched_component(self):
        rng = np.random.default_rng(41)
        graph, _ = random_spatial_graph(rng, 60, 150)
        engine = IncrementalEngine(graph)
        cache = AnswerCache()
        labels, _count = engine.component_labels(2)
        moved = None
        untouched = None
        for q in range(60):
            if labels[q] < 0:
                continue
            try:
                result = engine.search(q, 2, algorithm="appfast", epsilon_f=0.5)
            except NoCommunityError:  # pragma: no cover - labels said yes
                continue
            cache.store(engine, q, 2, "appfast", {"epsilon_f": 0.5}, result)
            if moved is None:
                moved = q
            elif untouched is None and labels[q] != labels[moved]:
                untouched = q
        assert moved is not None
        engine.apply_checkin(moved, 0.99, 0.99)
        assert cache.lookup(engine, moved, 2, "appfast", {"epsilon_f": 0.5}) is None
        assert cache.stats.invalidations == 1
        if untouched is not None:
            assert (
                cache.lookup(engine, untouched, 2, "appfast", {"epsilon_f": 0.5})
                is not None
            )

    def test_stale_entry_recomputes_to_fresh_answer(self):
        rng = np.random.default_rng(43)
        graph, _ = random_spatial_graph(rng, 50, 140)
        service = SACService(engine=IncrementalEngine(graph))
        labels, _count = service.engine.component_labels(3)
        query = next(int(q) for q in range(50) if labels[q] >= 0)
        service.search(query, 3, algorithm="appfast", epsilon_f=0.5)
        service.apply_checkin(query, 0.01, 0.02)
        served = service.search(query, 3, algorithm="appfast", epsilon_f=0.5)
        fresh = QueryEngine(service.graph.mutable_copy()).search(
            query, 3, algorithm="appfast", epsilon_f=0.5
        )
        _assert_identical(served, fresh)


class TestSACService:
    def test_constructor_requires_exactly_one_binding(self, graph):
        with pytest.raises(InvalidParameterError):
            SACService()
        with pytest.raises(InvalidParameterError):
            SACService(graph, engine=QueryEngine(graph))

    def test_repeat_batch_served_from_cache(self, graph, queries):
        service = SACService(graph)
        first = service.submit_batch(queries, 4, algorithm="appfast", epsilon_f=0.5)
        second = service.submit_batch(queries, 4, algorithm="appfast", epsilon_f=0.5)
        assert first.cache_hits == 0
        assert second.cache_hits == len(queries)
        assert set(second.results) == set(first.results)
        for q in first.results:
            _assert_identical(first.results[q], second.results[q])

    def test_empty_batch(self, graph):
        service = SACService(graph)
        batch = service.submit_batch([], 4)
        assert batch.answered == 0
        assert batch.failed == []
        assert batch.errors == {}
        assert batch.cache_hits == 0
        assert batch.elapsed_seconds >= 0.0

    def test_all_failed_batch(self, graph):
        cores = QueryEngine(graph).core_numbers()
        hopeless = [int(v) for v in np.flatnonzero(cores < 4)[:5]]
        assert hopeless, "fixture graph should have some low-core vertices"
        service = SACService(graph)
        batch = service.submit_batch(hopeless, 4)
        assert batch.answered == 0
        assert batch.failed == hopeless
        assert batch.cache_hits == 0

    def test_warm_and_stats(self, graph, queries):
        service = SACService(graph)
        components = service.warm(4)
        assert components > 0
        service.submit_batch(queries, 4)
        stats = service.stats()
        assert stats.engine.queries_factorised == len(queries)
        assert stats.cache is not None and stats.cache.stores == len(queries)

    def test_no_cache_service_reports_no_hits(self, graph, queries):
        service = SACService(graph, use_cache=False)
        first = service.submit_batch(queries, 4)
        second = service.submit_batch(queries, 4)
        assert first.cache_hits == 0 and second.cache_hits == 0
        assert service.stats().cache is None

    def test_mutation_on_static_engine_rejected(self, graph):
        service = SACService(graph)
        with pytest.raises(InvalidParameterError):
            service.apply_checkin(0, 0.0, 0.0)
        with pytest.raises(InvalidParameterError):
            service.apply_edge(0, 1)

    def test_invalid_algorithm_rejected_even_for_empty_batch(self, graph):
        service = SACService(graph)
        with pytest.raises(InvalidParameterError):
            service.submit_batch([], 4, algorithm="bogus")

    def test_invalid_k_raises_even_for_empty_batch(self, graph, queries):
        service = SACService(graph)
        for batch in (queries[:2], []):
            with pytest.raises(InvalidParameterError, match="k must be a positive integer"):
                service.submit_batch(batch, 0)


class TestBatchProcessorIntegration:
    def test_cache_flag_is_wired(self, graph, queries):
        uncached = SACService(graph, use_cache=False)
        cached = SACService(graph, use_cache=True)
        reference = uncached.submit_batch(queries, 4, epsilon_f=0.5)
        first = cached.submit_batch(queries, 4, epsilon_f=0.5)
        second = cached.submit_batch(queries, 4, epsilon_f=0.5)
        assert second.cache_hits == len(queries)
        for q in reference.results:
            _assert_identical(reference.results[q], first.results[q])
            _assert_identical(reference.results[q], second.results[q])

    def test_out_of_range_query_lands_in_errors(self, graph, queries):
        service = SACService(graph, use_cache=False)
        batch = service.submit_batch(list(queries[:2]) + [graph.num_vertices + 1], 4)
        assert batch.answered == 2
        assert list(batch.errors) == [graph.num_vertices + 1]
        assert not batch.failed


class TestEngineInvalidationCounters:
    """Negative-path coverage for the engine's invalidation bookkeeping."""

    def test_edge_delete_invalidates_touched_bundles(self):
        rng = np.random.default_rng(47)
        graph, edges = random_spatial_graph(rng, 60, 160)
        engine = IncrementalEngine(graph)
        labels, _count = engine.component_labels(2)
        query = next(int(q) for q in range(60) if labels[q] >= 0)
        engine.search(query, 2, algorithm="appfast", epsilon_f=0.5)
        assert engine.stats.components_materialised >= 1
        # Delete an edge incident to the cached component's query vertex:
        # its bundle must be dropped and the counters must say so.
        target = next(
            (u, v) for (u, v) in sorted(edges) if u == query or v == query
        )
        engine.apply_edge(*target, "delete")
        assert engine.stats.bundles_invalidated >= 1
        assert engine.stats.edge_updates == 1

    def test_version_counter_moves_with_each_touch(self):
        rng = np.random.default_rng(48)
        graph, _ = random_spatial_graph(rng, 40, 110)
        engine = IncrementalEngine(graph)
        labels, _count = engine.component_labels(2)
        query = next(int(q) for q in range(40) if labels[q] >= 0)
        engine.search(query, 2, algorithm="appfast", epsilon_f=0.5)
        _, rep = engine.component_of(query, 2)
        before = engine.component_version(2, rep)
        engine.apply_checkin(query, 0.7, 0.7)
        assert engine.component_version(2, rep) == before + 1


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_every_algorithm_shards_bitwise(algorithm):
    """One small end-to-end planned run per algorithm (exact included)."""
    rng = np.random.default_rng(51)
    graph, _ = random_spatial_graph(rng, 40, 110)
    params = {
        "exact": {},
        "exact+": {"epsilon_a": 0.5},
        "appinc": {},
        "appfast": {"epsilon_f": 0.5},
        "appacc": {"epsilon_a": 0.5},
    }[algorithm]
    engine = QueryEngine(graph)
    labels, _count = engine.component_labels(2)
    queries = [int(q) for q in np.flatnonzero(labels >= 0)[:6]]
    assert queries
    planned = QueryEngine(graph)
    batch = run_plan(
        planned, plan_batch(planned, queries, 2, algorithm=algorithm, params=params)
    )
    for q in queries:
        _assert_identical(
            engine.search(q, 2, algorithm=algorithm, **params), batch.results[q]
        )
