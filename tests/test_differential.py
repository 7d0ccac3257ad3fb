"""Differential test harness: algorithms against algorithms, paths against paths.

Two families of randomized differential properties, both driven by
hypothesis through the shared :mod:`repro.testing.strategies` generators:

* **Algorithm invariants** — on graphs small enough to run ``Exact``, the
  paper's approximation guarantees must hold pointwise: the exact radius is
  a lower bound for every algorithm, ``AppInc``/``AppFast(εF)``/``AppAcc(εA)``
  stay within their ``2`` / ``2 + εF`` / ``1 + εA`` factors, and ``Exact+``
  matches ``Exact`` to its ``1 + εA`` tolerance.
* **Execution-path parity** — planned execution
  (:func:`repro.service.sharding.run_plan`) and the answer-cached service
  must return results *bit-identical* to the reference oracle
  (:mod:`repro.testing.oracle`: same member sets, same circle floats, same
  stats), including after incremental location and edge updates
  interleave with cached queries.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.searcher import ALGORITHMS
from repro.engine import IncrementalEngine, QueryEngine
from repro.exceptions import NoCommunityError
from repro.engine.plan import plan_batch
from repro.service import SACService
from repro.service.sharding import run_plan
from repro.testing.oracle import assert_results_identical as _assert_identical
from repro.testing.oracle import oracle_batch, oracle_search
from repro.testing.strategies import random_spatial_graph

#: Approximation-factor bound of each algorithm, as a function of its params.
#: A hair of float slack covers the MCC's own 1e-7-relative arithmetic.
BOUNDS = {
    "appinc": lambda params: 2.0,
    "appfast": lambda params: 2.0 + params.get("epsilon_f", 0.5),
    "appacc": lambda params: 1.0 + params.get("epsilon_a", 0.5),
    "exact+": lambda params: 1.0 + params.get("epsilon_a", 0.5),
}
SLACK = 1.0 + 1e-6

PARAMS = {
    "exact": {},
    "exact+": {"epsilon_a": 0.5},
    "appinc": {},
    "appfast": {"epsilon_f": 0.5},
    "appacc": {"epsilon_a": 0.5},
}


class TestApproximationInvariants:
    """exact radius <= approx radius <= bound * exact radius, pointwise."""

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_bounds_hold_on_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(14, 30))
        graph, _ = random_spatial_graph(rng, n, int(rng.integers(2 * n, 4 * n)))
        engine = QueryEngine(graph)
        for k in (2, 3):
            labels, _count = engine.component_labels(k)
            eligible = np.flatnonzero(labels >= 0)
            if eligible.size == 0:
                continue
            for query in rng.choice(eligible, size=min(3, eligible.size), replace=False):
                query = int(query)
                exact_result = engine.search(query, k, algorithm="exact")
                for algorithm, bound in BOUNDS.items():
                    approx = engine.search(
                        query, k, algorithm=algorithm, **PARAMS[algorithm]
                    )
                    context = (seed, k, query, algorithm)
                    # Optimality of Exact from below...
                    assert (
                        exact_result.radius <= approx.radius * SLACK
                    ), context
                    # ...and the paper's approximation factor from above.
                    assert (
                        approx.radius
                        <= bound(PARAMS[algorithm]) * exact_result.radius * SLACK
                    ), context
                    # Every answer is a genuine community containing the query.
                    assert query in approx.members, context

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_tight_exact_plus_matches_exact(self, seed):
        """With a tiny epsilon_a, Exact+ must agree with Exact's radius."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(12, 22))
        graph, _ = random_spatial_graph(rng, n, int(rng.integers(2 * n, 3 * n)))
        engine = QueryEngine(graph)
        labels, _count = engine.component_labels(2)
        eligible = np.flatnonzero(labels >= 0)
        if eligible.size == 0:
            return
        query = int(eligible[int(rng.integers(0, eligible.size))])
        exact_result = engine.search(query, 2, algorithm="exact")
        plus = engine.search(query, 2, algorithm="exact+", epsilon_a=1e-6)
        assert plus.radius <= exact_result.radius * (1.0 + 1e-5)
        assert exact_result.radius <= plus.radius * (1.0 + 1e-5)


class TestExecutionPathParity:
    """Oracle == sharded pool == answer-cached service, bitwise."""

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_serial_sharded_cached_agree(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(40, 100))
        graph, _ = random_spatial_graph(rng, n, int(rng.integers(2 * n, 4 * n)))
        k = int(rng.integers(2, 4))
        queries = [int(q) for q in rng.choice(n, size=min(12, n), replace=False)]

        serial = oracle_batch(graph, queries, k, algorithm="appfast", epsilon_f=0.5)

        engine = QueryEngine(graph)
        sharded = run_plan(
            engine,
            plan_batch(engine, queries, k, algorithm="appfast", params={"epsilon_f": 0.5}),
        )

        service = SACService(graph)
        cached_cold = service.submit_batch(queries, k, algorithm="appfast", epsilon_f=0.5)
        cached_warm = service.submit_batch(queries, k, algorithm="appfast", epsilon_f=0.5)
        answered = [q for q in queries if serial[q] is not None]
        assert cached_warm.cache_hits == len(answered)

        for q in queries:
            context = (seed, k, q)
            _assert_identical(serial[q], sharded.results.get(q), context)
            _assert_identical(serial[q], cached_cold.results.get(q), context)
            _assert_identical(serial[q], cached_warm.results.get(q), context)
        assert sorted(sharded.failed) == sorted(
            q for q in queries if serial[q] is None
        )

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_cached_service_tracks_incremental_mutations(self, seed):
        """Interleaved check-ins/edge flips: cache answers == the oracle."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(30, 70))
        graph, edges = random_spatial_graph(rng, n, int(rng.integers(2 * n, 4 * n)))
        service = SACService(engine=IncrementalEngine(graph))

        def compare():
            fresh = service.graph.mutable_copy()
            for k in (2, 3):
                for query in rng.choice(n, size=3, replace=False):
                    query = int(query)
                    try:
                        served = service.search(
                            query, k, algorithm="appfast", epsilon_f=0.5
                        )
                    except NoCommunityError:
                        served = None
                    _assert_identical(
                        served,
                        oracle_search(fresh, query, k, algorithm="appfast", epsilon_f=0.5),
                        (seed, k, query),
                    )

        compare()  # populate the cache so mutations have answers to evict
        for _ in range(8):
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


@pytest.mark.parametrize("algorithm", sorted(set(ALGORITHMS) - {"exact"}))
def test_fixed_seed_invariants_per_algorithm(algorithm):
    """One deterministic bound check per algorithm, cheap enough for -x runs."""
    rng = np.random.default_rng(7)
    graph, _ = random_spatial_graph(rng, 18, 48)
    engine = QueryEngine(graph)
    labels, _count = engine.component_labels(2)
    eligible = [int(q) for q in np.flatnonzero(labels >= 0)[:4]]
    assert eligible
    for query in eligible:
        exact_result = engine.search(query, 2, algorithm="exact")
        approx = engine.search(query, 2, algorithm=algorithm, **PARAMS[algorithm])
        bound = BOUNDS[algorithm](PARAMS[algorithm])
        assert exact_result.radius <= approx.radius * SLACK
        assert approx.radius <= bound * exact_result.radius * SLACK
