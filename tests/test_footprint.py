"""Footprint revalidation keeps only the cached answers a check-in cannot change.

An AppFast answer carries its footprint: the distances from the query that
its binary search compared candidate distances against.  The answer cache
keeps a stale AppFast entry when every version bump since its stamp was a
check-in whose vertex is neither the query nor a member and stays on the
same side of every footprint distance (:func:`repro.core.appfast.unchanged_by`).
Whatever the cache serves — through ``submit_batch`` or the on-loop
``SACService.cached`` — must equal a search on a fresh engine over a copy
of the graph, bit for bit: members, radius, centre and stats.

CI also runs this module in its own ``pytest -m footprint`` step with
hypothesis statistics.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

from repro.datasets.geosocial import brightkite_like
from repro.engine import IncrementalEngine, QueryEngine
from repro.engine.engine import _MOVE_LOG_BUMPS
from repro.exceptions import NoCommunityError
from repro.graph.builder import GraphBuilder
from repro.kcore.decomposition import core_numbers
from repro.service import SACService
from repro.testing.oracle import assert_results_identical
from repro.testing.strategies import clustered_points, spatial_graphs

pytestmark = pytest.mark.footprint

#: Small graphs whose coordinates repeat and line up, so distances tie.
_GRAPHS = spatial_graphs(
    min_vertices=10, max_vertices=24, max_extra_edges=80, point_strategy=clustered_points()
)
_MOVES = ("query", "member", "onto", "across", "nudge", "same_distance", "anywhere", "edge")


def _fresh(service, query, k, algorithm="appfast", **params):
    """The reference: a search on a fresh engine over a copy of the graph."""
    try:
        return QueryEngine(service.graph.mutable_copy()).search(
            query, k, algorithm=algorithm, **params
        )
    except NoCommunityError:
        return None


def _assert_fresh(service, query, k, answer, context, algorithm="appfast", **params):
    expected = _fresh(service, query, k, algorithm, **params)
    assert_results_identical(answer, expected, context)
    if answer is not None and answer.footprint is not None:
        assert np.array_equal(answer.footprint, expected.footprint), context


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(graph=_GRAPHS, data=st.data())
def test_every_served_answer_equals_a_fresh_search(graph, data):
    cores = core_numbers(graph)
    assume(cores.max() >= 2)
    k = data.draw(st.integers(min_value=2, max_value=min(3, int(cores.max()))), label="k")
    eligible = np.flatnonzero(cores >= k).tolist()
    queries = data.draw(
        st.lists(st.sampled_from(eligible), min_size=1, max_size=3, unique=True),
        label="queries",
    )
    service = SACService(engine=IncrementalEngine(graph.mutable_copy()))
    n = graph.num_vertices
    vertex = st.integers(min_value=0, max_value=n - 1)
    last = {}  # (query, epsilon_f) -> the answer served last

    def serve_all(step):
        for query in queries:
            for epsilon_f in (0.0, 0.5):
                context = (step, query, epsilon_f)
                before = service.cache.stats.revalidated
                on_loop = service.cached(query, k, algorithm="appfast", epsilon_f=epsilon_f)
                if on_loop is not None:
                    _assert_fresh(service, query, k, on_loop, context, epsilon_f=epsilon_f)
                served = service.submit_batch(
                    [query], k, algorithm="appfast", epsilon_f=epsilon_f
                ).results.get(query)
                _assert_fresh(service, query, k, served, context, epsilon_f=epsilon_f)
                event(f"revalidated: {service.cache.stats.revalidated > before}")
                last[(query, epsilon_f)] = served

    for step in range(data.draw(st.integers(min_value=3, max_value=12), label="steps")):
        serve_all(step)
        kind = data.draw(st.sampled_from(_MOVES), label="move")
        query = data.draw(st.sampled_from(queries), label="around")
        answer = last[(query, data.draw(st.sampled_from([0.0, 0.5]), label="eps"))]
        qx, qy = service.graph.position(query)
        if kind == "edge":
            u, v = data.draw(vertex, label="u"), data.draw(vertex, label="v")
            if u != v:
                action = "delete" if service.graph.has_edge(u, v) else "insert"
                service.apply_edge(u, v, action)
            continue
        if kind == "query":
            mover, (x, y) = query, data.draw(clustered_points(), label="to")
        elif kind == "member" and answer is not None and len(answer.members) > 1:
            mover = data.draw(st.sampled_from(sorted(answer.members - {query})), label="member")
            x, y = data.draw(clustered_points(), label="to")
        elif kind in ("onto", "across", "nudge", "same_distance") and answer is not None and (
            len(answer.members) < n
        ):
            outside = sorted(set(range(n)) - answer.members)
            mover = data.draw(st.sampled_from(outside), label="mover")
            mx, my = service.graph.position(mover)
            if kind == "same_distance" or answer.footprint is None:
                x, y = qx - (my - qy), qy + (mx - qx)  # a quarter turn around the query
            elif kind == "nudge":
                # A small radial step: the vertex that set a bound moves off it.
                scale = 1.0 + data.draw(st.sampled_from([-0.05, -1e-4, 1e-4, 0.05]), label="by")
                x, y = qx + (mx - qx) * scale, qy + (my - qy) * scale
            else:
                distance = float(data.draw(st.sampled_from(answer.footprint.tolist()), label="f"))
                if kind == "across":
                    # The non-member nearest to f on one side steps just past
                    # f, or well past it: it may cross f and nothing else.
                    def gap(v):
                        vx, vy = service.graph.position(v)
                        return math.hypot(vx - qx, vy - qy) - distance
                    below = data.draw(st.booleans(), label="from below")
                    side = [v for v in outside if (gap(v) < 0) == below] or outside
                    mover = min(side, key=lambda v: abs(gap(v)))
                    step = data.draw(st.sampled_from([1e-4, 0.05]), label="step")
                    step *= max(1.0, distance)
                    distance = distance + step if gap(mover) < 0 else distance - step
                x, y = qx + max(distance, 0.0), qy
        else:
            mover = data.draw(vertex, label="mover")
            x, y = data.draw(clustered_points(), label="to")
        event(f"move: {kind}")
        service.apply_checkin(mover, x, y)
    serve_all("final")


# --------------------------------------------------------------- unit cases
K = 4


@pytest.fixture(scope="module")
def graph():
    return brightkite_like(num_vertices=300, seed=7)


def _setup(graph):
    """A cached service, a query, its stored AppFast answer and the stats."""
    service = SACService(engine=IncrementalEngine(graph.mutable_copy()))
    labels, _ = service.engine.component_labels(K)
    query = int(np.flatnonzero(labels >= 0)[0])
    answer = service.search(query, K)
    assert answer.footprint is not None and service.cache.stats.stores == 1
    return service, query, answer


def _clear_mover(service, query, answer):
    """A non-member candidate farthest from the query that is clear of the footprint."""
    engine = service.engine
    component, _ = engine.component_of(query, K)
    labels, _ = engine.component_labels(K)
    qx, qy = service.graph.position(query)
    footprint = answer.footprint
    best = None
    for v in np.flatnonzero(labels == component).tolist():
        if v in answer.members:
            continue
        d = math.hypot(*np.subtract(service.graph.position(v), (qx, qy)))
        if np.abs(footprint - d).min() > 1e-3 and (best is None or d > best[1]):
            best = (v, d)
    assert best is not None
    return best


def _quarter_turn(service, query, mover):
    qx, qy = service.graph.position(query)
    mx, my = service.graph.position(mover)
    return qx - (my - qy), qy + (mx - qx)


def test_a_check_in_that_crosses_no_footprint_distance_is_a_revalidated_hit(graph):
    service, query, answer = _setup(graph)
    mover, _ = _clear_mover(service, query, answer)
    service.apply_checkin(mover, *_quarter_turn(service, query, mover))
    cache, engine = service.cache, service.engine
    representative = engine.component_of(query, K)[1]
    version = engine.component_version(K, representative)
    # The judgement alone changes nothing.
    before = (len(cache), cache.stats.hits, cache.stats.revalidated)
    assert cache.peek_group(
        engine, [query], K, "appfast", {}, representative=representative, version=version
    ) == []
    assert (len(cache), cache.stats.hits, cache.stats.revalidated) == before
    hit = service.cached(query, K)  # the on-loop path
    assert hit is not None
    assert cache.stats.revalidated == 1 and cache.stats.hits == 1
    assert cache.stats.invalidations == 0
    _assert_fresh(service, query, K, hit, "on-loop")
    # Restamped: the next lookup is a plain hit.
    assert_results_identical(service.search(query, K), hit)
    assert cache.stats.revalidated == 1 and cache.stats.hits == 2


@pytest.mark.parametrize("epsilon_f", [0.0, 0.5])
def test_a_small_step_of_any_non_member_keeps_only_fresh_answers(graph, epsilon_f):
    # Each non-member of the first queries' component steps 1e-4 of its
    # distance towards the query, then 5 %, then back: the vertex that set a
    # bound of the search moves off it, a vertex just beyond a probe radius
    # may cross it, and most cross nothing.
    service = SACService(engine=IncrementalEngine(graph.mutable_copy()))
    labels, _ = service.engine.component_labels(K)
    component = np.flatnonzero(labels == labels[np.flatnonzero(labels >= 0)[0]])
    for query in component[:2].tolist():
        answer = service.search(query, K, epsilon_f=epsilon_f)
        qx, qy = service.graph.position(query)
        for mover in sorted(set(component.tolist()) - answer.members):
            home = service.graph.position(mover)
            for scale in (1.0 - 1e-4, 0.95, 1.0):
                service.apply_checkin(
                    mover, qx + (home[0] - qx) * scale, qy + (home[1] - qy) * scale
                )
                before = service.cache.stats.revalidated
                served = service.search(query, K, epsilon_f=epsilon_f)
                if service.cache.stats.revalidated > before:
                    context = (query, mover, scale)
                    _assert_fresh(service, query, K, served, context, epsilon_f=epsilon_f)
    stats = service.cache.stats
    assert stats.revalidated > 0 and stats.invalidations > 0


def _move_query(service, query, answer):
    service.apply_checkin(query, *service.graph.position(query))


def _move_member(service, query, answer):
    member = next(v for v in answer.members if v != query)
    service.apply_checkin(member, *service.graph.position(member))


def _move_onto_the_footprint(service, query, answer):
    mover, _ = _clear_mover(service, query, answer)
    qx, qy = service.graph.position(query)
    service.apply_checkin(mover, qx + float(answer.footprint[len(answer.footprint) // 2]), qy)


def _update_an_edge(service, query, answer):
    members = sorted(answer.members)
    u, v = next(
        (u, v) for u in members for v in members if u < v and not service.graph.has_edge(u, v)
    )
    service.apply_edge(u, v, "insert")


def _outrun_the_log(service, query, answer):
    mover, _ = _clear_mover(service, query, answer)
    for _ in range(_MOVE_LOG_BUMPS + 1):
        service.apply_checkin(mover, *service.graph.position(mover))


@pytest.mark.parametrize(
    "mutate",
    [_move_query, _move_member, _move_onto_the_footprint, _update_an_edge, _outrun_the_log],
)
def test_any_other_bump_is_a_miss_counted_in_invalidations(graph, mutate):
    service, query, answer = _setup(graph)
    mutate(service, query, answer)
    served = service.search(query, K)
    stats = service.cache.stats
    assert (stats.hits, stats.misses, stats.invalidations) == (0, 2, 1)
    assert stats.revalidated == 0
    _assert_fresh(service, query, K, served, mutate.__name__)


@pytest.mark.parametrize(
    "algorithm, params",
    [("appacc", {"epsilon_a": 0.5}), ("exact+", {"epsilon_a": 0.5}), ("appinc", {})],
)
def test_only_appfast_answers_carry_a_footprint(algorithm, params):
    graph = brightkite_like(num_vertices=60, seed=8)
    service = SACService(engine=IncrementalEngine(graph.mutable_copy()))
    labels, _ = service.engine.component_labels(3)
    query = int(np.flatnonzero(labels >= 0)[0])
    answer = service.search(query, 3, algorithm=algorithm, **params)
    assert answer.footprint is None
    # So a check-in that crosses nothing still retires it.
    far = max(
        (v for v in np.flatnonzero(labels == labels[query]).tolist() if v not in answer.members),
        key=lambda v: service.graph.distance(v, query),
    )
    service.apply_checkin(far, *service.graph.position(far))
    service.search(query, 3, algorithm=algorithm, **params)
    assert service.cache.stats.invalidations == 1 and service.cache.stats.revalidated == 0


def test_the_quick_exit_and_k_1_carry_no_footprint():
    builder = GraphBuilder()
    for v, (x, y) in enumerate([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]):
        builder.add_vertex(v, x, y)
    builder.add_edges([(0, 1), (0, 2), (1, 2)])
    triangle = builder.build()
    engine = QueryEngine(triangle)
    # Both neighbours are needed, so the lower bound is the farthest candidate.
    assert engine.search(0, 2, algorithm="appfast").footprint is None
    assert engine.search(0, 1, algorithm="appfast").footprint is None


def test_the_move_log_returns_the_check_ins_between_two_versions(graph):
    engine = IncrementalEngine(graph.mutable_copy())
    labels, _ = engine.component_labels(K)
    first = int(np.flatnonzero(labels >= 0)[0])
    second = int(np.flatnonzero(labels == labels[first])[1])
    representative = engine.component_of(first, K)[1]
    engine.search(first, K)
    old = engine.graph.position(first)
    engine.apply_checkin(first, 0.25, 0.75)
    engine.apply_checkin(second, *engine.graph.position(second))
    assert engine.checkins_between(K, representative, 0, 2) == [
        (first, *old, 0.25, 0.75),
        (second, *engine.graph.position(second), *engine.graph.position(second)),
    ]
    assert engine.checkins_between(K, representative, 1, 2)[0][0] == second
    action = "delete" if engine.graph.has_edge(first, second) else "insert"
    engine.apply_edge(first, second, action)
    assert engine.component_version(K, representative) == 3
    assert engine.checkins_between(K, representative, 0, 3) is None
