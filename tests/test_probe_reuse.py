"""AppAcc and Exact+ reuse probes within one query without changing an answer.

:mod:`repro.core.appacc` bisects one distance-sorted grid answer per anchor,
and both it and :mod:`repro.core.exact_plus` peel each distinct inside set
and measure each distinct member set once per query.  The reference is the
search as it ran before that reuse, kept in :mod:`repro.testing.reference`:
one fresh grid query, peel, BFS and MEC per probe.  The two must agree bit
for bit — members, circle and every stat — at every ``epsilon_a``, and the
memos must stay within their fixed byte cap however many distinct sets one
query drives through them.

CI also runs this module in its own ``pytest -m probe_reuse`` step with
hypothesis statistics.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core import app_acc, exact_plus
from repro.core import base
from repro.core.base import AnchorProbe, QueryContext
from repro.datasets.registry import load_dataset
from repro.engine import QueryEngine
from repro.kcore.decomposition import core_numbers
from repro.testing.oracle import assert_results_identical
from repro.testing.reference import reference_app_acc, reference_exact_plus
from repro.testing.strategies import clustered_points, random_spatial_graph, spatial_graphs

pytestmark = pytest.mark.probe_reuse


def _equal_the_reference(graph, data, epsilon_a):
    k = data.draw(st.integers(min_value=2, max_value=3), label="k")
    in_core = np.flatnonzero(core_numbers(graph) >= k)
    assume(in_core.size)
    query = int(data.draw(st.sampled_from(in_core), label="query"))
    assert_results_identical(
        app_acc(graph, query, k, epsilon_a),
        reference_app_acc(graph, query, k, epsilon_a),
        ("appacc", query, k, epsilon_a),
    )
    assert_results_identical(
        exact_plus(graph, query, k, epsilon_a),
        reference_exact_plus(graph, query, k, epsilon_a),
        ("exact+", query, k, epsilon_a),
    )


#: Small graphs whose coordinates repeat and line up (see clustered_points).
_GRAPHS = spatial_graphs(
    min_vertices=6, max_vertices=14, max_extra_edges=50, point_strategy=clustered_points()
)
_SLOW = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@settings(max_examples=60, **_SLOW)
@given(graph=_GRAPHS, data=st.data())
def test_equal_the_uncached_reference_at_half(graph, data):
    _equal_the_reference(graph, data, 0.5)


@settings(max_examples=40, **_SLOW)
@given(graph=_GRAPHS, data=st.data())
def test_equal_the_uncached_reference_at_a_tenth(graph, data):
    _equal_the_reference(graph, data, 0.1)


@settings(max_examples=12, **_SLOW)
@given(graph=_GRAPHS, data=st.data())
def test_equal_the_uncached_reference_at_the_paper_default(graph, data):
    """ε_a = 1e-4: thousands of anchor probes per query on the reference side."""
    _equal_the_reference(graph, data, 1e-4)


@pytest.mark.parametrize("k", [4, 5])
def test_the_ladder_calibration_queries_answer_like_the_reference(k):
    """``serve --slo`` calibrates with Exact+ on each component's representative."""
    graph = load_dataset("brightkite", scale=0.02)
    engine = QueryEngine(graph)
    query = engine.component_representative(k, 0)
    for epsilon_a in (0.5, 1e-4):
        assert_results_identical(
            engine.search(query, k, algorithm="exact+", epsilon_a=epsilon_a),
            reference_exact_plus(graph, query, k, epsilon_a),
            (k, query, epsilon_a),
        )


class TestBoundedMemos:
    """One query's probe and MEC memos never hold more than ``_MEMO_BYTES``."""

    @pytest.fixture(scope="class")
    def large_context(self):
        rng = np.random.default_rng(5)
        graph, _ = random_spatial_graph(rng, 6000, 30000)
        return graph, QueryContext(graph, 0, 2)

    def test_probe_memo_evicts_past_the_cap_and_answers_stay_exact(self, large_context):
        graph, context = large_context
        qx, qy = context.query_point.x, context.query_point.y
        radii = np.linspace(0.05, 1.5, 400)
        # Every radius holds a different, growing inside set: together far
        # more key bytes than the cap.
        inside_bytes = sum(
            8 * len(context.vertices_in_circle(qx, qy, r + 1e-9 * max(1.0, r))) for r in radii
        )
        assert inside_bytes > 2 * base._MEMO_BYTES
        for radius in radii:
            shared = context.shared_members_in_circle(qx, qy, radius)
            fresh = context.community_members_in_circle(qx, qy, radius)
            assert (shared is None) == (fresh is None)
            if shared is not None:
                assert np.array_equal(shared, fresh)
            assert context._probe_memo.nbytes <= base._MEMO_BYTES
        assert 0 < len(context._probe_memo) < len(radii)
        # Asked again, the evicted sets are recomputed to the same answers.
        for radius in radii[:5]:
            again = context.shared_members_in_circle(qx, qy, radius)
            fresh = context.community_members_in_circle(qx, qy, radius)
            assert (again is None) == (fresh is None)
            if again is not None:
                assert np.array_equal(again, fresh)

    def test_mec_memo_evicts_past_the_cap(self, large_context):
        graph, context = large_context
        order = np.argsort(context.distance_array)
        candidates = context.artifacts.candidate_array[order]
        sizes = np.linspace(400, candidates.size, 400).astype(int)
        assert 8 * int(sizes.sum()) > 2 * base._MEMO_BYTES
        for size in sizes:
            members = candidates[:size]
            circle = context.mcc_of(members)
            expected = base.minimum_enclosing_circle(graph.coordinates[np.sort(members)])
            assert circle == expected
            assert context._mec_memo.nbytes <= base._MEMO_BYTES
        assert 0 < len(context._mec_memo) < len(sizes)

    def test_an_entry_larger_than_the_cap_is_not_kept(self):
        memo = base._Memo()
        memo.put(b"k" * 16, "value", base._MEMO_BYTES)
        assert len(memo) == 0 and memo.nbytes == 0
        memo.put(b"a", "small", 10)
        assert memo.get(b"a") == "small"


def test_an_anchor_probe_counts_and_decides_like_the_plain_probe():
    rng = np.random.default_rng(3)
    graph, _ = random_spatial_graph(rng, 200, 1200)
    plain = QueryContext(graph, 4, 3)
    reused = QueryContext(graph, 4, 3)
    qx, qy = plain.query_point.x, plain.query_point.y
    for dx, dy in ((0.0, 0.0), (0.03, -0.02), (0.25, 0.0)):
        px, py = qx + dx, qy + dy
        probe = AnchorProbe(reused, px, py, 0.6)
        # Largest first, then the shrinking radii of a binary search, then
        # repeats and a radius above the largest (answered by the grid).
        for radius in (0.6, 0.3, 0.45, 0.375, 0.4125, 0.4125, 0.2, 0.05, 0.7):
            expected = plain.community_members_in_circle(px, py, radius)
            got = probe(radius)
            assert (got is None) == (expected is None), (px, py, radius)
            if got is not None:
                assert np.array_equal(got, expected)
    assert reused.feasibility_checks == plain.feasibility_checks
