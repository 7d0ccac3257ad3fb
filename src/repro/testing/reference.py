"""The uncached AppAcc and Exact+ searches: the reference for probe reuse.

:mod:`repro.core.appacc` and :mod:`repro.core.exact_plus` let one query
reuse what it already computed: an anchor's binary search bisects one
distance-sorted grid answer, each distinct inside set is peeled once, and
each distinct member set gets one MEC.  This module keeps the search loops
as they were before that reuse: every probe is a fresh
:meth:`~repro.core.base.QueryContext.community_members_in_circle` (grid
query, peel, BFS) and every member set gets its own
:func:`~repro.geometry.mec.minimum_enclosing_circle` run.
:func:`reference_app_acc` and :func:`reference_exact_plus` must return
answers bit-identical to :func:`repro.core.app_acc` and
:func:`repro.core.exact_plus` at every ``epsilon_a`` — members, circle and
every stat, ``feasibility_checks`` included — which
``tests/test_probe_reuse.py`` checks with
:func:`repro.testing.oracle.assert_results_identical`.

Importable without ``hypothesis``, like :mod:`repro.testing` itself.
"""

from __future__ import annotations

import math
from typing import List, Optional, Set, Tuple

import numpy as np

from repro.core.appacc import AppAccState, app_acc
from repro.core.appfast import app_fast
from repro.core.base import QueryContext
from repro.core.exact_plus import exact_plus
from repro.core.result import SACResult
from repro.geometry.circle import Circle
from repro.geometry.mec import (
    circle_from_two_points,
    minimum_covering_circle_of_triple,
    minimum_enclosing_circle,
)
from repro.geometry.quadtree import RegionQuadtree
from repro.graph.spatial_graph import SpatialGraph

__all__ = ["reference_app_acc", "reference_exact_plus"]

_SQRT2_OVER_2 = math.sqrt(2.0) / 2.0
_SQRT3 = math.sqrt(3.0)


def reference_app_acc(
    graph: SpatialGraph, query: int, k: int, epsilon_a: float = 0.5
) -> SACResult:
    """AppAcc with every probe and every MEC computed afresh."""
    if k == 1 or not 0.0 < epsilon_a < 1.0:
        return app_acc(graph, query, k, epsilon_a)
    context = QueryContext(graph, query, k)
    state = _run_app_acc(context, epsilon_a)
    return context.make_result(
        "appacc",
        state.community,
        {
            "epsilon_a": epsilon_a,
            "delta": state.delta,
            "gamma": state.gamma,
            "anchors_probed": state.anchors_probed,
            "anchors_pruned": state.anchors_pruned,
            "final_beta": state.final_beta,
        },
    )


def reference_exact_plus(
    graph: SpatialGraph, query: int, k: int, epsilon_a: float = 1e-4
) -> SACResult:
    """Exact+ with every probe and every MEC computed afresh."""
    if k == 1 or not 0.0 < epsilon_a < 1.0:
        return exact_plus(graph, query, k, epsilon_a)
    context = QueryContext(graph, query, k)
    state = _run_app_acc(context, epsilon_a)

    best_members: Set[int] = set(state.community)
    best_radius = state.radius
    coords = graph.coordinates

    if best_radius <= 0.0:
        return context.make_result(
            "exact+", best_members, {"fixed_vertex_candidates": 0, "triples_examined": 0}
        )

    slack = _SQRT2_OVER_2 * state.final_beta
    r_plus = best_radius + slack
    r_minus = max(0.0, best_radius / (1.0 + epsilon_a) - slack)
    fixed_candidates: Set[int] = set()
    candidate_pool = state.candidates_near_query or set(context.candidates)
    for px, py in state.surviving_anchors:
        for vertex in context.vertices_in_annulus(px, py, r_minus, r_plus):
            if vertex in candidate_pool:
                fixed_candidates.add(vertex)

    f1 = sorted(fixed_candidates)
    points = {v: (float(coords[v, 0]), float(coords[v, 1])) for v in f1}
    triples_examined = 0

    for a_index, v1 in enumerate(f1):
        p1 = points[v1]
        for v2 in f1[a_index + 1 :]:
            p2 = points[v2]
            circle = circle_from_two_points(p1, p2)
            if circle.radius >= best_radius - 1e-15:
                continue
            triples_examined += 1
            improved = _probe_circle(context, circle.center.x, circle.center.y, circle.radius)
            if improved is not None and improved[1] < best_radius:
                best_members, best_radius = improved[0], improved[1]

    for v1 in f1:
        p1 = points[v1]
        lower_pair = _SQRT3 * r_minus
        upper_pair = 2.0 * best_radius
        f2 = [
            v
            for v in f1
            if v != v1 and lower_pair - 1e-12 <= _dist(points[v1], points[v]) <= upper_pair + 1e-12
        ]
        for v2 in f2:
            limit = _dist(p1, points[v2])
            f3 = [v for v in f1 if v not in (v1, v2) and _dist(p1, points[v]) <= limit + 1e-12]
            for v3 in f3:
                triples_examined += 1
                circle = minimum_covering_circle_of_triple(p1, points[v2], points[v3])
                if circle.radius >= best_radius - 1e-15:
                    continue
                improved = _probe_circle(
                    context, circle.center.x, circle.center.y, circle.radius
                )
                if improved is not None and improved[1] < best_radius:
                    best_members, best_radius = improved[0], improved[1]

    stats = {
        "fixed_vertex_candidates": len(f1),
        "triples_examined": triples_examined,
        "epsilon_a": epsilon_a,
        "anchors_probed": state.anchors_probed,
        "anchors_pruned": state.anchors_pruned,
        "appacc_radius": state.radius,
    }
    return context.make_result("exact+", best_members, stats)


def _mcc(context: QueryContext, members) -> Circle:
    """The MEC of ``members`` in ascending index order, computed afresh."""
    arr = np.sort(np.asarray(members, dtype=np.int64))
    return minimum_enclosing_circle(context.graph.coordinates[arr])


def _run_app_acc(context: QueryContext, epsilon_a: float) -> AppAccState:
    """The AppAcc anchor traversal, one fresh probe per circle."""
    graph = context.graph
    qx, qy = context.query_point.x, context.query_point.y

    seed = app_fast(graph, context.query, context.k, epsilon_f=0.0, context=context.fresh())
    delta = float(seed.stats["delta"])
    gamma = float(seed.radius)
    best_community: Set[int] = set(seed.members)
    best_radius = gamma

    if gamma <= 0.0 or delta <= 0.0:
        return AppAccState(
            community=best_community,
            radius=best_radius,
            delta=delta,
            gamma=gamma,
            final_beta=0.0,
            surviving_anchors=[(qx, qy)],
            candidates_near_query=set(best_community),
        )

    candidates_near_query = set(context.vertices_in_circle(qx, qy, 2.0 * gamma))
    min_beta = delta * epsilon_a / (math.sqrt(2.0) * (2.0 + epsilon_a))
    alpha_prime = delta * epsilon_a / 4.0

    tree = RegionQuadtree(qx, qy, 2.0 * gamma)
    state = AppAccState(
        community=best_community,
        radius=best_radius,
        delta=delta,
        gamma=gamma,
        final_beta=gamma,
        candidates_near_query=candidates_near_query,
    )
    last_level_anchors: List[Tuple[float, float]] = [(qx, qy)]

    for level in tree.levels_until(min_beta / 2.0):
        beta = tree.current_width
        state.final_beta = beta
        slack = _SQRT2_OVER_2 * beta
        level_anchors: List[Tuple[float, float]] = []
        for node in level:
            px, py = node.anchor
            if graph.distance_to_point(context.query, px, py) > state.radius + slack:
                node.pruned = True
                state.anchors_pruned += 1
                continue
            probe_radius = state.radius + slack
            state.anchors_probed += 1
            feasible = context.community_members_in_circle(px, py, probe_radius)
            if feasible is None:
                node.pruned = True
                state.anchors_pruned += 1
                continue
            level_anchors.append(node.anchor)
            members = _binary_search_anchor(
                context, px, py, probe_radius, delta, alpha_prime, feasible
            )
            mcc = _mcc(context, members)
            if mcc.radius < state.radius:
                state.radius = mcc.radius
                state.community = {int(v) for v in members}
        if level_anchors:
            last_level_anchors = level_anchors

    state.surviving_anchors = last_level_anchors
    return state


def _binary_search_anchor(
    context: QueryContext,
    px: float,
    py: float,
    upper: float,
    delta: float,
    alpha_prime: float,
    initial_members: np.ndarray,
) -> np.ndarray:
    """Smallest feasible anchor-centred radius, one fresh probe per step."""
    lower = delta / 2.0
    best_members = initial_members
    iterations = 0
    max_iterations = 64 + len(context.candidates)

    while upper - lower > alpha_prime and iterations < max_iterations:
        iterations += 1
        radius = (lower + upper) / 2.0
        members = context.community_members_in_circle(px, py, radius)
        if members is not None:
            best_members = members
            upper = radius
        else:
            lower = radius
    return best_members


def _dist(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def _probe_circle(
    context: QueryContext, center_x: float, center_y: float, radius: float
) -> Optional[Tuple[Set[int], float]]:
    """Probe one enumeration circle afresh: ``(community, mcc_radius)`` or ``None``."""
    members = context.community_members_in_circle(center_x, center_y, radius)
    if members is None:
        return None
    return {int(v) for v in members}, _mcc(context, members).radius
