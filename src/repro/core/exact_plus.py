"""``Exact+`` — the advanced exact algorithm (Section 4.5, Algorithm 5).

Exact+ first runs ``AppAcc`` with a small ``epsilon_a``, which brackets the
optimal radius tightly (``rΓ / (1 + εA) ≤ ropt ≤ rΓ``) and localises the
optimal MCC centre to the surviving anchor cells.  Every fixed vertex of the
optimal MCC must then lie in a narrow annulus around one of the surviving
anchor points (Eqs. 7–8), so the expensive triple enumeration of ``Exact``
only needs to consider the (typically tiny) set ``F1`` of annulus vertices.
Lemma 2 further prunes the second fixed vertex (its distance from the first
must fall in ``[√3 · ropt, 2 · ropt]``).

In addition to triples, pairs of fixed vertices are enumerated explicitly so
that optimal MCCs determined by a diameter (two boundary vertices) are found
even when no third community member lies in the annulus.

Most enumeration circles hold a vertex set the query already peeled, in
its AppAcc phase or at an earlier circle, and most feasible ones hold a
community it already measured; the probes and MECs go through the query's
memos (:meth:`~repro.core.base.QueryContext.shared_members_in_circle`,
:meth:`~repro.core.base.QueryContext.mcc_of`), so each distinct set costs
one peel + BFS and one MEC.
"""

from __future__ import annotations

import math
from typing import List, Optional, Set, Tuple

import numpy as np

from repro.core.appacc import AppAccState, run_app_acc
from repro.core.base import (
    QueryContext,
    nearest_neighbor_community,
    resolve_context,
    validate_query,
)
from repro.core.result import SACResult
from repro.exceptions import InvalidParameterError
from repro.geometry.mec import (
    circle_from_two_points,
    minimum_covering_circle_of_triple,
    minimum_enclosing_circle,
)
from repro.graph.spatial_graph import SpatialGraph

_SQRT2_OVER_2 = math.sqrt(2.0) / 2.0
_SQRT3 = math.sqrt(3.0)


def exact_plus(
    graph: SpatialGraph,
    query: int,
    k: int,
    epsilon_a: float = 1e-4,
    *,
    context: Optional[QueryContext] = None,
) -> SACResult:
    """Run Exact+ and return the optimal SAC.

    Parameters
    ----------
    graph, query, k:
        As in :func:`repro.core.appinc.app_inc`.
    epsilon_a:
        Accuracy of the internal AppAcc run (paper default ``1e-4``).  Smaller
        values shrink the annular candidate region (fewer fixed-vertex
        candidates) at the cost of more anchor probes; the final answer is
        exact for any value in ``(0, 1)``.
    context:
        Optional pre-built :class:`QueryContext` (e.g. from
        :class:`repro.engine.QueryEngine`); results are identical either way.

    Returns
    -------
    SACResult
        The optimal community Ψ.  Stats record ``fixed_vertex_candidates``
        (|F1|), the number of triples examined, and the AppAcc bookkeeping.
    """
    if not 0.0 < epsilon_a < 1.0:
        raise InvalidParameterError(f"epsilon_a must be in (0, 1), got {epsilon_a}")
    validate_query(graph, query, k)
    if k == 1:
        members = nearest_neighbor_community(graph, query)
        coords = graph.coordinates
        circle = minimum_enclosing_circle(
            [(float(coords[v, 0]), float(coords[v, 1])) for v in members]
        )
        return SACResult("exact+", query, k, members, circle, {})

    context = resolve_context(graph, query, k, context)
    state = run_app_acc(context, epsilon_a)

    best_members = state.community
    best_radius = state.radius
    coords = graph.coordinates

    if best_radius <= 0.0:
        # The approximate solution is already a zero-radius (hence optimal) circle.
        return context.make_result(
            "exact+", best_members, {"fixed_vertex_candidates": 0, "triples_examined": 0}
        )

    # ---------------------------------------------------------------- F1 set
    # Candidate fixed vertices: members of S (the k-ĉore restricted to
    # O(q, 2*gamma)) whose distance to some surviving anchor point lies in
    # [r-, r+] (Eqs. 7 and 8).
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

    # ------------------------------------------------- pair enumeration
    # Optimal MCCs determined by exactly two boundary vertices (a diameter).
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
                best_members, best_radius = improved

    # ------------------------------------------------ triple enumeration
    for v1 in f1:
        p1 = points[v1]
        # Lemma 2: the farthest pair of the optimal community spans
        # [sqrt(3) * ropt, 2 * ropt]; use the current bracket on ropt.
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
                    best_members, best_radius = improved

    stats = {
        "fixed_vertex_candidates": len(f1),
        "triples_examined": triples_examined,
        "epsilon_a": epsilon_a,
        "anchors_probed": state.anchors_probed,
        "anchors_pruned": state.anchors_pruned,
        "appacc_radius": state.radius,
    }
    return context.make_result("exact+", best_members, stats)


def _dist(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def _probe_circle(
    context: QueryContext, center_x: float, center_y: float, radius: float
) -> Optional[Tuple[np.ndarray, float]]:
    """Probe a candidate circle and return ``(members, mcc_radius)`` if feasible.

    The probe and the MEC go through the query's memos, so a circle holding
    a vertex set this query already peeled, or a community it already
    measured, costs a lookup.
    """
    members = context.shared_members_in_circle(center_x, center_y, radius)
    if members is None:
        return None
    return members, context.mcc_of(members).radius
