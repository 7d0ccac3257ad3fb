"""``Exact`` — the basic exact algorithm (Section 4.1, Algorithm 1).

By Lemma 1 (Elzinga & Hearn) the optimal community's MCC is determined by two
or three of its member vertices lying on the circle boundary ("fixed
vertices").  ``Exact`` therefore enumerates every triple of candidate
vertices in ascending order of their distance from the query, computes the
smallest circle covering the triple, and tests whether a feasible community
exists among the candidates inside that circle.  The enumeration stops early
once the outermost vertex of the triple lies farther than ``2 * r`` from the
query (no community within a circle of radius ``r`` can reach it).

The running time is ``O(m * n^3)``; the algorithm is only practical on small
candidate sets and serves as the ground truth for tests and the Figure 12
exact-algorithm comparison.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.core.base import (
    QueryContext,
    nearest_neighbor_community,
    resolve_context,
    validate_query,
)
from repro.core.result import SACResult
from repro.exceptions import InvalidParameterError
from repro.geometry.mec import minimum_covering_circle_of_triple, minimum_enclosing_circle
from repro.graph.spatial_graph import SpatialGraph


def exact(
    graph: SpatialGraph,
    query: int,
    k: int,
    *,
    max_candidates: Optional[int] = None,
    context: Optional[QueryContext] = None,
) -> SACResult:
    """Run the basic exact algorithm and return the optimal SAC.

    Parameters
    ----------
    graph, query, k:
        As in :func:`repro.core.appinc.app_inc`.
    max_candidates:
        Optional safety valve: raise :class:`InvalidParameterError` when the
        candidate k-ĉore exceeds this size instead of attempting an O(n^3)
        enumeration.  ``None`` (default) disables the check.
    context:
        Optional pre-built :class:`QueryContext` (e.g. from
        :class:`repro.engine.QueryEngine`); results are identical either way.

    Returns
    -------
    SACResult
        The community Ψ with the minimum covering circle of smallest radius
        among all feasible communities containing the query.
    """
    validate_query(graph, query, k)
    if k == 1:
        members = nearest_neighbor_community(graph, query)
        coords = graph.coordinates
        circle = minimum_enclosing_circle(
            [(float(coords[v, 0]), float(coords[v, 1])) for v in members]
        )
        return SACResult("exact", query, k, members, circle, {})

    context = resolve_context(graph, query, k, context)
    if max_candidates is not None and len(context.candidates) > max_candidates:
        raise InvalidParameterError(
            f"candidate k-core has {len(context.candidates)} vertices, exceeding "
            f"max_candidates={max_candidates}; use exact_plus or an approximation algorithm"
        )

    ordered = context.sorted_by_distance()
    coords = graph.coordinates
    points = {v: (float(coords[v, 0]), float(coords[v, 1])) for v in ordered}

    # The full candidate set is always feasible, so initialise with it.
    best_members: Set[int] = set(context.candidates)
    best_radius = context.mcc_of(best_members).radius
    triples_examined = 0

    for i in range(2, len(ordered)):
        outer = ordered[i]
        # Early termination (Algorithm 1, line 13): every member of a
        # community inside a circle of radius best_radius lies within
        # 2 * best_radius of the query.
        if context.distances[outer] > 2.0 * best_radius + 1e-15:
            break
        for j in range(0, i - 1):
            for h in range(j + 1, i):
                triples_examined += 1
                circle = minimum_covering_circle_of_triple(
                    points[ordered[j]], points[ordered[h]], points[outer]
                )
                if circle.radius >= best_radius - 1e-15:
                    continue
                inside = context.vertices_in_circle(
                    circle.center.x, circle.center.y, circle.radius
                )
                community = context.community_in_subset(inside)
                if community is None:
                    continue
                mcc = context.mcc_of(community)
                if mcc.radius < best_radius:
                    best_radius = mcc.radius
                    best_members = community

    return context.make_result(
        "exact",
        best_members,
        {"triples_examined": triples_examined},
    )
