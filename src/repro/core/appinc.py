"""``AppInc`` — the 2-approximation algorithm (Section 4.2, Algorithm 2).

AppInc grows a candidate set outwards from the query vertex, one vertex at a
time in ascending distance order, and stops as soon as the candidate set
contains a feasible solution.  Lemma 4 shows that the MCC of the community
found this way has radius at most twice the optimal radius.
"""

from __future__ import annotations

from typing import Optional

from repro.core.base import (
    QueryContext,
    incremental_feasible_region,
    nearest_neighbor_community,
    resolve_context,
    validate_query,
)
from repro.core.result import SACResult
from repro.graph.spatial_graph import SpatialGraph
from repro.geometry.mec import minimum_enclosing_circle


def app_inc(
    graph: SpatialGraph,
    query: int,
    k: int,
    *,
    context: Optional[QueryContext] = None,
) -> SACResult:
    """Run AppInc and return the 2-approximate SAC.

    Parameters
    ----------
    graph:
        The spatial graph.
    query:
        Internal index of the query vertex.
    k:
        Minimum-degree threshold (``k >= 1``).
    context:
        Optional pre-built :class:`QueryContext` (e.g. from
        :class:`repro.engine.QueryEngine`); results are identical either way.

    Returns
    -------
    SACResult
        Community ``Φ`` whose MCC radius ``γ`` satisfies ``γ <= 2 * ropt``.
        The result's ``stats`` record ``delta`` (the radius of the smallest
        query-centred circle containing a feasible solution) and ``gamma``.

    Raises
    ------
    NoCommunityError
        If the query vertex does not belong to any k-ĉore.
    """
    validate_query(graph, query, k)
    if k == 1:
        members = nearest_neighbor_community(graph, query)
        coords = graph.coordinates
        circle = minimum_enclosing_circle(
            [(float(coords[v, 0]), float(coords[v, 1])) for v in members]
        )
        return SACResult(
            "appinc",
            query,
            k,
            members,
            circle,
            {
                "delta": circle.diameter,
                "gamma": circle.radius,
                "feasibility_checks": 0,
                "candidate_set_size": len(members),
            },
        )

    context = resolve_context(graph, query, k, context)
    community, delta = incremental_feasible_region(context)
    result = context.make_result("appinc", community, {"delta": delta})
    result.stats["gamma"] = result.radius
    return result
