"""``AppFast`` — the (2 + εF)-approximation algorithm (Section 4.3, Algorithm 3).

Instead of growing the candidate circle vertex by vertex, AppFast binary
searches the radius ``delta`` of the smallest query-centred circle containing
a feasible solution.  The lower bound is the distance of the query's k-th
nearest candidate neighbour and the upper bound is the farthest candidate
(Eq. 1).  The binary search stops when the remaining gap drops below
``alpha = r * epsilon_f / (2 + epsilon_f)``, which yields the (2 + εF) bound
of Lemma 5; with ``epsilon_f = 0`` the search runs to convergence and returns
exactly the AppInc community.

Each answer carries its **footprint**: every distance from the query that
the search compared candidate distances against.  A check-in whose vertex
stays on the same side of all of them, and is neither the query nor a
member, cannot change the answer; :func:`unchanged_by` is that test, and
the answer cache keeps an answer across such check-ins.
"""

from __future__ import annotations

from typing import Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.base import (
    QueryContext,
    nearest_neighbor_community,
    resolve_context,
    validate_query,
)
from repro.core.result import SACResult
from repro.exceptions import InvalidParameterError
from repro.geometry.mec import minimum_enclosing_circle
from repro.graph.spatial_graph import SpatialGraph

#: Absolute convergence tolerance used when ``epsilon_f == 0``; the binary
#: search also terminates as soon as the bracket contains no candidate
#: distance, so this only guards against floating-point stalls.
_ZERO_EPSILON_TOLERANCE = 1e-12

#: How far from every footprint distance ``f`` a moved vertex must stay, as a
#: fraction of ``max(1, f)``, for :func:`unchanged_by` to keep an answer: far
#: above the probe's ``1e-9`` radius inflation and the rounding of the grid's
#: squared distances.
_FOOTPRINT_MARGIN = 1e-6

#: One check-in as :func:`unchanged_by` reads it: ``(user, old_x, old_y,
#: new_x, new_y)``.
Move = Tuple[int, float, float, float, float]


def app_fast(
    graph: SpatialGraph,
    query: int,
    k: int,
    epsilon_f: float = 0.5,
    *,
    context: Optional[QueryContext] = None,
) -> SACResult:
    """Run AppFast and return the (2 + εF)-approximate SAC.

    Parameters
    ----------
    graph, query, k:
        As in :func:`repro.core.appinc.app_inc`.
    epsilon_f:
        Non-negative slack εF.  Larger values stop the binary search earlier
        (faster, looser guarantee); ``0`` reproduces AppInc's answer.
    context:
        Optional pre-built :class:`QueryContext` (e.g. from
        :class:`repro.engine.QueryEngine`); results are identical either way.

    Returns
    -------
    SACResult
        Community ``Λ`` with MCC radius at most ``(2 + εF) * ropt``.  The
        stats record ``delta`` (final feasible query-centred radius),
        ``gamma`` (MCC radius), and ``binary_search_iterations``.  The
        result's ``footprint`` holds the distances the binary search
        compared against; it is ``None`` for ``k == 1`` and when the lower
        bound is already feasible.
    """
    if not epsilon_f >= 0:  # also refuses NaN
        raise InvalidParameterError(f"epsilon_f must be non-negative, got {epsilon_f}")
    validate_query(graph, query, k)
    if k == 1:
        members = nearest_neighbor_community(graph, query)
        coords = graph.coordinates
        circle = minimum_enclosing_circle(
            [(float(coords[v, 0]), float(coords[v, 1])) for v in members]
        )
        return SACResult("appfast", query, k, members, circle, {"delta": circle.diameter})

    context = resolve_context(graph, query, k, context)
    members, delta, iterations, footprint = _binary_search_radius(context, epsilon_f)
    result = context.make_result(
        "appfast",
        members,
        {"delta": delta, "binary_search_iterations": iterations, "epsilon_f": epsilon_f},
        footprint=footprint,
    )
    result.stats["gamma"] = result.radius
    return result


def _binary_search_radius(context: QueryContext, epsilon_f: float):
    """Binary search the smallest feasible query-centred radius.

    Returns ``(members, delta, iterations, footprint)`` where ``members`` is
    the community as an int64 array, ``delta`` the radius of the
    query-centred circle known to contain it, and ``footprint`` the sorted,
    read-only array of every distance a candidate distance was compared
    against: the starting bounds, each probe radius, and each moved bound
    (``None`` on the quick exit).  All bound updates are whole-array
    operations over the context's distance vector.
    """
    qx, qy = context.query_point.x, context.query_point.y
    distances = context.distance_array
    lower = context.knn_distance()
    upper = context.max_candidate_distance()

    # The full candidate set (the k-ĉore) is always feasible, so the initial
    # community and feasible radius are well defined.
    best_members = context.artifacts.candidate_array
    best_delta = upper
    iterations = 0

    # Quick exit: the lower bound itself may already be feasible.
    if upper <= lower:
        return best_members, best_delta, iterations, None

    compared = [lower, upper]
    while upper > lower + _ZERO_EPSILON_TOLERANCE:
        iterations += 1
        radius = (lower + upper) / 2.0
        compared.append(radius)
        alpha = radius * epsilon_f / (2.0 + epsilon_f) if epsilon_f > 0 else 0.0
        members = context.community_members_in_circle(qx, qy, radius)
        if members is not None:
            best_members = members
            best_delta = radius
            if radius - lower <= alpha:
                break
            # Shrink the upper bound to the farthest member actually used.
            upper = float(context.member_distances(members).max())
            compared.append(upper)
            best_delta = upper
        else:
            if upper - radius <= alpha:
                break
            # Grow the lower bound to the nearest candidate outside O(q, r):
            # the next feasible circle must include at least one more vertex.
            outside = distances[distances > radius]
            if outside.size == 0:
                break
            lower = float(outside.min())
            compared.append(lower)
        if iterations > 4 * (len(context.candidates) + 64):
            # Defensive guard; the bracket always shrinks over the discrete
            # set of candidate distances, so this should be unreachable.
            break
    footprint = np.array(sorted(set(compared)), dtype=np.float64)
    footprint.flags.writeable = False
    return best_members, best_delta, iterations, footprint


def unchanged_by(
    result: SACResult, query_xy: Tuple[float, float], moves: Sequence[Move]
) -> bool:
    """Whether AppFast returns ``result`` again after the check-ins ``moves``.

    ``moves`` are the check-ins applied to ``result``'s component since it
    was computed, in order; ``query_xy`` is the query's position now.  True
    when ``result`` has a footprint, no mover is the query or a member, and
    each mover's old and new distances from the query lie on the same side
    of every footprint distance ``f``, both farther from it than
    ``_FOOTPRINT_MARGIN * max(1, f)``.  A check-in changes nothing else the
    search reads, so every probe, bound, stat and the members' circle
    repeat (the argument is written out in ``docs/algorithms.md``).
    """
    footprint = result.footprint
    if footprint is None:
        return False
    if not moves:
        return True
    users = np.fromiter((move[0] for move in moves), np.int64, len(moves))
    members = result.members.array  # the query is one of them
    slots = np.minimum(np.searchsorted(members, users), members.size - 1)
    if (members[slots] == users).any():
        return False
    points = np.array([move[1:] for move in moves], dtype=np.float64)
    qx, qy = query_xy
    margin = _FOOTPRINT_MARGIN * np.maximum(1.0, footprint)
    low, high = footprint - margin, footprint + margin
    sides = []
    for x, y in ((points[:, 0], points[:, 1]), (points[:, 2], points[:, 3])):
        distance = np.hypot(x - qx, y - qy)[:, np.newaxis]
        above = (distance > high).sum(axis=1)
        if not (above + (distance < low).sum(axis=1) == footprint.size).all():
            return False  # within the margin of a footprint distance
        sides.append(above)
    return bool((sides[0] == sides[1]).all())
