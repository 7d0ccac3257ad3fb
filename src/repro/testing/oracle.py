"""The reference oracle every execution path is tested against.

The serving stack answers SAC queries through engine caches, factorised
plan groups, and an answer cache; each layer claims answers
**bit-identical** to the paper's algorithm run directly.
This module is that direct run: :func:`oracle_search` calls
``ALGORITHMS[algorithm](graph, query, k, **params)`` with no context, so
the algorithm builds a fresh :class:`~repro.core.base.QueryContext` and
shares nothing with any engine.  Differential tests compare an execution
path against it with :func:`assert_results_identical` (member sets, circle
floats, and stats).  :func:`oracle_timelines` is the same reference for the
dynamic scenario: it replays a check-in stream the naive way, re-running
:func:`oracle_search` on a fresh coordinate snapshot at every tracked
check-in, which is what :class:`repro.dynamic.SACTracker`'s incremental
replay must reproduce.

Importable without ``hypothesis``, like :mod:`repro.testing` itself.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.result import SACResult
from repro.core.searcher import ALGORITHMS
from repro.dynamic.stream import LocationStream
from repro.dynamic.tracker import CommunitySnapshot
from repro.exceptions import NoCommunityError
from repro.geometry.circle import Circle
from repro.graph.spatial_graph import SpatialGraph

__all__ = [
    "assert_results_identical",
    "oracle_batch",
    "oracle_search",
    "oracle_timelines",
]


def oracle_search(
    graph: SpatialGraph, query: int, k: int, *, algorithm: str = "appfast", **params: float
) -> Optional[SACResult]:
    """Answer one query with the paper's algorithm on a fresh context.

    Returns ``None`` when the query has no community; an unknown vertex or
    an invalid parameter raises exactly what the algorithm raises.
    """
    try:
        return ALGORITHMS[algorithm](graph, int(query), k, **params)
    except NoCommunityError:
        return None


def oracle_batch(
    graph: SpatialGraph,
    queries: Sequence[int],
    k: int,
    *,
    algorithm: str = "appfast",
    **params: float,
) -> Dict[int, Optional[SACResult]]:
    """Answer every query with :func:`oracle_search`, one at a time.

    Maps each query vertex to its answer (``None`` for no community); the
    first query the algorithm rejects (an unknown vertex, an invalid
    parameter) raises.
    """
    return {
        int(query): oracle_search(graph, query, k, algorithm=algorithm, **params)
        for query in queries
    }


def oracle_timelines(
    stream: LocationStream,
    users: Sequence[int],
    k: int,
    *,
    algorithm: str = "appfast",
    **params: float,
) -> Dict[int, List[CommunitySnapshot]]:
    """Replay ``stream`` and re-answer every tracked check-in from scratch.

    At each check-in of a user in ``users`` the query runs through
    :func:`oracle_search` on a snapshot of the current coordinates; a check-in
    without a community records an empty member set with a zero circle at
    the check-in location.  Returns each tracked user's timeline, in the
    shape :meth:`repro.dynamic.SACTracker.track` returns.
    """
    tracked = {int(user) for user in users}
    timelines: Dict[int, List[CommunitySnapshot]] = {user: [] for user in tracked}
    for record in stream.replay():
        if record.user not in tracked:
            continue
        result = oracle_search(
            stream.snapshot(), record.user, k, algorithm=algorithm, **params
        )
        if result is None:
            members, circle = frozenset(), Circle.from_xy(record.x, record.y, 0.0)
        else:
            members, circle = result.members, result.circle
        timelines[record.user].append(
            CommunitySnapshot(timestamp=record.timestamp, members=members, circle=circle)
        )
    return timelines


def assert_results_identical(first, second, context=()) -> None:
    """Two :class:`SACResult` answers are bit-identical (or both ``None``)."""
    assert (first is None) == (second is None), context
    if first is None:
        return
    assert first.members == second.members, context
    assert first.circle.radius == second.circle.radius, context
    assert first.circle.center.x == second.circle.center.x, context
    assert first.circle.center.y == second.circle.center.y, context
    assert first.stats == second.stats, context
