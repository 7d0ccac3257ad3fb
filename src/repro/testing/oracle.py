"""The reference oracle every execution path is tested against.

The serving stack answers SAC queries through engine caches, factorised
plan groups, shared-memory worker shards, and an answer cache; each layer
claims answers **bit-identical** to the paper's algorithm run directly.
This module is that direct run: :func:`oracle_search` calls
``ALGORITHMS[algorithm](graph, query, k, **params)`` with no context, so
the algorithm builds a fresh :class:`~repro.core.base.QueryContext` and
shares nothing with any engine.  Differential tests compare an execution
path against it with :func:`assert_results_identical` (member sets, circle
floats, and stats).

Importable without ``hypothesis``, like :mod:`repro.testing` itself.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core.result import SACResult
from repro.core.searcher import ALGORITHMS
from repro.exceptions import NoCommunityError
from repro.graph.spatial_graph import SpatialGraph

__all__ = ["assert_results_identical", "oracle_batch", "oracle_search"]


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
