"""Reference implementations and helpers shared by the test suite.

Importable as :mod:`repro.testing` so test modules never have to rely on
``conftest.py`` name resolution (which is ambiguous when both ``tests/`` and
``benchmarks/`` define a conftest).  The most important piece is
:func:`brute_force_optimal_radius`, a straightforward (exponential) reference
implementation of SAC search used to validate the exact algorithms and to
check the approximation guarantees of the approximate algorithms on small
graphs.

The shared hypothesis strategies (random edge lists, point clouds, spatial
graphs) live in the :mod:`repro.testing.strategies` submodule, which is
deliberately **not** imported here: strategies require ``hypothesis``, a
test-only dependency, while this module must stay importable in a
production install.  The real-socket server harness shared by the
serving-tier suites (:func:`~repro.testing.serverharness.serve`,
:class:`~repro.testing.serverharness.Tier`, the payload oracles and drain
assertions) lives in :mod:`repro.testing.serverharness`, likewise not
imported here — it pulls in the whole serving stack.  The reference oracle
every execution path is compared against (the paper's algorithm on a fresh
query context) is :mod:`repro.testing.oracle`.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Optional, Set, Tuple

from repro.geometry.mec import minimum_enclosing_circle
from repro.graph.builder import GraphBuilder
from repro.graph.spatial_graph import SpatialGraph
from repro.kcore.connected_core import is_connected, minimum_internal_degree

__all__ = ["build_graph", "feasible", "brute_force_optimal_radius"]


def build_graph(
    locations: Dict[object, Tuple[float, float]], edges: List[Tuple[object, object]]
) -> SpatialGraph:
    """Small helper to build a graph from explicit locations and edges."""
    builder = GraphBuilder()
    for label, (x, y) in locations.items():
        builder.add_vertex(label, x, y)
    builder.add_edges(edges)
    return builder.build()


def feasible(graph: SpatialGraph, members: Set[int], query: int, k: int) -> bool:
    """Check the SAC feasibility conditions (connectivity + min degree + query)."""
    if query not in members:
        return False
    if minimum_internal_degree(graph, members) < k:
        return False
    return is_connected(graph, members)


def brute_force_optimal_radius(
    graph: SpatialGraph, query: int, k: int, *, max_vertices: int = 16
) -> Optional[float]:
    """Exhaustively find the optimal SAC radius by enumerating vertex subsets.

    Only usable on very small graphs (``2^n`` subsets); returns ``None`` when
    no feasible community exists.
    """
    n = graph.num_vertices
    if n > max_vertices:
        raise ValueError(f"brute force limited to {max_vertices} vertices, graph has {n}")
    coords = graph.coordinates
    best: Optional[float] = None
    vertices = [v for v in range(n) if v != query]
    for size in range(k, n):
        for extra in combinations(vertices, size):
            members = set(extra) | {query}
            if not feasible(graph, members, query, k):
                continue
            circle = minimum_enclosing_circle(
                [(float(coords[v, 0]), float(coords[v, 1])) for v in members]
            )
            if best is None or circle.radius < best:
                best = circle.radius
    return best
