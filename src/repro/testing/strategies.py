"""Shared hypothesis strategies and random-graph generators for the tests.

Before this module existed, every property-based test file grew its own
graph and point generators (``test_kcore_decomposition`` drew raw edge
lists, ``test_geometry_mec`` drew point clouds, ``test_incremental_engine``
rolled random spatial graphs with a numpy RNG).  Centralising them keeps
the distributions consistent across the suite — a shrinking counterexample
found by one test file reproduces under another — and gives new harnesses
(notably ``tests/test_differential.py``) one import to build on.

This module imports :mod:`hypothesis`, a test-only dependency; production
code must never import it (``repro.testing`` itself stays hypothesis-free).
"""

from __future__ import annotations

from typing import List, Set, Tuple

import numpy as np
from hypothesis import strategies as st

from repro.graph.builder import GraphBuilder
from repro.graph.spatial_graph import SpatialGraph

__all__ = [
    "coordinates",
    "points",
    "point_lists",
    "clustered_points",
    "edge_lists",
    "normalize_edges",
    "spatial_graphs",
    "random_spatial_graph",
]


def coordinates(
    min_value: float = -100.0, max_value: float = 100.0
) -> st.SearchStrategy:
    """Strategy for one finite coordinate component in ``[min, max]``."""
    return st.floats(
        min_value=min_value, max_value=max_value, allow_nan=False, allow_infinity=False
    )


def points(
    min_value: float = -100.0, max_value: float = 100.0
) -> st.SearchStrategy:
    """Strategy for one 2-D point as an ``(x, y)`` tuple."""
    component = coordinates(min_value, max_value)
    return st.tuples(component, component)


def point_lists(
    min_size: int = 1, max_size: int = 40, **bounds: float
) -> st.SearchStrategy:
    """Strategy for a list of 2-D points (the MEC/grid test workhorse)."""
    return st.lists(points(**bounds), min_size=min_size, max_size=max_size)


def clustered_points() -> st.SearchStrategy:
    """Strategy for a unit-box point that often repeats or lines up with others.

    Draws come from a 5 × 5 lattice (duplicate points, and collinear runs
    along its rows, columns and diagonals), from the diagonal ``y = x``, from
    the horizontal line ``y = 0.5``, or freely from the box.  Geometry code
    meets its ties here: equal distances, points exactly on a circle, and
    offsets along one axis only.
    """
    lattice = st.sampled_from([i / 4.0 for i in range(5)])
    free = coordinates(0.0, 1.0)
    return st.one_of(
        st.tuples(lattice, lattice),
        free.map(lambda t: (t, t)),
        st.tuples(free, st.just(0.5)),
        points(0.0, 1.0),
    )


def edge_lists(
    max_vertex: int = 14, min_size: int = 1, max_size: int = 60
) -> st.SearchStrategy:
    """Strategy for a raw undirected edge list over ``0..max_vertex``.

    Deliberately raw: duplicates, self-loops, and both orientations are all
    possible, exactly as the k-core property tests have always drawn them —
    run :func:`normalize_edges` before building a graph.
    """
    vertex = st.integers(min_value=0, max_value=max_vertex)
    return st.lists(st.tuples(vertex, vertex), min_size=min_size, max_size=max_size)


def normalize_edges(
    edge_list: List[Tuple[int, int]]
) -> List[Tuple[int, int]]:
    """Canonicalise a raw edge list: drop self-loops, dedupe, sort ``u < v``."""
    return sorted({(min(u, v), max(u, v)) for u, v in edge_list if u != v})


@st.composite
def spatial_graphs(
    draw,
    min_vertices: int = 4,
    max_vertices: int = 15,
    max_extra_edges: int = 60,
    point_strategy: st.SearchStrategy | None = None,
) -> SpatialGraph:
    """Strategy for a small random :class:`SpatialGraph` with unit-box coords.

    A spanning path keeps every vertex connected to something (no isolated
    vertices, which most SAC properties would vacuously skip); extra edges
    drawn on top control the density.  Coordinates are drawn in the unit
    box, matching the synthetic datasets, from ``point_strategy`` when given
    (e.g. :func:`clustered_points`).
    """
    n = draw(st.integers(min_value=min_vertices, max_value=max_vertices))
    extra = draw(edge_lists(max_vertex=n - 1, min_size=0, max_size=max_extra_edges))
    edges = sorted(
        {(v, v + 1) for v in range(n - 1)} | set(normalize_edges(extra))
    )
    coords = draw(
        st.lists(
            point_strategy if point_strategy is not None else points(0.0, 1.0),
            min_size=n,
            max_size=n,
        )
    )
    builder = GraphBuilder()
    for v in range(n):
        builder.add_vertex(v, float(coords[v][0]), float(coords[v][1]))
    builder.add_edges(edges)
    return builder.build()


def random_spatial_graph(
    rng: np.random.Generator, n: int, target_edges: int
) -> Tuple[SpatialGraph, Set[Tuple[int, int]]]:
    """Build a connected-ish random spatial graph plus its edge set.

    A spanning path guarantees no isolated vertices, then random extra edges
    are added until ``target_edges`` distinct edges exist.  Returns the graph
    and the mutable edge set, which mutation tests edit in lockstep with
    ``add_edge``/``remove_edge`` calls.  This is the numpy-seeded workhorse
    behind the incremental-engine and differential property tests (hypothesis
    supplies the seed, numpy the bulk randomness — far cheaper to draw than a
    fully hypothesis-generated graph of the same size).
    """
    coords = rng.uniform(0.0, 1.0, size=(n, 2))
    edges: Set[Tuple[int, int]] = set()
    for v in range(n - 1):
        edges.add((v, v + 1))
    while len(edges) < target_edges:
        u, v = (int(a) for a in rng.integers(0, n, size=2))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    builder = GraphBuilder()
    for v in range(n):
        builder.add_vertex(v, float(coords[v, 0]), float(coords[v, 1]))
    builder.add_edges(sorted(edges))
    return builder.build(), edges
