"""``AppAcc`` — the (1 + εA)-approximation algorithm (Section 4.4, Algorithm 4).

AppAcc approximates the *centre* of the optimal MCC instead of approximating
a query-centred radius.  Corollary 4 places the optimal centre inside
``O(q, gamma)``; the square bounding that circle is decomposed into a region
quadtree whose cell centres ("anchor points") are probed level by level.  For
every surviving anchor a binary search finds the smallest anchor-centred
radius that still contains a feasible solution.  Two pruning rules (distance
to the query, and recorded infeasible radii) drop whole subtrees.  With cell
width ``beta = delta * epsilon_a / (sqrt(2) * (2 + epsilon_a))`` and binary
search tolerance ``alpha' = delta * epsilon_a / 4`` the returned community's
MCC radius is within ``(1 + epsilon_a)`` of optimal (Lemma 7).

Each anchor's probes run through one :class:`~repro.core.base.AnchorProbe`:
one grid query at the anchor's largest radius, whose distance order answers
every smaller radius of the binary search, and a peel + BFS only for inside
sets the query has not seen at any anchor.  The decisions, answers and
``feasibility_checks`` are those of one fresh probe per radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Collection, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.appfast import app_fast
from repro.core.base import (
    AnchorProbe,
    QueryContext,
    nearest_neighbor_community,
    resolve_context,
    validate_query,
)
from repro.core.result import SACResult
from repro.exceptions import InvalidParameterError
from repro.geometry.mec import minimum_enclosing_circle
from repro.geometry.quadtree import QuadtreeNode, RegionQuadtree
from repro.graph.spatial_graph import SpatialGraph

_SQRT2_OVER_2 = math.sqrt(2.0) / 2.0


@dataclass
class AppAccState:
    """Internal state shared between AppAcc and Exact+.

    Exact+ re-uses AppAcc's traversal: it needs the best community found, the
    surviving anchor points of the last quadtree level, the final cell width,
    and the candidate set restricted to ``O(q, 2 * gamma)``.  The community
    is kept as the probe handed it over: a sorted array or
    :class:`~repro.core.result.Members`.
    """

    community: Collection[int]
    radius: float
    delta: float
    gamma: float
    final_beta: float
    surviving_anchors: List[Tuple[float, float]] = field(default_factory=list)
    candidates_near_query: Set[int] = field(default_factory=set)
    anchors_probed: int = 0
    anchors_pruned: int = 0


def app_acc(
    graph: SpatialGraph,
    query: int,
    k: int,
    epsilon_a: float = 0.5,
    *,
    context: Optional[QueryContext] = None,
) -> SACResult:
    """Run AppAcc and return the (1 + εA)-approximate SAC.

    Parameters
    ----------
    graph, query, k:
        As in :func:`repro.core.appinc.app_inc`.
    epsilon_a:
        Accuracy parameter in ``(0, 1)``.  Smaller values probe more anchor
        points and produce tighter circles.
    context:
        Optional pre-built :class:`QueryContext` (e.g. from
        :class:`repro.engine.QueryEngine`); results are identical either way.

    Returns
    -------
    SACResult
        Community ``Γ`` whose MCC radius is at most ``(1 + εA) * ropt``.
        Stats record ``delta``, ``gamma``, the number of anchors probed and
        pruned, and the final anchor-cell width.
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
        return SACResult("appacc", query, k, members, circle, {"epsilon_a": epsilon_a})

    context = resolve_context(graph, query, k, context)
    state = run_app_acc(context, epsilon_a)
    result = context.make_result(
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
    return result


def run_app_acc(context: QueryContext, epsilon_a: float) -> AppAccState:
    """Execute the AppAcc search on an existing :class:`QueryContext`.

    Returns the full :class:`AppAccState` so that ``Exact+`` can reuse the
    anchor bookkeeping.  The best community in the state is guaranteed
    feasible and its MCC radius is within ``(1 + epsilon_a)`` of optimal.
    """
    graph = context.graph
    qx, qy = context.query_point.x, context.query_point.y

    # Step 1: AppFast with epsilon_f = 0 gives Phi, delta, and gamma.  The
    # inner run shares this context's candidate artifacts but keeps its own
    # probe counter, exactly like a standalone AppFast invocation.
    seed = app_fast(graph, context.query, context.k, epsilon_f=0.0, context=context.fresh())
    delta = float(seed.stats["delta"])
    gamma = float(seed.radius)
    best_community = seed.members
    best_radius = gamma

    if gamma <= 0.0 or delta <= 0.0:
        # All community members share the query's location; the zero-radius
        # circle is already optimal.
        return AppAccState(
            community=best_community,
            radius=best_radius,
            delta=delta,
            gamma=gamma,
            final_beta=0.0,
            surviving_anchors=[(qx, qy)],
            candidates_near_query=set(best_community),
        )

    # By Corollary 2 the optimal solution lies in O(q, 2 * gamma).
    candidates_near_query = set(context.vertices_in_circle(qx, qy, 2.0 * gamma))

    min_beta = delta * epsilon_a / (math.sqrt(2.0) * (2.0 + epsilon_a))
    alpha_prime = delta * epsilon_a / 4.0
    max_iterations = 64 + len(context.candidates)

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

    # The paper descends until leaf cells have width in (beta/2, beta] for the
    # target beta, so traversal continues while the level width is at least
    # half the target (the last processed level then has width <= min_beta).
    for level in tree.levels_until(min_beta / 2.0):
        beta = tree.current_width
        state.final_beta = beta
        slack = _SQRT2_OVER_2 * beta
        level_anchors: List[Tuple[float, float]] = []
        for node in level:
            px, py = node.anchor
            # Pruning1: the cell cannot contain the optimal centre.
            if graph.distance_to_point(context.query, px, py) > state.radius + slack:
                node.pruned = True
                state.anchors_pruned += 1
                continue
            probe_radius = state.radius + slack
            state.anchors_probed += 1
            probe = AnchorProbe(context, px, py, probe_radius)
            feasible = probe(probe_radius)
            if feasible is None:
                # Pruning2: if the optimal centre were inside this cell, the
                # circle O(anchor, ropt + slack) ⊆ O(anchor, probe_radius)
                # would contain the optimal community, contradicting the
                # infeasibility just observed — so the whole subtree is safe
                # to drop.
                node.pruned = True
                state.anchors_pruned += 1
                continue
            level_anchors.append(node.anchor)
            members = _binary_search_anchor(
                probe, probe_radius, delta, alpha_prime, feasible, max_iterations
            )
            mcc = context.mcc_of(members)
            if mcc.radius < state.radius:
                state.radius = mcc.radius
                state.community = members
        if level_anchors:
            last_level_anchors = level_anchors

    state.surviving_anchors = last_level_anchors
    return state


def _binary_search_anchor(
    probe: AnchorProbe,
    upper: float,
    delta: float,
    alpha_prime: float,
    initial_members: np.ndarray,
    max_iterations: int,
) -> np.ndarray:
    """Binary search the smallest feasible radius centred at ``probe``'s anchor.

    ``initial_members`` is the feasible community already found for the
    ``upper`` radius, so the search always has a fallback.  Returns the
    members found at the smallest feasible radius probed.
    """
    lower = delta / 2.0  # Lemma 3: ropt >= delta / 2, no anchor can do better.
    best_members = initial_members
    iterations = 0

    while upper - lower > alpha_prime and iterations < max_iterations:
        iterations += 1
        radius = (lower + upper) / 2.0
        members = probe(radius)
        if members is not None:
            best_members = members
            upper = radius
        else:
            lower = radius
    return best_members
