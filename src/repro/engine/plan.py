"""Batch query planning: group, dedupe, and factorise shared work.

Every batch surface before this module answered its queries one at a time:
the engine's caches removed the *per-graph* redundancy (core decomposition,
labellings, per-component artifacts), but a Table-4 batch whose queries pile
into a handful of ``(component, k)`` groups still paid the plan-free costs
once per query — a cache probe with its own ``component_of`` walk, a bundle
dictionary lookup, a one-row distance computation, duplicate queries
answered from scratch.  Factorised query evaluation (FDB in PAPERS.md) says
to lift that shared work to the *group*: decide once per batch what work is
shared, then execute each unit of shared work exactly once.

This module makes that decision an explicit, inspectable object — a
:class:`BatchPlan` — produced by :func:`plan_batch` in two resolutions:

1. **classify** every occurrence (unknown vertex -> error, outside every
   k-ĉore -> failed, otherwise eligible) and **dedupe** repeated query
   vertices (one answer is computed and fanned back out);
2. **group** the distinct eligible queries by their k-ĉore component,
   stamping each group with the component's representative and artifact
   version — the stable keys the cache and snapshot layers already
   share.

A caller holding an answer cache then prunes each group's cache hits with
:func:`resolve_cached` once it knows the algorithm the group runs at, so a
fully warmed batch never touches the executor at all.

:func:`execute_group` then answers one group's surviving queries with the
component's artifacts fetched **once** and the query-to-candidate distance
matrix computed in one vectorised pass (blocked to bound memory); each
query's row is handed to its :class:`~repro.core.base.QueryContext`, so the
per-query arithmetic — and therefore the answers — are bit-identical to the
serial path.  ``tests/test_plan.py`` holds every execution surface to that.

The planner is deliberately engine-agnostic plumbing: it needs only the
``component_labels`` / ``component_representative`` / ``component_version``
/ ``component_artifacts`` surface of :class:`repro.engine.QueryEngine`, and
never imports the service layer, so ``engine -> plan`` stays a leaf edge in
the import graph.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import QueryContext
from repro.core.result import SACResult
from repro.core.searcher import ALGORITHMS
from repro.exceptions import (
    InvalidParameterError,
    NoCommunityError,
    ReproError,
    VertexNotFoundError,
)

#: Upper bound on the elements of one blocked distance-matrix slab.  A group
#: of ``Q`` queries over ``N`` candidates wants a ``(Q, N)`` matrix; blocking
#: the query rows keeps peak extra memory near this many float64s while the
#: arithmetic stays elementwise — hence bit-identical — regardless of the
#: block split.
_DISTANCE_BLOCK_ELEMENTS = 1 << 22


@dataclass
class PlanGroup:
    """One ``(component, k)`` execution group of a :class:`BatchPlan`.

    Attributes
    ----------
    component:
        Component id in the engine's current labelling for the plan's ``k``.
    representative:
        The component's minimum member vertex — the stable key shared with
        the bundle cache, the answer cache, and the snapshot store.
    version:
        The component's artifact version at plan time
        (:meth:`repro.engine.QueryEngine.component_version`); group-level
        cache fills are stamped with it.
    queries:
        The distinct query vertices to compute, in first-seen batch order.
        Cache-hit pruning removes entries; a group can end up empty.
    algorithm / params:
        Optional per-group overrides of the plan-wide search arguments.
        ``None`` (the default) inherits the plan's; the SLO ladder
        (:mod:`repro.service.slo`) sets them when a deadline buys this
        group a different rung than the batch requested.
    """

    component: int
    representative: int
    version: int
    queries: List[int] = field(default_factory=list)
    algorithm: Optional[str] = None
    params: Optional[Dict[str, float]] = None

    def effective_algorithm(self, plan: "BatchPlan") -> str:
        """The algorithm this group executes under (override or plan-wide)."""
        return self.algorithm if self.algorithm is not None else plan.algorithm

    def effective_params(self, plan: "BatchPlan") -> Dict[str, float]:
        """The parameters this group executes under (override or plan-wide)."""
        return self.params if self.params is not None else plan.params


@dataclass
class BatchPlan:
    """The resolved execution plan of one batch.

    Produced by :func:`plan_batch`; consumed by
    :meth:`repro.service.SACService.submit_batch` and the
    :func:`repro.service.sharding.run_plan` it dispatches to.
    Everything a result assembler needs to restore per-occurrence semantics
    is here: the full submission ``order``, the per-query classification,
    and the answers already resolved at plan time.

    Attributes
    ----------
    k / algorithm / params:
        The batch-wide search arguments (already validated).
    order:
        Every submitted query vertex, one entry per occurrence, in
        submission order.
    groups:
        The :class:`PlanGroup` list, ascending by component id — the order
        the serial executor visits them.
    cached:
        Query vertex -> answer resolved from the answer cache
        (:func:`resolve_cached`) before execution.
    failed:
        Queries outside every k-ĉore, one entry per occurrence, in
        submission order (the legacy ``BatchResult.failed`` contract).
    errors:
        Query vertex -> the exception that makes it unanswerable (an
        unknown vertex index); :meth:`error_messages` renders them.
    cache_hits:
        Occurrences answered from the cache (duplicates of a hit count,
        matching the pre-plan service accounting).
    deduped:
        Occurrences skipped because an identical eligible query already
        appeared earlier in the batch — the fan-out saving.
    planning_seconds:
        Wall-clock cost of building this plan (includes the labelling when
        it was not already cached).
    """

    k: int
    algorithm: str
    params: Dict[str, float]
    order: List[int] = field(default_factory=list)
    groups: List[PlanGroup] = field(default_factory=list)
    cached: Dict[int, SACResult] = field(default_factory=dict)
    failed: List[int] = field(default_factory=list)
    errors: Dict[int, ReproError] = field(default_factory=dict)
    cache_hits: int = 0
    deduped: int = 0
    planning_seconds: float = 0.0

    @property
    def planned(self) -> int:
        """Distinct queries left for the executor after dedupe and cache."""
        return sum(len(group.queries) for group in self.groups)

    def error_messages(self) -> Dict[int, str]:
        """The ``errors`` mapping rendered to strings (BatchResult form)."""
        return {query: str(error) for query, error in self.errors.items()}


def plan_batch(
    engine,
    queries: Sequence[int],
    k: int,
    *,
    algorithm: str = "appfast",
    params: Optional[Dict[str, float]] = None,
) -> BatchPlan:
    """Resolve a batch into a :class:`BatchPlan`.

    Validates ``algorithm`` and ``k`` up front (raising
    :class:`InvalidParameterError` exactly as a single search would),
    classifies every occurrence, and groups the distinct eligible queries by
    k-ĉore component.  Planning mutates nothing but the engine's planning
    counters: executing the plan (or dropping it) is the caller's move.
    """
    if algorithm not in ALGORITHMS:
        raise InvalidParameterError(
            f"unknown algorithm {algorithm!r}; choose from {sorted(ALGORITHMS)}"
        )
    params = dict(params or {})
    start = perf_counter()
    labels, _ = engine.component_labels(k)  # validates k
    plan = BatchPlan(k=int(k), algorithm=algorithm, params=params)
    num_vertices = engine.graph.num_vertices

    groups: Dict[int, PlanGroup] = {}
    # Distinct-query classification from the first pass: which bucket each
    # already-seen vertex landed in decides what its duplicates cost.
    eligible: set = set()
    failed: set = set()
    for query in queries:
        query = int(query)
        plan.order.append(query)
        if query in eligible:
            plan.deduped += 1
            continue
        if query in failed:
            # "No community" stays a per-occurrence outcome, like the
            # pre-plan executor reported it.
            plan.failed.append(query)
            continue
        if query in plan.errors:
            continue
        if not 0 <= query < num_vertices:
            plan.errors[query] = VertexNotFoundError(query)
            continue
        component = int(labels[query])
        if component < 0:
            failed.add(query)
            plan.failed.append(query)
            continue
        eligible.add(query)
        group = groups.get(component)
        if group is None:
            representative = engine.component_representative(k, component)
            group = PlanGroup(
                component=component,
                representative=representative,
                version=engine.component_version(k, representative),
            )
            groups[component] = group
        group.queries.append(query)

    plan.groups = [groups[component] for component in sorted(groups) if groups[component].queries]

    stats = getattr(engine, "stats", None)
    if stats is not None:
        stats.batches_planned += 1
        stats.plan_groups += len(plan.groups)
        stats.queries_deduped += plan.deduped
    plan.planning_seconds = perf_counter() - start
    return plan


def resolve_cached(
    engine,
    plan: BatchPlan,
    group: PlanGroup,
    hits: Dict[int, SACResult],
    misses: Sequence[int],
) -> None:
    """Answer ``group``'s cache ``hits`` at plan level; the group keeps ``misses``.

    The answers move to ``plan.cached``, and every occurrence of a hit
    counts as a cache hit rather than a dedupe — in the plan and in the
    engine's planning counters alike, where a group left with no misses
    also stops counting as a plan group.  The caller drops emptied groups
    from ``plan.groups`` before executing the plan.
    """
    group.queries = list(misses)
    if not hits:
        return
    occurrences = Counter(plan.order)
    duplicates = sum(occurrences[query] - 1 for query in hits)
    plan.cached.update(hits)
    plan.cache_hits += sum(occurrences[query] for query in hits)
    plan.deduped -= duplicates
    stats = getattr(engine, "stats", None)
    if stats is not None:
        stats.queries_deduped -= duplicates
        if not group.queries:
            stats.plan_groups -= 1


def _group_distances(coords: np.ndarray, query_coords: np.ndarray) -> np.ndarray:
    """Distance matrix ``(query row, candidate)`` in one vectorised pass.

    Elementwise the same subtract + ``hypot`` the per-query
    :class:`~repro.core.base.QueryContext` constructor performs, just
    broadcast over the group's query rows — so every row is bit-identical
    to the vector the serial path computes for that query.
    """
    deltas = coords[np.newaxis, :, :] - query_coords[:, np.newaxis, :]
    return np.hypot(deltas[:, :, 0], deltas[:, :, 1])


def execute_group(
    engine,
    plan: BatchPlan,
    group: PlanGroup,
    *,
    errors: Optional[Dict[int, str]] = None,
    failed: Optional[List[int]] = None,
) -> Dict[int, SACResult]:
    """Answer one plan group with the shared work paid once.

    Fetches the component's artifact bundle a single time, computes the
    query-to-candidate distance matrix in blocked vectorised slabs, and runs
    the algorithm per query on a context fed its pre-computed distance row.
    ``k == 1`` groups bypass artifacts entirely (the algorithms answer them
    with the nearest-neighbour shortcut, mirroring
    :meth:`repro.engine.QueryEngine.search`).

    Per-query execution errors propagate when ``errors`` is ``None`` (the
    single-query contract) or are recorded there as ``query -> message``;
    queries whose community evaporated since planning land in ``failed``
    when a list is supplied.

    A group carrying an :attr:`PlanGroup.algorithm` / :attr:`PlanGroup.params`
    override executes under those instead of the plan-wide arguments — the
    hook the SLO ladder uses to answer each group at the rung its deadline
    affords.
    """
    algorithm = group.effective_algorithm(plan)
    group_params = group.effective_params(plan)
    run = ALGORITHMS[algorithm]
    graph = engine.graph
    stats = getattr(engine, "stats", None)
    results: Dict[int, SACResult] = {}

    def record(query: int, error: ReproError) -> None:
        if errors is None:
            raise error
        errors[query] = str(error)

    if plan.k == 1:
        for query in group.queries:
            try:
                results[query] = run(graph, query, 1, **group_params)
            except NoCommunityError as error:
                if failed is None:
                    raise error  # pragma: no cover - labels admitted the query
                failed.append(query)  # pragma: no cover - labels admitted it
            except (InvalidParameterError, VertexNotFoundError) as error:
                record(query, error)
            if stats is not None:
                stats.queries_served += 1
                stats.queries_factorised += 1
        return results

    artifacts = engine.component_artifacts(plan.k, group.component)
    coords = artifacts.candidate_coords
    queries_arr = np.asarray(group.queries, dtype=np.int64)
    query_coords = graph.coordinates[queries_arr]
    block = max(1, _DISTANCE_BLOCK_ELEMENTS // max(1, coords.shape[0]))
    for offset in range(0, len(group.queries), block):
        distances = _group_distances(coords, query_coords[offset : offset + block])
        for row, query in enumerate(group.queries[offset : offset + block]):
            try:
                context = QueryContext(
                    graph,
                    query,
                    plan.k,
                    artifacts=artifacts,
                    distance_array=distances[row],
                )
                if stats is not None:
                    stats.contexts_served += 1
                results[query] = run(
                    graph, query, plan.k, context=context, **group_params
                )
            except NoCommunityError as error:  # pragma: no cover - labels admitted it
                if failed is None:
                    raise error
                failed.append(query)
            except (InvalidParameterError, VertexNotFoundError) as error:
                record(query, error)
            if stats is not None:
                stats.queries_served += 1
                stats.queries_factorised += 1
    return results
