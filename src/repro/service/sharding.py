"""Parallel sharded batch execution of SAC queries.

A batch of SAC queries at one degree threshold ``k`` decomposes naturally
along the k-ĉore components the engine already labels: two queries in
different components share *no* state beyond the labelling itself — not the
candidate set, not the grid index, not the local CSR.  That makes the
component the unit of parallelism: :class:`ShardedExecutor` runs a batch's
:class:`repro.engine.plan.BatchPlan` groups as shards, publishes each
component's cached artifacts **once** into a
:class:`repro.store.SharedArrayPack` shared-memory segment, ships workers a
small :class:`ShardTask` (query ids plus the segment's name and layout), and
merges the answers.  Workers attach the segment zero-copy and cache the
reconstructed component graph across batches, so after the first batch the
per-batch dispatch cost is a few hundred bytes of task message per shard
(``ExecutorStats.bytes_dispatched`` against the once-only
``bytes_shared``).  When a batch has fewer components than workers, large
components are split into query chunks that reference the same segment, so
the whole pool participates without duplicating data.

Workers never see the full graph.  A segment carries the component's member
array, coordinate matrix, component-local CSR (both index dtypes), and the
bundle's grid-index state — the same arrays a
:class:`repro.core.base.CandidateArtifacts` bundle holds — and the worker
reconstructs a component-sized :class:`~repro.graph.SpatialGraph` plus
artifacts as views over the shared pages.  Because every SAC algorithm
confines itself to the query's k-ĉore component and the member relabelling
is monotone, the worker's answer is **bit-identical** to the serial engine
path: same member sets, same circle coordinates, same stats.
``tests/test_differential.py`` and ``tests/test_store.py`` hold the paths to
exactly that.

Degradation is graceful: any failure of the parallel machinery — a segment
the platform refuses to create, a worker killed mid-shard, a broken pool —
degrades the whole batch to the serial factorised path
(``ExecutorStats.serial_fallbacks``).
"""

from __future__ import annotations

import multiprocessing
import pickle
import weakref
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import CandidateArtifacts, QueryContext
from repro.core.result import SACResult
from repro.core.searcher import ALGORITHMS
from repro.engine import QueryEngine
from repro.engine.plan import BatchPlan, PlanGroup, execute_group, plan_batch
from repro.exceptions import InvalidParameterError, ReproError
from repro.geometry.grid import GridIndex
from repro.graph.spatial_graph import SpatialGraph
from repro.service.results import BatchResult
from repro.store.sharedmem import SharedArrayPack

#: Smallest batch (distinct planned queries) worth paying pool dispatch for;
#: smaller batches run serially.
MIN_PARALLEL_QUERIES = 2


@dataclass
class ShardTask:
    """The small per-batch worker message of the shared-memory protocol.

    Carries only the query ids, the search arguments of the shard's plan
    group, and the segment reference (name + per-array layout + grid
    geometry); the component arrays themselves live in the shared segment
    and never cross the pipe.
    """

    k: int
    algorithm: str
    params: Dict[str, float]
    queries: List[int]
    segment: Dict[str, object]


@dataclass
class ExecutorStats:
    """Work counters of one :class:`ShardedExecutor`.

    Attributes
    ----------
    batches_parallel / batches_serial:
        Batches executed through the process pool vs. entirely on the serial
        engine path (small batches, ``workers <= 1``, or after a fallback).
    shards_executed:
        Component shards shipped to workers across all parallel batches.
    queries_parallel / queries_serial:
        Queries answered on each path.
    serial_fallbacks:
        Parallel batches that degraded to the serial path after a segment,
        pool, or worker failure.
    segments_created / segments_reused:
        Shared-memory segments materialised, and shards that reused a
        previously materialised segment (the reuse is where the per-batch
        serialisation saving comes from).
    bytes_shared:
        Bytes written into shared-memory segments, counted **once** at
        segment creation.
    bytes_dispatched:
        Pickled size of the per-batch :class:`ShardTask` messages — the
        entire per-batch dispatch cost once segments exist.  Accounted as
        the cached pickled size of each segment spec plus the pickled
        per-batch remainder (k, algorithm, params, queries), so tasks are
        never re-serialised just for the counter.
        ``benchmarks/bench_store_warmstart.py`` reports it against
        ``bytes_shared``.
    """

    batches_parallel: int = 0
    batches_serial: int = 0
    shards_executed: int = 0
    queries_parallel: int = 0
    queries_serial: int = 0
    serial_fallbacks: int = 0
    segments_created: int = 0
    segments_reused: int = 0
    bytes_shared: int = 0
    bytes_dispatched: int = 0


def _pool_context() -> multiprocessing.context.BaseContext:
    """Pick the cheapest available multiprocessing start method.

    ``fork`` shares the parent's memory copy-on-write, so worker start-up
    does not re-import the library; platforms without it (Windows, and
    macOS's default) fall back to their default start method — workers then
    import :mod:`repro` and attach segments by name.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def default_pool_factory(workers: int) -> ProcessPoolExecutor:
    """Create the process pool used by :class:`ShardedExecutor`.

    A separate function so tests (and callers with unusual deployment
    constraints) can inject a different pool; anything with ``map`` (and
    ideally ``shutdown``) qualifies.  The executor keeps the pool alive
    across batches and discards it only after a failure.
    """
    return ProcessPoolExecutor(max_workers=workers, mp_context=_pool_context())


def _globalise(result: SACResult, query: int, members: np.ndarray) -> SACResult:
    """Map a worker's local-id result back into global vertex ids.

    The circle and stats are untouched — they are id-free — so the rebuilt
    result is bit-identical to what the serial path produces for ``query``.
    """
    return SACResult(
        algorithm=result.algorithm,
        query=int(query),
        k=result.k,
        members=frozenset(int(members[v]) for v in result.members),
        circle=result.circle,
        stats=dict(result.stats),
    )


#: Worker-process cache of attached segments: segment name ->
#: (pack, graph, artifacts, members).  Segments are immutable once
#: published (the parent replaces, never rewrites, them), so a cached
#: reconstruction stays valid for the lifetime of its segment.
_SEGMENT_CACHE: "OrderedDict[str, Tuple[SharedArrayPack, SpatialGraph, CandidateArtifacts, np.ndarray]]" = (
    OrderedDict()
)

#: How many attached segments one worker keeps reconstructed at once.
_SEGMENT_CACHE_LIMIT = 16


def _attach_segment(
    segment: Dict[str, object],
) -> Tuple[SharedArrayPack, SpatialGraph, CandidateArtifacts, np.ndarray]:
    """Attach (or fetch from cache) one component segment in a worker.

    The graph's adjacency rows, CSR view, coordinates, and the artifact
    bundle's grid are all **views over the shared pages** — nothing is
    copied except the member-label list; the grid is rebuilt from the
    parent's exported state rather than re-sorted.
    """
    spec = segment["pack"]
    name = str(spec["name"])  # type: ignore[index]
    entry = _SEGMENT_CACHE.get(name)
    if entry is not None:
        _SEGMENT_CACHE.move_to_end(name)
        return entry
    pack = SharedArrayPack.attach(spec)  # type: ignore[arg-type]
    members = pack["members"]
    coords = pack["coords"]
    graph = SpatialGraph.attach_arrays(
        {
            "indptr": pack["indptr"],
            "indices32": pack["indices32"],
            "indices64": pack["indices64"],
            "coords": coords,
        },
        labels=members.tolist(),
    )
    grid = GridIndex.from_state(
        coords, {**segment["grid"], "order": pack["grid_order"], "starts": pack["grid_starts"]}  # type: ignore[dict-item]
    )
    size = int(members.size)
    artifacts = CandidateArtifacts(
        candidates=frozenset(range(size)),
        candidate_list=list(range(size)),
        candidate_array=np.arange(size, dtype=np.int64),
        candidate_coords=coords,
        grid=grid,
        local_indptr=pack["indptr"],
        local_indices=pack["indices64"],
    )
    entry = (pack, graph, artifacts, members)
    _SEGMENT_CACHE[name] = entry
    while len(_SEGMENT_CACHE) > _SEGMENT_CACHE_LIMIT:
        _, (old_pack, _g, _a, _m) = _SEGMENT_CACHE.popitem(last=False)
        old_pack.close()
    return entry


def _run_shard_task(task: ShardTask) -> List[Tuple[int, SACResult]]:
    """Worker entry point: attach the segment, answer the shard, return.

    Each query pays only its distance vector plus the algorithm's own
    search; the component graph and artifacts come from the segment cache.
    """
    _pack, graph, artifacts, members = _attach_segment(task.segment)
    run = ALGORITHMS[task.algorithm]
    answers: List[Tuple[int, SACResult]] = []
    for query in task.queries:
        local = int(np.searchsorted(members, query))
        context = QueryContext(graph, local, task.k, artifacts=artifacts)
        result = run(graph, local, task.k, context=context, **task.params)
        answers.append((query, _globalise(result, query, members)))
    return answers


class ShardedExecutor:
    """Execute SAC query batches sharded by k-ĉore component.

    Parameters
    ----------
    engine:
        The :class:`~repro.engine.QueryEngine` (or
        :class:`~repro.engine.IncrementalEngine`) whose cached labellings and
        artifact bundles supply the shard segments, and which answers the
        batch serially when parallel execution is unavailable.
    workers:
        Process-pool size.  ``None`` or values below 2 disable the pool and
        run every batch on the serial factorised path.
    pool_factory:
        Callable ``workers -> pool`` (anything with ``map``; ``shutdown`` is
        honoured if present).  The pool is created lazily on the first
        parallel batch, reused across batches, and discarded after any pool
        failure; tests inject failing pools here to exercise the serial
        fallback.

    Segment lifecycle: a segment is keyed by ``(k, representative)`` and
    stamped with the component's version counter; the engine bumps the
    version for exactly the mutations that change the component's arrays
    (see :meth:`repro.engine.QueryEngine.component_version`), so a bumped
    version retires the old segment and publishes a fresh one — workers can
    never read stale artifacts.  All segments are destroyed by
    :meth:`close` and, failing that, by a garbage-collection/interpreter-exit
    finalizer on each segment, so no shared memory outlives the process even
    on abnormal exit.

    Examples
    --------
    >>> executor = ShardedExecutor(engine, workers=2)       # doctest: +SKIP
    >>> batch = executor.run(queries, k=4)                  # doctest: +SKIP
    """

    def __init__(
        self,
        engine: QueryEngine,
        *,
        workers: Optional[int] = None,
        pool_factory: Callable[[int], object] = default_pool_factory,
    ) -> None:
        if workers is not None and (not isinstance(workers, int) or workers < 0):
            raise InvalidParameterError(
                f"workers must be None or a non-negative integer, got {workers!r}"
            )
        self.engine = engine
        self.workers = int(workers) if workers else 0
        self.pool_factory = pool_factory
        self.stats = ExecutorStats()
        self._pool = None
        self._pool_finalizer: Optional[weakref.finalize] = None
        # (k, representative) ->
        #   (component version, pack, task segment spec, pickled spec bytes)
        self._segments: Dict[
            Tuple[int, int], Tuple[int, SharedArrayPack, Dict[str, object], int]
        ] = {}

    # ------------------------------------------------------------------ pool
    @staticmethod
    def _shutdown_pool(pool) -> None:
        """Best-effort shutdown of a pool (ducks pools without ``shutdown``)."""
        shutdown = getattr(pool, "shutdown", None)
        if shutdown is not None:
            try:
                shutdown(wait=True)
            except Exception:  # pragma: no cover - best-effort teardown
                pass

    def _get_pool(self):
        """Return the live pool, creating it lazily on first parallel use.

        A ``weakref.finalize`` guard shuts the pool down when the executor is
        garbage-collected or the interpreter exits, so library users who
        never call :meth:`close` still get a clean worker teardown.
        """
        if self._pool is None:
            self._pool = self.pool_factory(self.workers)
            self._pool_finalizer = weakref.finalize(
                self, self._shutdown_pool, self._pool
            )
        return self._pool

    def close(self) -> None:
        """Discard the pool and destroy every published shared-memory segment.

        Both are recreated lazily on the next parallel batch, so closing an
        executor between batches is always safe.
        """
        pool, self._pool = self._pool, None
        if self._pool_finalizer is not None:
            self._pool_finalizer.detach()
            self._pool_finalizer = None
        if pool is not None:
            self._shutdown_pool(pool)
        self._release_segments()

    def _release_segments(self) -> None:
        """Unlink every shared-memory segment this executor published."""
        segments, self._segments = self._segments, {}
        for _version, pack, _spec, _nbytes in segments.values():
            pack.unlink()

    # ------------------------------------------------------------------- API
    def run(
        self,
        queries: Sequence[int],
        k: int,
        *,
        algorithm: str = "appfast",
        **params: float,
    ) -> BatchResult:
        """Answer every query of ``queries`` at threshold ``k``.

        Resolves the batch with :func:`repro.engine.plan.plan_batch` and
        executes it via :meth:`run_plan`: out-of-range vertices land in
        ``errors``, vertices outside every k-core in ``failed``, and the
        merged results are bit-identical whichever path executes them.
        """
        return self.run_plan(
            plan_batch(self.engine, queries, k, algorithm=algorithm, params=params)
        )

    def run_plan(self, plan: BatchPlan) -> BatchResult:
        """Execute a resolved :class:`~repro.engine.plan.BatchPlan`.

        The executor's half of the three-stage pipeline: the plan already
        classified every occurrence (errors, failures, duplicates, cache
        hits), so this method only executes the surviving groups — on the
        pool when ``workers >= 2``, ``k > 1`` (a ``k = 1`` answer is one
        nearest-neighbour lookup, never worth a shard), and the batch has at
        least :data:`MIN_PARALLEL_QUERIES` queries; serially through the
        factorised group executor otherwise or after any failure of the
        parallel machinery.  Each group runs under its own effective
        algorithm and parameters (:meth:`PlanGroup.effective_algorithm`).
        Plan-resolved answers (``plan.cached``) are merged into the returned
        :class:`BatchResult`, whose ``deduped`` / ``plan_groups`` fields
        carry the factorisation accounting.
        """
        start = perf_counter()
        batch = BatchResult()
        batch.shared_preprocessing_seconds = plan.planning_seconds
        batch.errors.update(plan.error_messages())
        batch.failed.extend(plan.failed)
        batch.deduped = plan.deduped
        batch.plan_groups = len(plan.groups)
        batch.cache_hits = plan.cache_hits

        eligible = plan.planned
        if plan.k > 1 and self.workers >= 2 and eligible >= MIN_PARALLEL_QUERIES:
            try:
                self._run_parallel(plan, batch)
                self.stats.batches_parallel += 1
                self.stats.queries_parallel += eligible
            except ReproError:
                # Deterministic per-query errors (bad algorithm parameters)
                # raised inside a worker are the caller's to see — the
                # serial path would raise exactly the same.
                raise
            except Exception:
                # Broken pool, killed worker, unpublishable or unattachable
                # segment: discard the pool and segments and degrade to the
                # serial path rather than failing the batch.
                self.close()
                self.stats.serial_fallbacks += 1
                self._run_serial(plan, batch)
        elif eligible:
            self._run_serial(plan, batch)
        batch.results.update(plan.cached)
        batch.elapsed_seconds = plan.planning_seconds + (perf_counter() - start)
        return batch

    def _run_serial(self, plan: BatchPlan, batch: BatchResult) -> None:
        """Answer the plan's groups in-process via the factorised executor."""
        self.stats.batches_serial += 1
        for group in plan.groups:
            batch.results.update(
                execute_group(self.engine, plan, group, failed=batch.failed)
            )
            self.stats.queries_serial += len(group.queries)

    # ----------------------------------------------------------------- shards
    def _shard_chunks(
        self, groups: Sequence[PlanGroup]
    ) -> List[Tuple[PlanGroup, List[int]]]:
        """Split the plan groups into worker-sized query chunks.

        When the batch has fewer groups than workers — the common
        one-giant-component case — a group's query list is split across
        several chunks (proportionally to its share of the batch) so the
        whole pool participates.  Chunks of one group reference the same
        segment; chunks of distinct groups are never merged.
        """
        eligible = sum(len(group.queries) for group in groups)
        chunks_out: List[Tuple[PlanGroup, List[int]]] = []
        for group in groups:
            queries = list(group.queries)
            chunks = 1
            if self.workers >= 2 and len(groups) < self.workers and eligible:
                chunks = max(1, round(self.workers * len(queries) / eligible))
                chunks = min(chunks, len(queries))
            size = -(-len(queries) // chunks)  # ceil division
            for start in range(0, len(queries), size):
                chunks_out.append((group, queries[start : start + size]))
        return chunks_out

    def _segment_spec(self, k: int, component: int) -> Tuple[Dict[str, object], int]:
        """Return (publishing if needed) one component's ``(spec, spec bytes)``.

        Segments are immutable once published: when the component's version
        counter moves — the engine patched or dropped its bundle — the old
        segment is unlinked and a fresh one is created, so attached workers
        (which cache by segment name) can never serve stale arrays.  The
        returned byte count is the spec's pickled size, measured once at
        publication for the ``bytes_dispatched`` accounting.
        """
        representative = self.engine.component_representative(k, component)
        version = self.engine.component_version(k, representative)
        key = (k, representative)
        entry = self._segments.get(key)
        if entry is not None:
            held_version, pack, spec, spec_bytes = entry
            if held_version == version:
                self.stats.segments_reused += 1
                return spec, spec_bytes
            pack.unlink()
            del self._segments[key]
        artifacts = self.engine.component_artifacts(k, component)
        grid_state = artifacts.grid.export_state()
        pack = SharedArrayPack.create(
            {
                "members": artifacts.candidate_array,
                "coords": artifacts.candidate_coords,
                "indptr": artifacts.local_indptr,
                "indices64": artifacts.local_indices,
                "indices32": artifacts.local_indices.astype(np.int32),
                "grid_order": grid_state["order"],
                "grid_starts": grid_state["starts"],
            }
        )
        spec: Dict[str, object] = {
            "pack": pack.spec(),
            "grid": {
                name: grid_state[name]
                for name in ("min_x", "min_y", "cell", "cols", "rows")
            },
        }
        spec_bytes = len(pickle.dumps(spec))
        self._segments[key] = (version, pack, spec, spec_bytes)
        self.stats.segments_created += 1
        self.stats.bytes_shared += pack.nbytes
        return spec, spec_bytes

    def _run_parallel(self, plan: BatchPlan, batch: BatchResult) -> None:
        """Dispatch the plan's groups to the pool as shared-memory shard tasks."""
        tasks: List[ShardTask] = []
        dispatched = 0
        for group, queries in self._shard_chunks(plan.groups):
            spec, spec_bytes = self._segment_spec(plan.k, group.component)
            task = ShardTask(
                k=plan.k,
                algorithm=group.effective_algorithm(plan),
                params=dict(group.effective_params(plan)),
                queries=queries,
                segment=spec,
            )
            dispatched += spec_bytes + len(
                pickle.dumps((task.k, task.algorithm, task.params, task.queries))
            )
            tasks.append(task)
        self.stats.bytes_dispatched += dispatched
        for answers in self._get_pool().map(_run_shard_task, tasks):
            for query, result in answers:
                batch.results[query] = result
        self.stats.shards_executed += len(tasks)
