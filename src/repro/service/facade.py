"""The :class:`SACService` facade — the one-stop SAC serving surface.

Everything the serving layer offers behind a single object: a shared
:class:`~repro.engine.QueryEngine` (or
:class:`~repro.engine.IncrementalEngine` for dynamic graphs), the planned
in-process batch executor (:func:`repro.service.sharding.run_plan`), and
an :class:`~repro.service.cache.AnswerCache` that persists answers across
batches.  :meth:`SACService.submit_batch` is the library's
one batch entry point: :class:`repro.dynamic.SACTracker`, the standing-query
registry, the daemon, and the CLI ``batch`` subcommand all answer through
it.

The layering keeps one invariant: every path — single query, planned
batch, cache hit — returns bit-identical
:class:`~repro.core.result.SACResult`\\ s for the same graph state.  The
cache can only make that claim because invalidation is driven by the
engine's component-version counters (see :mod:`repro.service.cache`), which
the incremental engine bumps for exactly the components each mutation
touches.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.core.result import SACResult
from repro.core.searcher import ALGORITHMS
from repro.engine import EngineStats, IncrementalEngine, QueryEngine
from repro.engine.plan import (
    BatchPlan,
    PlanGroup,
    execute_group,
    plan_batch,
    resolve_cached,
)
from repro.exceptions import InvalidParameterError, NoCommunityError
from repro.graph.spatial_graph import SpatialGraph
from repro.service.cache import AnswerCache, CacheStats, component_stamp
from repro.service.results import BatchResult
from repro.service.sharding import run_plan
from repro.service.slo import (
    CostModel,
    SloStats,
    ladder_from,
    params_for,
    select_rung,
)


@dataclass
class ServiceStats:
    """Aggregated view over the service's moving parts."""

    engine: EngineStats
    cache: Optional[CacheStats]
    slo: Optional[SloStats] = None


class SACService:
    """Serve SAC queries and batches over one graph.

    Parameters
    ----------
    graph:
        Graph to serve; a private :class:`~repro.engine.QueryEngine` is
        created over it.  Mutually exclusive with ``engine``.
    engine:
        An existing engine to serve from — pass an
        :class:`~repro.engine.IncrementalEngine` to combine serving with
        in-place graph mutation (check-ins, edge updates); the answer cache
        follows the mutations through the engine's component versions.
    use_cache:
        Whether to keep an :class:`~repro.service.cache.AnswerCache` (at its
        default LRU capacity).
    clock:
        Monotonic time source (seconds) for every elapsed-time and deadline
        measurement — batch timings, SLO budgets, late flags; defaults to
        :func:`time.perf_counter`.  The service never reads the wall clock,
        so deadline judgments are immune to clock steps; tests inject a
        stepped fake clock here.

    Examples
    --------
    >>> service = SACService(graph)                         # doctest: +SKIP
    >>> batch = service.submit_batch(queries, k=4)          # doctest: +SKIP
    >>> batch2 = service.submit_batch(queries, k=4)         # doctest: +SKIP
    >>> batch2.cache_hits == batch.answered                 # doctest: +SKIP
    True
    """

    def __init__(
        self,
        graph: Optional[SpatialGraph] = None,
        *,
        engine: Optional[QueryEngine] = None,
        use_cache: bool = True,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if (graph is None) == (engine is None):
            raise InvalidParameterError("pass exactly one of graph or engine")
        self.engine = engine if engine is not None else QueryEngine(graph)
        self._clock: Callable[[], float] = clock or perf_counter
        #: Path of the snapshot this service was opened from (set by
        #: :meth:`open`, ``None`` otherwise) — the replication tier resyncs
        #: a lagging replica by reopening it.
        self.store_path: Optional[str] = None
        self.cache: Optional[AnswerCache] = AnswerCache() if use_cache else None
        #: The deadline ladder's calibrated cost model; fitted lazily on the
        #: first deadline-carrying request per ``k`` (or eagerly via
        #: :meth:`calibrate_slo`) and refreshed from observed latencies.
        self.slo_model = CostModel()
        self.slo_stats = SloStats()
        self._slo_calibrated_ks: set = set()

    @property
    def graph(self) -> SpatialGraph:
        """The graph the service is bound to (via its engine)."""
        return self.engine.graph

    # ------------------------------------------------------------- persistence
    def save(self, path, *, lsn: Optional[int] = None) -> None:
        """Snapshot the engine (graph + cached artifacts) to a store directory.

        Everything the engine has computed so far — core numbers, k-ĉore
        labellings, per-component bundles — lands in an
        :class:`repro.store.ArtifactStore` at ``path``; call
        :meth:`warm` (and run representative batches) first to capture a
        fully materialised state.  Reopen with :meth:`open` for a
        millisecond warm start.  ``lsn`` stamps the snapshot with the WAL
        sequence number it covers (the replication writer passes its last
        durable LSN; see :attr:`repro.store.ArtifactStore.lsn`).

        The engine's residency layer is re-anchored on the written snapshot
        afterwards: dirty (patched) bundles are now persisted, so their
        eviction pins release and the new store becomes the lazy-reload
        source.
        """
        from repro.store import ArtifactStore

        store = ArtifactStore.save(path, self.engine, lsn=lsn)
        self.engine.notify_snapshot(store)

    @classmethod
    def open(
        cls,
        path,
        *,
        use_cache: bool = True,
        clock: Optional[Callable[[], float]] = None,
        max_resident_bytes: Optional[int] = None,
    ) -> "SACService":
        """Open a service over a snapshot written by :meth:`save`.

        The engine warm-starts memory-mapped from the store as an
        :class:`~repro.engine.IncrementalEngine`, so :meth:`apply_checkin` /
        :meth:`apply_edge` work out of the box.  ``max_resident_bytes`` bounds
        the engine's resident artifact-bundle working set (see
        :class:`repro.engine.residency.BundleResidency`); ``None`` keeps
        every touched bundle resident.  All other parameters match the
        constructor.  The opened path is remembered as :attr:`store_path`
        so the replication tier can reopen the snapshot in place.
        """
        service = cls(
            engine=IncrementalEngine.from_store(
                path, max_resident_bytes=max_resident_bytes
            ),
            use_cache=use_cache,
            clock=clock,
        )
        service.store_path = str(path)
        return service

    # ----------------------------------------------------------------- serving
    def warm(self, k: int) -> int:
        """Warm the engine caches for threshold ``k``; returns #components."""
        return self.engine.prepare(k)

    def calibrate_slo(self, k: int) -> int:
        """Fit the SLO cost model for ``k`` from probe queries; returns #probes.

        Idempotent per ``k`` — the first call probes, later calls return 0.
        Called lazily by the first deadline-carrying request, or eagerly at
        warm-up (the server does this under ``--slo`` for every warmed
        ``k``) so the first real deadline never pays for calibration.
        """
        if k in self._slo_calibrated_ks:
            return 0
        self._slo_calibrated_ks.add(k)
        return self.slo_model.calibrate(self.engine, k)

    def search(
        self,
        query: int,
        k: int,
        *,
        algorithm: str = "appfast",
        deadline_ms: Optional[float] = None,
        **params: float,
    ) -> SACResult:
        """Answer one query as a one-query :meth:`submit_batch`.

        Raises exactly what :meth:`repro.engine.QueryEngine.search` raises;
        a cache hit returns the previously computed result, which the
        version-guarded invalidation keeps bit-identical to a fresh
        computation.

        With ``deadline_ms`` set, ``algorithm`` becomes the quality
        *ceiling* and the SLO ladder picks the best rung predicted to fit
        the budget (see :meth:`submit_batch`); the returned result's
        ``algorithm`` attribute records the rung that answered.
        """
        batch = self.submit_batch(
            [query], k, algorithm=algorithm, deadline_ms=deadline_ms, **params
        )
        result = batch.results.get(int(query))
        if result is not None:
            return result
        # Unknown vertex / no community / per-query error: delegate to the
        # engine so the caller gets exactly the single-query exception.
        return self.engine.search(query, k, algorithm=algorithm, **params)

    def cached(
        self, query: int, k: int, *, algorithm: str = "appfast", **params: float
    ) -> Optional[SACResult]:
        """The answer cache's fresh answer to one query, found with no engine work.

        ``None`` without a cache, before ``k``'s labelling is built
        (resolving the query's component would build it), outside every
        k-core, and when no fresh entry is held.  Only a hit is counted
        (:meth:`repro.service.AnswerCache.lookup_fresh`), so a query this
        misses counts once, in the :meth:`submit_batch` that answers it.
        It only reads the engine, so it may run beside a :meth:`submit_batch`
        on another thread, but not beside a mutation.
        """
        if self.cache is None or not self.engine.labelled(k):
            return None
        try:
            representative, version = component_stamp(self.engine, query, k)
        except NoCommunityError:
            return None
        return self.cache.lookup_fresh(
            self.engine, query, k, algorithm, params,
            representative=representative, version=version,
        )

    def submit_batch(
        self,
        queries: Sequence[int],
        k: int,
        *,
        algorithm: str = "appfast",
        deadline_ms: Optional[float] = None,
        **params: float,
    ) -> BatchResult:
        """Answer a batch through the one plan-driven pipeline.

        The batch is planned once (:func:`repro.engine.plan.plan_batch`):
        duplicates resolve to one computation, and the distinct queries
        group by k-ĉore component.  Each group then gets its algorithm, has
        its cache hits pruned by a group-level lookup at that algorithm,
        executes, and has its fresh answers stored back group-at-a-time;
        ``cache_hits`` counts the occurrences that never reached execution.

        Without ``deadline_ms`` every group runs at ``algorithm`` (a one-rung
        ladder): every group is looked up first, the groups left with misses
        execute in one :func:`~repro.service.sharding.run_plan` call, and
        their answers are stored.

        With ``deadline_ms`` set, the batch runs in **SLO mode**:
        ``algorithm`` becomes the quality *ceiling* and each plan group is
        answered at the best ladder rung the calibrated cost model predicts
        to fit the remaining budget (:mod:`repro.service.slo`), descending
        to faster rungs — never to a refusal — as the budget drains.  The
        returned batch records per answer which rung ran
        (:attr:`BatchResult.algorithm_used`) and which answers landed after
        the deadline (:attr:`BatchResult.deadline_missed`).
        """
        if algorithm not in ALGORITHMS:
            raise InvalidParameterError(
                f"unknown algorithm {algorithm!r}; choose from {sorted(ALGORITHMS)}"
            )
        if deadline_ms is not None:
            # Warm-up calibration is a one-time cost of the service, not of
            # the request that happened to arrive first — fit before the
            # clock starts.
            self.calibrate_slo(k)
        start = self._clock()
        plan = plan_batch(self.engine, queries, k, algorithm=algorithm, params=params)
        if deadline_ms is None:
            for group in plan.groups:
                self._lookup_group(plan, group)
            plan.groups = [group for group in plan.groups if group.queries]
            batch = run_plan(self.engine, plan)
            for group in plan.groups:
                self._store_group(plan, group, batch.results)
        else:
            batch = self._run_under_deadline(plan, max(0.0, float(deadline_ms)), start)
        batch.elapsed_seconds = self._clock() - start
        return batch

    def _lookup_group(self, plan: BatchPlan, group: PlanGroup) -> None:
        """Prune ``group``'s cached answers at the algorithm it runs under."""
        if self.cache is None:
            return
        hits, misses = self.cache.lookup_group(
            self.engine,
            group.queries,
            plan.k,
            group.effective_algorithm(plan),
            group.effective_params(plan),
            representative=group.representative,
            version=group.version,
        )
        resolve_cached(self.engine, plan, group, hits, misses)

    def _store_group(
        self, plan: BatchPlan, group: PlanGroup, results: Dict[int, SACResult]
    ) -> None:
        """Cache the answers ``results`` holds for ``group``'s queries."""
        if self.cache is None:
            return
        computed = {query: results[query] for query in group.queries if query in results}
        if computed:
            self.cache.store_group(
                self.engine,
                computed,
                plan.k,
                group.effective_algorithm(plan),
                group.effective_params(plan),
                representative=group.representative,
                version=group.version,
            )

    def _run_under_deadline(
        self, plan: BatchPlan, deadline_ms: float, start: float
    ) -> BatchResult:
        """Answer ``plan`` group by group at the rungs the deadline affords.

        Walks the groups largest-first; before each group the remaining
        budget is re-measured and :func:`select_rung` picks the best rung
        whose predicted cost fits it, probing the answer cache per candidate
        rung (a rung whose answers are all cached is free).  Groups execute
        one at a time on the engine, because each rung depends on the budget
        the previous groups left.  Observed group latencies feed back into the model,
        and any answer completed after the deadline is flagged in
        ``deadline_missed`` — late answers are delivered, never dropped, so
        a mispredicting (even adversarially lying) model degrades to honest
        flags rather than hangs.
        """
        k, ceiling = plan.k, plan.algorithm
        batch = BatchResult(
            failed=list(plan.failed),
            errors=plan.error_messages(),
            shared_preprocessing_seconds=plan.planning_seconds,
            deadline_ms=deadline_ms,
        )
        self.slo_stats.batches += 1
        self.slo_stats.queries += len(plan.order)

        def elapsed_ms() -> float:
            return (self._clock() - start) * 1000.0

        # Largest components first: they dominate the budget, so deciding
        # them while the most budget remains gives the ladder room to trade
        # their quality for everyone's deadline.
        groups = sorted(
            plan.groups, key=lambda group: -self.engine.component_size(k, group.component)
        )
        plan.groups = []
        for group in groups:
            size = self.engine.component_size(k, group.component)
            resident = self.engine.bundle_resident(k, group.representative)
            pending = {rung: len(group.queries) for rung in ladder_from(ceiling)}
            if self.cache is not None:
                for rung in pending:
                    pending[rung] = len(
                        self.cache.peek_group(
                            self.engine,
                            group.queries,
                            k,
                            rung,
                            params_for(rung, plan.params),
                            representative=group.representative,
                            version=group.version,
                        )
                    )
            choice = select_rung(
                self.slo_model,
                deadline_ms - elapsed_ms(),
                size=size,
                resident=resident,
                pending=pending,
                ceiling=ceiling,
            )
            self.slo_stats.groups += 1
            self.slo_stats.rungs[choice.algorithm] = (
                self.slo_stats.rungs.get(choice.algorithm, 0) + 1
            )
            if choice.algorithm != ceiling:
                self.slo_stats.downgrades += 1
            if not choice.fits:
                self.slo_stats.overloads += 1

            group.algorithm = choice.algorithm
            group.params = params_for(choice.algorithm, plan.params)
            self._lookup_group(plan, group)
            if not group.queries:
                continue
            plan.groups.append(group)
            group_start = self._clock()
            computed = execute_group(
                self.engine, plan, group, errors=batch.errors, failed=batch.failed
            )
            self.slo_model.observe(
                choice.algorithm,
                size,
                queries=len(group.queries),
                elapsed_ms=(self._clock() - group_start) * 1000.0,
                resident=resident,
            )
            batch.results.update(computed)
            self._store_group(plan, group, computed)
            batch.deadline_missed.update(dict.fromkeys(computed, elapsed_ms() > deadline_ms))

        batch.results.update(plan.cached)
        batch.cache_hits = plan.cache_hits
        batch.deduped = plan.deduped
        batch.plan_groups = len(plan.groups)
        # Cache hits and plan-time outcomes resolved before any execution
        # are late only if the deadline was blown overall.
        late = elapsed_ms() > deadline_ms
        for query in batch.results:
            batch.deadline_missed.setdefault(query, late)
        self.slo_stats.deadline_missed += sum(batch.deadline_missed.values())
        return batch

    # ------------------------------------------------------------- mutation
    def _incremental_engine(self) -> IncrementalEngine:
        """Return the bound engine if it supports in-place mutation."""
        if not isinstance(self.engine, IncrementalEngine):
            raise InvalidParameterError(
                "this service is bound to a static QueryEngine; construct it "
                "with engine=IncrementalEngine(graph) to apply updates"
            )
        return self.engine

    def apply_checkin(self, user: int, x: float, y: float) -> None:
        """Apply a location update through the incremental engine.

        The engine patches its bundles in place and bumps the touched
        component versions, which lazily evicts exactly the cached answers
        the move could have changed.
        """
        self._incremental_engine().apply_checkin(user, x, y)

    def apply_edge(self, u: int, v: int, op: str = "insert") -> np.ndarray:
        """Apply an edge update through the incremental engine.

        Returns the vertices whose core number changed, as
        :meth:`repro.engine.IncrementalEngine.apply_edge` does; cached
        answers of every invalidated component expire via the same version
        bumps.
        """
        return self._incremental_engine().apply_edge(u, v, op)

    def apply_record(self, record: dict) -> None:
        """Replay one WAL mutation record through the incremental engine.

        The replication tier's replay path: replicas (and a restarting
        writer) feed :class:`repro.store.WalCursor` records here in LSN
        order; :meth:`repro.engine.IncrementalEngine.apply_record` runs the
        same in-place repairs the writer ran, and the answer cache follows
        via the component-version bumps exactly as for first-hand mutations.
        """
        self._incremental_engine().apply_record(record)

    # ------------------------------------------------------------------ stats
    def stats(self) -> ServiceStats:
        """Snapshot of engine, cache, and SLO counters."""
        return ServiceStats(
            engine=self.engine.stats,
            cache=self.cache.stats if self.cache is not None else None,
            slo=self.slo_stats,
        )
