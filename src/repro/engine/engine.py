"""The :class:`QueryEngine` — share all per-graph work across SAC queries.

Every SAC algorithm spends its setup phase on the same three computations:
the graph-wide core decomposition, the extraction of the k-ĉore component
containing the query, and a spatial grid index over that component.  The
seed API repeats all three for every single query; the engine computes each
of them **once per graph** (and once per distinct ``k`` / component) and
hands the algorithms pre-built :class:`~repro.core.base.QueryContext`
objects, so a query costs one distance vector plus the actual search.

Results are bit-identical to the per-query API: the cached artifacts are
built with exactly the arithmetic the legacy ``QueryContext`` constructor
uses, and the algorithms themselves are unchanged.

The engine is bound to one :class:`~repro.graph.SpatialGraph` and assumes
the graph does not change behind its back.  For dynamic workloads — location
streams, friendship edges appearing and disappearing — use
:class:`~repro.engine.IncrementalEngine`, which owns the mutation of its
bound graph and repairs or selectively invalidates the cached artifacts
instead of throwing them away.

Cached ``(k, component)`` artifact bundles are keyed by the component's
*representative* — its minimum vertex index — rather than its positional
component id.  Component ids are assigned by flood-fill order and shift
whenever a labelling is recomputed; the representative is stable for any
component whose member set did not change, which is what lets the
incremental engine drop one labelling while keeping every untouched
component's bundle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import count
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.core.appfast import Move
from repro.core.base import CandidateArtifacts, QueryContext, validate_query
from repro.core.result import SACResult
from repro.core.searcher import ALGORITHMS
from repro.engine.residency import BundleResidency
from repro.exceptions import InvalidParameterError, NoCommunityError
from repro.graph.spatial_graph import SpatialGraph
from repro.kcore.decomposition import core_numbers, gather_neighbors

#: Monotone source of :attr:`QueryEngine.cache_token` values.  Tokens are
#: process-unique (unlike ``id()``, which the allocator recycles), so an
#: external answer cache can key entries by engine without ever confusing a
#: dead engine's answers with a new engine bound to a different graph.
_CACHE_TOKENS = count()

#: How many version bumps the move log keeps (all components together).
_MOVE_LOG_BUMPS = 256


@dataclass
class EngineStats:
    """Cache, traffic, and invalidation counters of one :class:`QueryEngine`.

    Attributes
    ----------
    queries_served:
        SAC queries answered through :meth:`QueryEngine.search` or a
        planned group execution (:mod:`repro.engine.plan`).
    contexts_served:
        Query contexts handed out from the caches.
    batches_planned:
        Batches resolved into a :class:`~repro.engine.plan.BatchPlan` by
        :func:`repro.engine.plan.plan_batch`.
    plan_groups:
        ``(component, k)`` execution groups those plans produced (after
        cache-hit pruning dropped the fully cached ones).
    queries_deduped:
        Batch occurrences answered by fanning out another occurrence's
        result instead of recomputing — the plan-time dedupe saving.
    queries_factorised:
        Distinct queries answered through the factorised group executor
        (:func:`repro.engine.plan.execute_group`) rather than one-by-one.
    components_materialised:
        ``(k, component)`` artifact bundles actually built — the gap to
        ``contexts_served`` is the work the engine saved.
    core_decompositions:
        Full graph-wide core decompositions performed (stays at 1 for a
        static graph; the incremental engine repairs core numbers in place
        instead of incrementing this).
    labelings_built:
        Per-``k`` labellings built and cached, each rebuild after an
        invalidation included.
    location_updates:
        Check-ins applied via :meth:`IncrementalEngine.apply_checkin`.
    edge_updates:
        Edge insertions/deletions applied via
        :meth:`IncrementalEngine.apply_edge`.
    bundles_loaded:
        Artifact bundles installed ready-made and eagerly via
        :meth:`QueryEngine.install_state` (not counted in
        ``components_materialised`` — nothing was built).
    bundles_materialised:
        Artifact bundles attached **lazily** from the backing
        :class:`repro.store.ArtifactStore` on first touch — the residency
        layer's store misses.  Distinct from ``components_materialised``
        (bundles *built* from the live graph) and ``bundles_loaded``
        (eager installs): a warm-started engine answering queries entirely
        from its snapshot moves only this counter.
    bundles_evicted:
        Resident bundles dropped by the residency layer's LRU to get back
        under the configured byte budget.
    resident_bytes:
        Current resident-byte estimate of the bundle working set (arrays
        plus Python-container overhead) — a gauge, not a counter.
    bundles_thawed:
        Memory-mapped (read-only) bundles replaced with private writable
        copies the first time a mutation needed to patch them —
        the copy-on-first-mutate half of warm-started incremental engines.
    bundles_patched:
        Artifact bundles repaired *in place* by a location update (the moved
        vertex's coordinate row and grid cell — nothing was rebuilt).
    bundles_invalidated:
        Artifact bundles dropped because an edge update changed (or may have
        changed) their component's member set or induced adjacency; they are
        rebuilt lazily on the next query that needs them.
    labelings_invalidated:
        Per-``k`` component labellings dropped after an edge update
        (membership change, component merge, or possible split).
    cores_promoted / cores_demoted:
        Vertices whose core number actually rose / fell during incremental
        edge updates (the subcore peeling may scan more vertices than it
        ends up changing; only the changes are counted here).
    """

    queries_served: int = 0
    contexts_served: int = 0
    batches_planned: int = 0
    plan_groups: int = 0
    queries_deduped: int = 0
    queries_factorised: int = 0
    components_materialised: int = 0
    core_decompositions: int = 0
    labelings_built: int = 0
    bundles_loaded: int = 0
    bundles_materialised: int = 0
    bundles_evicted: int = 0
    resident_bytes: int = 0
    bundles_thawed: int = 0
    location_updates: int = 0
    edge_updates: int = 0
    bundles_patched: int = 0
    bundles_invalidated: int = 0
    labelings_invalidated: int = 0
    cores_promoted: int = 0
    cores_demoted: int = 0


class QueryEngine:
    """Answer SAC queries over one graph with shared preprocessing.

    Parameters
    ----------
    graph:
        The spatial graph to serve queries against.
    max_resident_bytes:
        Byte budget for the resident artifact-bundle working set (see
        :class:`repro.engine.residency.BundleResidency`); ``None`` (the
        default) keeps every touched bundle resident.

    Examples
    --------
    >>> engine = QueryEngine(graph)                         # doctest: +SKIP
    >>> r1 = engine.search(42, k=4, algorithm="appfast")    # doctest: +SKIP
    >>> r2 = engine.search(77, k=4, algorithm="exact+")     # doctest: +SKIP

    The second call reuses the core decomposition and, when vertex 77 lives
    in the same k-ĉore component as vertex 42, the component's candidate
    artifacts and grid index as well.
    """

    def __init__(
        self, graph: SpatialGraph, *, max_resident_bytes: Optional[int] = None
    ) -> None:
        self.graph = graph
        self.stats = EngineStats()
        #: Resident-byte budget this engine was configured with (``None`` =
        #: unlimited); recorded here so outer layers (replica resync, CLI
        #: footers) can rebuild an equivalent engine.
        self.max_resident_bytes = max_resident_bytes
        #: Process-unique identity of this engine, used by
        #: :class:`repro.service.AnswerCache` to namespace cached answers.
        self.cache_token: int = next(_CACHE_TOKENS)
        self._cores: Optional[np.ndarray] = None
        # k -> (component labels array with -1 outside the k-core, #components)
        self._labels: Dict[int, Tuple[np.ndarray, int]] = {}
        # k -> per-component representative (minimum member vertex); aligned
        # with the component ids of self._labels[k] and dropped with it.
        self._reps: Dict[int, np.ndarray] = {}
        # (k, representative) -> bundle, behind the residency layer: LRU
        # over resident bundles with lazy store materialisation and a byte
        # budget.  Keyed by representative, not component id, so bundles
        # survive a labelling rebuild (see module docstring).
        self._artifacts = BundleResidency(
            max_bytes=max_resident_bytes, stats=self.stats
        )
        # (k, representative) -> monotone version, bumped by the incremental
        # engine whenever the component's bundle is patched in place or
        # dropped.  Answer caches record the version an answer was computed
        # at and treat any bump as an eviction notice; for a static engine
        # the counters never move, so cached answers stay valid forever.
        self._bundle_versions: Dict[Tuple[int, int], int] = {}
        # The last _MOVE_LOG_BUMPS bumps as ((k, representative), version
        # after the bump, cause): a check-in's Move, or None for an edge
        # update or a bundle drop.  Read by checkins_between.
        self._move_log: Deque[Tuple[Tuple[int, int], int, Optional[Move]]] = deque(
            maxlen=_MOVE_LOG_BUMPS
        )

    # ------------------------------------------------------------ warm start
    @classmethod
    def from_store(
        cls, store, *, max_resident_bytes: Optional[int] = None
    ) -> "QueryEngine":
        """Warm-start an engine from an :class:`repro.store.ArtifactStore`.

        ``store`` is an open store or a snapshot path.  The returned engine's
        graph, core vector, and labellings are zero-copy views over the
        snapshot's memory maps; artifact bundles stay in the store and
        materialise **lazily on first touch** through the residency layer
        (bounded by ``max_resident_bytes`` when given), so readiness costs
        milliseconds and resident memory tracks the hot working set instead
        of the whole key space — with **bit-identical** answers, because the
        snapshot holds exactly the arrays a cold build computes.  Works for
        this class and for :class:`~repro.engine.IncrementalEngine` (which
        copies mapped artifacts on first mutation, leaving the snapshot
        untouched).
        """
        from repro.store import ArtifactStore

        if not isinstance(store, ArtifactStore):
            store = ArtifactStore.open(store)
        engine = cls(store.graph(), max_resident_bytes=max_resident_bytes)
        engine.install_state(store.engine_state(include_bundles=False))
        engine._artifacts.bind_store(store)
        return engine

    def export_state(self) -> Dict[str, object]:
        """Return the engine's cached artifacts for snapshotting.

        The counterpart of :meth:`install_state` and the protocol
        :meth:`repro.store.ArtifactStore.save` consumes: the core-number
        vector (``None`` when never computed), per-``k`` labellings as
        ``(labels, count, representatives)`` triples, and the
        ``(k, representative) -> CandidateArtifacts`` bundle cache.  Under
        lazy residency the bundle dict carries resident bundles live and
        clean non-resident store-backed ones as raw
        :meth:`repro.store.ArtifactStore.bundle_state` dicts (zero-copy;
        :meth:`~repro.store.ArtifactStore.save` writes them back verbatim).
        The returned arrays are the live internals — callers must not mutate
        them.
        """
        return {
            "cores": self._cores,
            "labellings": {
                k: (labels, count, self._reps[k])
                for k, (labels, count) in self._labels.items()
            },
            "bundles": self._artifacts.export_bundles(),
        }

    def install_state(self, state: Dict[str, object]) -> None:
        """Adopt caches produced by :meth:`export_state` (or a store).

        Installed bundles are counted in ``stats.bundles_loaded`` rather
        than ``components_materialised``: the gap between contexts served
        and components materialised remains the engine's own saved work.
        """
        cores = state.get("cores")
        if cores is not None:
            self._cores = cores
        for k, (labels, count, reps) in state.get("labellings", {}).items():
            self._labels[int(k)] = (labels, int(count))
            self._reps[int(k)] = reps
        bundles = state.get("bundles", {})
        for (k, representative), bundle in bundles.items():
            if isinstance(bundle, dict):
                # A raw bundle_state() dict (an export from a lazy engine
                # whose cold tail never materialised): build it live here.
                from repro.store.artifact_store import bundle_from_state

                bundle = bundle_from_state(bundle)
            self._artifacts[(int(k), int(representative))] = bundle
        self.stats.bundles_loaded += len(bundles)

    # --------------------------------------------------------- shared artefacts
    def core_numbers(self) -> np.ndarray:
        """Core number of every vertex; computed once per engine."""
        if self._cores is None:
            self._cores = core_numbers(self.graph)
            self.stats.core_decompositions += 1
        return self._cores

    def component_labels(self, k: int) -> Tuple[np.ndarray, int]:
        """Label the k-ĉores: returns ``(labels, count)``.

        ``labels[v]`` is the component id of vertex ``v`` inside the k-core
        (``-1`` when ``v`` is not in the k-core).  Computed once per ``k``;
        an empty k-core's labelling is built afresh and never cached, so a
        ``k`` past the maximum core number costs no memory.
        """
        if not isinstance(k, int) or k < 1:
            raise InvalidParameterError(f"k must be a positive integer, got {k!r}")
        cached = self._labels.get(k)
        if cached is not None:
            return cached
        mask = self.core_numbers() >= k
        labels = np.full(self.graph.num_vertices, -1, dtype=np.int64)
        if not mask.any():
            return labels, 0
        indptr, indices = self.graph.csr
        count = 0
        reps: List[int] = []
        # One flood-fill pass: the labels array doubles as the visited set,
        # so total work is O(n + m) regardless of how many components the
        # k-core splinters into.  Seeds are visited in ascending order, so
        # each component's seed is its minimum member — the representative
        # that keys the artifact cache.
        for seed in np.flatnonzero(mask):
            if labels[seed] >= 0:
                continue
            labels[seed] = count
            reps.append(int(seed))
            frontier = np.array([seed], dtype=np.int64)
            while frontier.size:
                reached = gather_neighbors(indptr, indices, frontier)
                reached = reached[mask[reached] & (labels[reached] < 0)]
                if reached.size == 0:
                    break
                frontier = np.unique(reached)
                labels[frontier] = count
            count += 1
        self._labels[k] = (labels, count)
        self._reps[k] = np.asarray(reps, dtype=np.int64)
        self.stats.labelings_built += 1
        return self._labels[k]

    def prepare(self, k: int) -> int:
        """Warm the shared caches for degree threshold ``k``; returns #components."""
        return self.component_labels(k)[1]

    def labelled(self, k: int) -> bool:
        """Whether the k-ĉore labelling is built: a pure probe, it builds nothing.

        While it holds, :meth:`component_of` and :meth:`component_version`
        are array and dict reads, cheap enough for the serving daemon's
        event loop.
        """
        return k in self._reps

    def component_of(self, query: int, k: int) -> Tuple[int, int]:
        """Return ``(component id, representative)`` of ``query``'s k-ĉore.

        The component id indexes the current labelling of
        :meth:`component_labels`; the representative (the component's minimum
        member vertex) is the stable half of the pair — it survives labelling
        rebuilds for any component whose member set did not change, which is
        why bundle and answer caches key by it.  Raises
        :class:`NoCommunityError` when the query vertex is in no k-core.
        """
        validate_query(self.graph, query, k)
        labels, _ = self.component_labels(k)
        component = int(labels[query])
        if component < 0:
            raise NoCommunityError(query, k)
        return component, int(self._reps[k][component])

    def component_representative(self, k: int, component: int) -> int:
        """Return the representative (minimum member) of one k-ĉore component.

        ``component`` indexes the current labelling of
        :meth:`component_labels`.  This is the stable cache key the bundle,
        answer-cache, and snapshot layers all share.
        """
        _, count = self.component_labels(k)
        if not 0 <= int(component) < count:
            raise InvalidParameterError(
                f"component {component!r} is out of range for k={k} ({count} components)"
            )
        return int(self._reps[k][int(component)])

    def component_version(self, k: int, representative: int) -> int:
        """Current version of the ``(k, representative)`` component's artifacts.

        Starts at 0 and is bumped by :class:`IncrementalEngine` every time the
        component's bundle is patched (location update) or invalidated (edge
        update).  An answer computed at version ``v`` is stale exactly when
        the current version differs from ``v``.
        """
        return self._bundle_versions.get((k, int(representative)), 0)

    def checkins_between(
        self, k: int, representative: int, since: int, until: int
    ) -> Optional[List[Move]]:
        """The check-ins that moved the component from version ``since`` to ``until``.

        In order, one :data:`~repro.core.appfast.Move` per bump.  ``None``
        when any bump in between was not a check-in (an edge update or a
        bundle drop) or has left the log, which keeps the last
        ``_MOVE_LOG_BUMPS`` bumps of all components.  Only reads, but not
        safe beside a mutation.
        """
        key, wanted = (int(k), int(representative)), int(until) - int(since)
        moves: List[Move] = []
        if wanted <= 0:
            return moves if wanted == 0 else None
        for logged, version, move in reversed(self._move_log):
            if logged != key or version > until:
                continue
            if move is None or version <= since:
                break
            moves.append(move)
            if len(moves) == wanted:
                moves.reverse()
                return moves
        return None

    def bundle_resident(self, k: int, representative: int) -> bool:
        """Whether the ``(k, representative)`` artifact bundle is **resident**.

        A pure cache probe — never builds, loads, or LRU-touches anything.
        The SLO cost model (:mod:`repro.service.slo`) reads this to charge a
        materialisation surcharge to groups whose artifacts a query would
        have to attach (or rebuild) first; under an eviction-pressured
        budget that surcharge is what steers deadline-bound queries onto
        cheaper rungs.
        """
        return (int(k), int(representative)) in self._artifacts

    def notify_snapshot(self, store) -> None:
        """Re-anchor the residency layer on a freshly written snapshot.

        Called by :meth:`repro.service.SACService.save` after
        :meth:`repro.store.ArtifactStore.save`: dirty (patched) bundles are
        now persisted, so their eviction pins release and the store becomes
        the reload source for the whole resident set.
        """
        self._artifacts.notify_snapshot(store)

    def residency_info(self) -> Dict[str, object]:
        """Operator view of the bundle residency layer (see ``GET /stats``)."""
        info = self._artifacts.describe()
        info["bundles_materialised"] = self.stats.bundles_materialised
        info["bundles_evicted"] = self.stats.bundles_evicted
        return info

    def component_size(self, k: int, component: int) -> int:
        """Member count of one k-ĉore component in the current labelling.

        ``component`` indexes the labelling of :meth:`component_labels`;
        raises :class:`InvalidParameterError` when it is out of range.  The
        SLO cost model uses this as its primary cost feature.
        """
        labels, count = self.component_labels(k)
        if not 0 <= int(component) < count:
            raise InvalidParameterError(
                f"component {component!r} is out of range for k={k} ({count} components)"
            )
        return int(np.count_nonzero(labels == int(component)))

    def component_artifacts(self, k: int, component: int) -> CandidateArtifacts:
        """Return the cached artifact bundle of one ``(k, component)``.

        Builds the bundle on first use (counted in
        ``stats.components_materialised``), exactly as a query landing in the
        component would.  ``component`` indexes the current labelling of
        :meth:`component_labels`.  This is the supported way for outer layers
        (notably :func:`repro.engine.plan.execute_group`) to reach the bundle
        cache.
        """
        labels, _ = self.component_labels(k)
        key = (k, int(self._reps[k][component]))
        artifacts = self._artifacts.fetch(key)
        if artifacts is None:
            members = np.flatnonzero(labels == component)
            artifacts = CandidateArtifacts.from_candidates(
                self.graph, {int(v) for v in members}
            )
            self._artifacts[key] = artifacts
            self.stats.components_materialised += 1
        return artifacts

    # ----------------------------------------------------------------- contexts
    def context(self, query: int, k: int) -> QueryContext:
        """Return a :class:`QueryContext` for ``(query, k)`` from the caches.

        Raises :class:`NoCommunityError` when the query vertex is in no
        k-core, exactly like the legacy constructor.
        """
        validate_query(self.graph, query, k)
        labels, _ = self.component_labels(k)
        component = int(labels[query])
        if component < 0:
            raise NoCommunityError(query, k)
        artifacts = self.component_artifacts(k, component)
        self.stats.contexts_served += 1
        return QueryContext(self.graph, query, k, artifacts=artifacts)

    # ------------------------------------------------------------------ queries
    def search(
        self, query: int, k: int, *, algorithm: str = "appfast", **params: float
    ) -> SACResult:
        """Run one SAC query through the engine.

        Identical results to ``ALGORITHMS[algorithm](graph, query, k,
        **params)`` but with all per-graph preprocessing served from cache.
        """
        if algorithm not in ALGORITHMS:
            raise InvalidParameterError(
                f"unknown algorithm {algorithm!r}; choose from {sorted(ALGORITHMS)}"
            )
        validate_query(self.graph, query, k)
        self.stats.queries_served += 1
        run = ALGORITHMS[algorithm]
        if k == 1:
            # The algorithms answer k=1 with the nearest-neighbour shortcut
            # before ever building a context; nothing to share.
            return run(self.graph, query, k, **params)
        return run(self.graph, query, k, context=self.context(query, k), **params)
