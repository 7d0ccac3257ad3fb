"""The persistent answer cache of the serving layer.

Batch workloads repeat themselves: the same popular users re-query every few
minutes, trackers re-ask after every check-in, dashboards refresh.  Computing
a SAC answer costs a distance vector plus a search; *re*-computing an
unchanged answer costs the same again for nothing.  :class:`AnswerCache` is
an LRU map from ``(engine, query, k, algorithm, params)`` to the
:class:`~repro.core.result.SACResult` previously computed for it, persistent
across batches for the lifetime of the service that owns it.

Correct invalidation is the whole game, and it rides the engine's existing
representative-keyed bundle machinery rather than duplicating it.  Every
cached answer records the ``(k, representative)`` of the component it was
computed in and that component's **version**
(:meth:`~repro.engine.QueryEngine.component_version`).  The incremental
engine bumps the version whenever it patches a bundle in place (check-in) or
drops one (edge update) — which is *exactly* the set of mutations that can
change any answer inside the component — so a lookup simply compares
versions: mismatch means stale, and only the touched component's answers are
evicted.  Static engines never bump, so their answers never expire.

Two classes of answers are deliberately not cached:

* ``k == 1`` answers — the nearest-neighbour shortcut never materialises a
  bundle, so no version counter guards it (:func:`versioned`, the rule the
  subscription registry shares);
* negative answers (no community) — a vertex outside every k-core belongs to
  no component, so nothing would version-guard the "no" once edge updates
  start promoting vertices.

An entry keeps the result itself: its members are one sorted, read-only
``int32`` array (:class:`~repro.core.result.Members`, about 2.4 KiB for 600
members), which every hit hands out as it is.  Besides the entry count the
cache is bounded in bytes: each entry is charged its member array plus
``_ENTRY_OVERHEAD``, and least recently used entries are evicted while the
total is above ``_CACHE_BYTES``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.result import SACResult
from repro.engine import QueryEngine
from repro.exceptions import InvalidParameterError, NoCommunityError

#: Full cache key: engine token, query vertex, k, algorithm, sorted params.
CacheKey = Tuple[int, int, int, str, Tuple[Tuple[str, float], ...]]

#: Bytes the cached answers may be charged in all.  Sacbench's read-zipf
#: fills the 4,096-entry bound with gowalla answers of about 600 members,
#: about 14 MiB; answers a hundred times larger are evicted by this cap long
#: before the entry bound.
_CACHE_BYTES = 64 << 20
#: What one entry costs beyond its member array: the key, the result, its
#: circle and stats dict, and the ordered-dict slot, rounded up.
_ENTRY_OVERHEAD = 1024


def versioned(k: int) -> bool:
    """Whether a component version guards the answers at threshold ``k``.

    ``k == 1`` answers come from the nearest-neighbour shortcut, which never
    builds a bundle, so no mutation ever bumps a version over them: the cache
    refuses them and the subscription registry re-evaluates them every pass.
    """
    return k != 1


def component_stamp(engine: QueryEngine, query: int, k: int) -> Tuple[int, int]:
    """The ``(representative, version)`` stamp of ``query``'s k-ĉore now.

    Raises :class:`~repro.exceptions.NoCommunityError` outside every k-core.
    """
    _, representative = engine.component_of(query, k)
    return representative, engine.component_version(k, representative)


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one :class:`AnswerCache`.

    Attributes
    ----------
    hits:
        Lookups answered from the cache.
    misses:
        Lookups that found no usable entry.  Uncacheable ``k == 1`` lookups
        are *not* counted here — only in ``uncacheable``.
    invalidations:
        Entries dropped at lookup time because their component's version had
        moved (or the query vertex left its component entirely).
    stores / evictions:
        Answers written, and answers pushed out by the LRU bounds (the
        entry count or the byte cap).
    uncacheable:
        Lookups *and* stores skipped because the answer class is never
        cached (``k == 1``), so ``hits + misses + uncacheable`` exceeds the
        lookup count by the refused stores.
    nbytes:
        Bytes charged for the entries held now (member arrays plus a fixed
        per-entry overhead); never above ``_CACHE_BYTES``.
    """

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    stores: int = 0
    evictions: int = 0
    uncacheable: int = 0
    nbytes: int = 0


class AnswerCache:
    """LRU cache of SAC answers with component-version invalidation.

    Parameters
    ----------
    capacity:
        Maximum number of cached answers; the least recently used entry is
        evicted beyond it, and beyond ``_CACHE_BYTES`` charged bytes.

    Examples
    --------
    >>> cache = AnswerCache(capacity=1024)                   # doctest: +SKIP
    >>> cache.lookup(engine, 42, 4, "appfast", {})           # doctest: +SKIP
    >>> cache.store(engine, 42, 4, "appfast", {}, result)    # doctest: +SKIP
    """

    def __init__(self, capacity: int = 4096) -> None:
        if not isinstance(capacity, int) or capacity < 1:
            raise InvalidParameterError(
                f"capacity must be a positive integer, got {capacity!r}"
            )
        self.capacity = capacity
        self.stats = CacheStats()
        # key -> (result with a private stats dict, representative, component
        # version at store time, bytes charged)
        self._entries: "OrderedDict[CacheKey, Tuple[SACResult, int, int, int]]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def _key(
        engine: QueryEngine, query: int, k: int, algorithm: str, params: Dict[str, float]
    ) -> CacheKey:
        """Build the full cache key (engine-namespaced, params canonicalised)."""
        return (
            engine.cache_token,
            int(query),
            int(k),
            algorithm,
            tuple(sorted(params.items())),
        )

    # ------------------------------------------------------------------- API
    def lookup(
        self,
        engine: QueryEngine,
        query: int,
        k: int,
        algorithm: str,
        params: Dict[str, float],
    ) -> Optional[SACResult]:
        """Return the cached answer for the query, or ``None``.

        A hit requires the stored entry's component representative *and*
        version to match the engine's current view; anything else drops the
        entry and reports a miss, so a stale answer can never be served.
        The current view is resolved only when an entry exists.
        """
        hits, _ = self._check(engine, [query], k, algorithm, params)
        return hits.get(int(query))

    def store(
        self,
        engine: QueryEngine,
        query: int,
        k: int,
        algorithm: str,
        params: Dict[str, float],
        result: SACResult,
    ) -> None:
        """Cache ``result``, stamped with its component's current version.

        The entry keeps a private copy of the mutable stats dict, so the
        caller who received ``result`` can annotate it freely without
        reaching into the cache.
        """
        self._fill(engine, {int(query): result}, k, algorithm, params)

    def lookup_group(
        self,
        engine: QueryEngine,
        queries: Sequence[int],
        k: int,
        algorithm: str,
        params: Dict[str, float],
        *,
        representative: int,
        version: int,
    ) -> Tuple[Dict[int, SACResult], List[int]]:
        """Group-level lookup: split one plan group into ``(hits, misses)``.

        All queries of a :class:`repro.engine.plan.PlanGroup` share one
        component, so the planner resolves the ``(representative, version)``
        pair once per group and this lookup only compares stored stamps
        against it — no per-query ``component_of`` walk.  Validation is the
        same as :meth:`lookup`: a stamp mismatch (the vertex changed
        component, or the component's artifacts moved) drops the entry and
        reports a miss.  Hits carry fresh stats-dict copies, misses keep the
        group's first-seen query order.
        """
        stamp = (int(representative), int(version))
        return self._check(engine, queries, k, algorithm, params, stamp)

    def peek_group(
        self,
        engine: QueryEngine,
        queries: Sequence[int],
        k: int,
        algorithm: str,
        params: Dict[str, float],
        *,
        representative: int,
        version: int,
    ) -> List[int]:
        """Side-effect-free variant of :meth:`lookup_group`: the misses only.

        The SLO rung selector probes several candidate rungs per group to
        learn how many queries each would actually have to compute; a probe
        must not touch hit/miss counters, LRU recency, or stale entries —
        only the rung finally chosen does a real :meth:`lookup_group`.  A
        stale stamp counts as a miss here but the entry is left in place.
        """
        if not versioned(k):
            return [int(query) for query in queries]
        misses: List[int] = []
        for query in queries:
            query = int(query)
            entry = self._entries.get(self._key(engine, query, k, algorithm, params))
            if (
                entry is None
                or entry[1] != int(representative)
                or entry[2] != int(version)
            ):
                misses.append(query)
        return misses

    def store_group(
        self,
        engine: QueryEngine,
        results: Dict[int, SACResult],
        k: int,
        algorithm: str,
        params: Dict[str, float],
        *,
        representative: int,
        version: int,
    ) -> None:
        """Group-level fill: cache one plan group's freshly computed answers.

        The counterpart of :meth:`lookup_group`: every entry is stamped with
        the group's ``(representative, version)`` resolved at plan time —
        one version read per group instead of one ``component_of`` per
        answer.  LRU eviction runs once after the whole group is written.
        """
        self._fill(
            engine, results, k, algorithm, params, (int(representative), int(version))
        )

    # -------------------------------------------------------------- internals
    def _check(
        self,
        engine: QueryEngine,
        queries: Sequence[int],
        k: int,
        algorithm: str,
        params: Dict[str, float],
        stamp: Optional[Tuple[int, int]] = None,
    ) -> Tuple[Dict[int, SACResult], List[int]]:
        """The one stamp check: split ``queries`` into ``(hits, misses)``.

        Entries are compared against ``stamp``, or — when it is ``None`` —
        against the engine's live stamp of each query holding an entry (a
        vertex that left every k-core is stale).  A stale entry is dropped.
        """
        hits: Dict[int, SACResult] = {}
        misses: List[int] = []
        if not versioned(k):
            self.stats.uncacheable += len(queries)
            return hits, [int(query) for query in queries]
        for query in map(int, queries):
            key = self._key(engine, query, k, algorithm, params)
            entry = self._entries.get(key)
            try:
                fresh = entry is not None and entry[1:3] == (
                    stamp or component_stamp(engine, query, k)
                )
            except NoCommunityError:
                fresh = False
            if fresh:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                # Fresh stats dict per hit: SACResult is frozen but its stats
                # dict is not, and a caller writing into it must never
                # corrupt the cached copy (or other callers' hits).  The
                # members are read-only and shared.
                hits[query] = _copy(entry[0])
                continue
            if entry is not None:
                del self._entries[key]
                self.stats.nbytes -= entry[3]
                self.stats.invalidations += 1
            self.stats.misses += 1
            misses.append(query)
        return hits, misses

    def _fill(
        self,
        engine: QueryEngine,
        results: Dict[int, SACResult],
        k: int,
        algorithm: str,
        params: Dict[str, float],
        stamp: Optional[Tuple[int, int]] = None,
    ) -> None:
        """The one fill: store ``results`` under ``stamp`` (or live stamps)."""
        if not versioned(k):
            self.stats.uncacheable += len(results)
            return
        entries, stats = self._entries, self.stats
        for query, result in results.items():
            key = self._key(engine, query, k, algorithm, params)
            charge = result.members.array.nbytes + _ENTRY_OVERHEAD
            previous = entries.pop(key, None)
            if previous is not None:
                stats.nbytes -= previous[3]
            entries[key] = (
                _copy(result), *(stamp or component_stamp(engine, query, k)), charge
            )
            stats.nbytes += charge
            stats.stores += 1
        while len(entries) > self.capacity or stats.nbytes > _CACHE_BYTES:
            stats.nbytes -= entries.popitem(last=False)[1][3]
            stats.evictions += 1


def _copy(result: SACResult) -> SACResult:
    """``result`` with a private stats dict; the members are shared."""
    return SACResult(
        result.algorithm, result.query, result.k, result.members, result.circle,
        dict(result.stats),
    )
