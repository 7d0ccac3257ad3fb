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
drops one (edge update), so a lookup first compares versions: a match is a
hit, and a component no mutation touched keeps all its answers.  Static
engines never bump, so their answers never expire.

A version bump says that the component changed, not that the answer did.
An AppFast answer carries a **footprint**
(:attr:`~repro.core.result.SACResult.footprint`), the distances from the
query its binary search compared against, and the engine logs what caused
each bump (:meth:`~repro.engine.QueryEngine.checkins_between`).  A stale
entry with a footprint is **revalidated** — restamped to the current
version and served — when every bump since its stamp was a check-in that
:func:`repro.core.appfast.unchanged_by` shows cannot change it: the mover
is neither the query nor a member, and stays on the same side of every
footprint distance.  Any other stale entry (an edge update, a bump that has
left the engine's log, another algorithm's answer, a new representative)
is dropped and counted in ``invalidations``.

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
cache is bounded in bytes: each entry is charged its member array, its
footprint and ``_ENTRY_OVERHEAD``, and least recently used entries are
evicted while the total is above ``_CACHE_BYTES``.

Threading contract
------------------
The serving daemon shares one cache between two threads: the engine thread,
whose batches (the subscription registry's evaluations among them) look up
and fill whole plan groups, and the event loop, which answers fresh hits
through :meth:`AnswerCache.lookup_fresh`.  Every method is safe from any
thread: one internal lock guards the entry map and :attr:`AnswerCache.stats`,
and it is held only for dict work.  The live stamps of :meth:`~AnswerCache.lookup`
and :meth:`~AnswerCache.store` are engine reads and are resolved before the
lock is taken, so a lookup never waits behind a search or a labelling.  The
footprint test of a stale entry reads the engine's move log outside the
lock too, and the entry is restamped under it only if it is still the one
tested (:meth:`~AnswerCache.lookup_fresh` holds the lock throughout).  A
stored entry is never mutated, so a hit may be copied after the lock is
released.  The lock makes the cache consistent, not the stamps: a caller
off the engine thread must read a component's stamp and move log while no
mutation is queued or running (the daemon's fence), or it may judge a
stale entry fresh.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.appfast import unchanged_by
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
#: The stamp of a vertex outside every k-core: it matches no entry.
_NO_STAMP = (-1, -1)


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
        are *not* counted here — only in ``uncacheable`` — and neither are
        the misses of :meth:`AnswerCache.lookup_fresh`, which counts only
        its hits.
    invalidations:
        Entries dropped at lookup time because their component's version had
        moved (or the query vertex left its component entirely) and their
        footprint could not keep them.
    revalidated:
        Stale entries kept because every check-in since their stamp left
        their footprint alone; each is also counted in ``hits``.
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
    revalidated: int = 0


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
        # Guards _entries and stats.  Re-entrant, so lookup_fresh can hold it
        # across its peek and its counting lookup.
        self._lock = threading.RLock()

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
        version to match the engine's current view, or the entry's
        footprint to show that the check-ins since cannot change it
        (restamping it); anything else drops the entry and reports a miss,
        so a stale answer can never be served.  The current view is
        resolved only when an entry exists.
        """
        query = int(query)
        key = self._key(engine, query, k, algorithm, params)
        stamp = None
        with self._lock:
            held = versioned(k) and key in self._entries
        if held:
            try:
                stamp = component_stamp(engine, query, k)
            except NoCommunityError:
                stamp = _NO_STAMP  # the vertex left every k-core
        hits, _ = self._check(engine, [query], k, algorithm, params, stamp)
        return hits.get(query)

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
        stamp = component_stamp(engine, query, k) if versioned(k) else None
        self._fill(engine, {int(query): result}, k, algorithm, params, stamp)

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
        component, or the component's artifacts moved) that the footprint
        cannot revalidate drops the entry and reports a miss.  Hits carry
        fresh stats-dict copies, misses keep the group's first-seen query
        order.
        """
        stamp = (int(representative), int(version))
        return self._check(engine, queries, k, algorithm, params, stamp)

    def lookup_fresh(
        self,
        engine: QueryEngine,
        query: int,
        k: int,
        algorithm: str,
        params: Dict[str, float],
        *,
        representative: int,
        version: int,
    ) -> Optional[SACResult]:
        """One query's answer if a fresh entry holds it, else ``None``.

        A :meth:`peek_group`, then for a fresh entry a counting
        :meth:`lookup_group`, under one hold of the lock, so no fill can
        evict the entry between the two.  Only a hit is counted: a query
        missed here counts once, in the :meth:`lookup_group` of the batch
        that answers it later.  The daemon's event loop answers cache hits
        through this.
        """
        stamp = {"representative": representative, "version": version}
        with self._lock:
            if self.peek_group(engine, [query], k, algorithm, params, **stamp):
                return None
            hits, _ = self.lookup_group(engine, [query], k, algorithm, params, **stamp)
        return hits.get(int(query))

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
        stale entry the footprint would revalidate is not a miss; any other
        stale entry is, and is left in place.
        """
        queries = [int(query) for query in queries]
        if not versioned(k):
            return queries
        stamp = (int(representative), int(version))
        keys = [self._key(engine, query, k, algorithm, params) for query in queries]
        with self._lock:
            entries = [self._entries.get(key) for key in keys]
        return [
            query
            for query, entry in zip(queries, entries)
            if entry is None
            or (entry[1:3] != stamp and not _revalidates(engine, query, k, entry, stamp))
        ]

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
        stamp: Optional[Tuple[int, int]],
    ) -> Tuple[Dict[int, SACResult], List[int]]:
        """The one stamp check: split ``queries`` into ``(hits, misses)``.

        Entries are compared against ``stamp``.  A stale entry is tested
        against the check-ins since its stamp outside the lock, then, if it
        is still the entry held, restamped (a hit) or dropped (a miss).
        ``None`` means no stamp was resolved because no entry was held: an
        entry found now was stored since, and is a miss that stays.
        """
        queries = [int(query) for query in queries]
        if not versioned(k):
            with self._lock:
                self.stats.uncacheable += len(queries)
            return {}, queries
        keys = [self._key(engine, query, k, algorithm, params) for query in queries]
        found: Dict[int, SACResult] = {}
        stale = []
        with self._lock:
            entries, stats = self._entries, self.stats
            for query, key in zip(queries, keys):
                entry = entries.get(key)
                if entry is not None and entry[1:3] == stamp:
                    entries.move_to_end(key)
                    stats.hits += 1
                    found[query] = entry[0]
                elif entry is not None and stamp is not None:
                    stale.append((query, key, entry))
                else:
                    stats.misses += 1
        if stale:
            kept = [_revalidates(engine, query, k, entry, stamp) for query, _, entry in stale]
            with self._lock:
                for (query, key, entry), keep in zip(stale, kept):
                    held = entries.get(key)
                    if held is entry and keep:
                        held = entries[key] = (entry[0], *stamp, entry[3])
                        stats.revalidated += 1
                    if held is not None and held[1:3] == stamp:
                        entries.move_to_end(key)
                        stats.hits += 1
                        found[query] = held[0]
                        continue
                    if held is entry:
                        del entries[key]
                        stats.nbytes -= entry[3]
                        stats.invalidations += 1
                    stats.misses += 1
        misses = [query for query in queries if query not in found]
        # Fresh stats dict per hit: SACResult is frozen but its stats dict is
        # not, and a caller writing into it must never corrupt the cached
        # copy (or other callers' hits).  The members are read-only and shared.
        return {query: _copy(result) for query, result in found.items()}, misses

    def _fill(
        self,
        engine: QueryEngine,
        results: Dict[int, SACResult],
        k: int,
        algorithm: str,
        params: Dict[str, float],
        stamp: Optional[Tuple[int, int]],
    ) -> None:
        """The one fill: store ``results`` under ``stamp``, then evict LRU."""
        if not versioned(k):
            with self._lock:
                self.stats.uncacheable += len(results)
            return
        staged = [
            (
                self._key(engine, query, k, algorithm, params),
                (_copy(result), *stamp, _charge(result)),
            )
            for query, result in results.items()
        ]
        with self._lock:
            entries, stats = self._entries, self.stats
            for key, entry in staged:
                previous = entries.pop(key, None)
                if previous is not None:
                    stats.nbytes -= previous[3]
                entries[key] = entry
                stats.nbytes += entry[3]
                stats.stores += 1
            while len(entries) > self.capacity or stats.nbytes > _CACHE_BYTES:
                stats.nbytes -= entries.popitem(last=False)[1][3]
                stats.evictions += 1


def _revalidates(
    engine: QueryEngine, query: int, k: int, entry: tuple, stamp: Tuple[int, int]
) -> bool:
    """Whether a stale ``entry`` still answers ``query`` at ``stamp``.

    True when the representative matches and every bump since the entry's
    version was a check-in that leaves its AppFast footprint alone.  Reads
    the engine only; the cache's state is untouched.
    """
    result, representative, version, _ = entry
    if result.footprint is None or representative != stamp[0]:
        return False
    moves = engine.checkins_between(k, representative, version, stamp[1])
    return moves is not None and unchanged_by(
        result, engine.graph.position(query), moves
    )


def _charge(result: SACResult) -> int:
    """Bytes an entry holding ``result`` is charged."""
    footprint = 0 if result.footprint is None else result.footprint.nbytes
    return result.members.array.nbytes + footprint + _ENTRY_OVERHEAD


def _copy(result: SACResult) -> SACResult:
    """``result`` with a private stats dict; the members and footprint are shared."""
    return SACResult(
        result.algorithm, result.query, result.k, result.members, result.circle,
        dict(result.stats), result.footprint,
    )
