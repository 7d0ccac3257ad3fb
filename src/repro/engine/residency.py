"""Lazy bundle residency: an LRU byte budget over the mmap'd store.

:class:`BundleResidency` replaces the engine's eager ``{(k, representative):
CandidateArtifacts}`` dict.  The memory-mapped :class:`repro.store.ArtifactStore`
is the source of truth; bundles materialise on first touch, resident bundles
are tracked in LRU order under a configurable byte budget, and eviction
distinguishes three bundle states:

* **clean, store-backed** — dropped outright; the store reloads it on the
  next touch and the pack pages are ``madvise``\\ d away, so eviction is a
  real RSS reduction;
* **clean, engine-built** (no snapshot ever covered it) — the arrays are
  dropped and the bundle rebuilds from the live graph on the next touch;
* **dirty** (patched by a check-in or thawed for mutation) — *pinned*: the
  store copy is stale, the resident arrays are the only truth, so dirty
  bundles are never evicted until the next snapshot folds them in
  (:meth:`notify_snapshot` releases the pins).

For every bundle the manager knows about but does not hold resident it keeps
a **ghost**: the bundle's sorted member array (a zero-copy store view for
store-backed keys, the retained ``candidate_array`` otherwise).  Ghosts are
what let :class:`repro.engine.IncrementalEngine` route mutations — a
check-in or edge flip must bump the version counter of *every* affected
bundle, resident or not, or caches would serve stale answers.  With an
unlimited budget the ghost set is exactly the set of keys the old eager
path would have held resident, so version-counter sequences (and therefore
replicated answers) are bit-identical to pre-residency builds.

Byte accounting covers the bundle's arrays plus a fixed per-member estimate
for the Python-object side (``candidate_list`` and the ``candidates``
frozenset), so the budget tracks real memory rather than just numpy
payloads.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

Key = Tuple[int, int]

#: Estimated heap bytes per member for a bundle's Python-side containers
#: (one list slot + one boxed int shared with the frozenset + a set entry).
#: An estimate on purpose: exact ``sys.getsizeof`` walks would cost more
#: than the accounting is worth, and the benchmark's slack absorbs the
#: difference.
_PYOBJ_BYTES_PER_MEMBER = 56


def bundle_nbytes(bundle) -> int:
    """Resident-byte estimate of one live ``CandidateArtifacts`` bundle."""
    grid_state = bundle.grid.export_state()
    arrays = (
        bundle.candidate_array,
        bundle.candidate_coords,
        bundle.local_indptr,
        bundle.local_indices,
        grid_state["order"],
        grid_state["starts"],
    )
    total = sum(int(array.nbytes) for array in arrays)
    return total + bundle.candidate_array.size * _PYOBJ_BYTES_PER_MEMBER


class BundleResidency:
    """LRU-bounded resident set of artifact bundles over an optional store.

    Exposes the mapping surface the engines already use (``in``, ``[]``,
    ``del``, ``items`` — all touching only the *resident* set) plus the
    residency protocol: :meth:`fetch` (LRU touch / store materialise),
    :meth:`mark_dirty`, :meth:`invalidate`, ghost probes, and
    :meth:`notify_snapshot`.

    Parameters
    ----------
    max_bytes:
        Resident-byte budget; ``None`` means unlimited (bundles still load
        lazily, nothing is ever evicted).
    stats:
        An :class:`repro.engine.EngineStats` to receive the
        ``bundles_materialised`` / ``bundles_evicted`` / ``resident_bytes``
        counters; optional so the manager stays testable in isolation.
    """

    def __init__(self, *, max_bytes: Optional[int] = None, stats=None) -> None:
        if max_bytes is not None and int(max_bytes) <= 0:
            raise ValueError("max_bytes must be positive (or None for unlimited)")
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        self.stats = stats
        self.store = None
        self._resident: "OrderedDict[Key, object]" = OrderedDict()
        self._nbytes: Dict[Key, int] = {}
        self._store_backed: Set[Key] = set()
        self._ghosts: Dict[Key, np.ndarray] = {}
        self._pinned: Set[Key] = set()
        self._dirty: Set[Key] = set()
        self.total_bytes = 0

    # ------------------------------------------------------------- store bind
    def bind_store(self, store) -> None:
        """Adopt a snapshot as the backing truth; ghost every absent bundle."""
        self.store = store
        for key in store.bundle_keys():
            if key not in self._resident and key not in self._dirty:
                self._ghosts[key] = store.bundle_members(*key)

    # -------------------------------------------------------- mapping surface
    def __contains__(self, key: Key) -> bool:
        return key in self._resident

    def __len__(self) -> int:
        return len(self._resident)

    def __iter__(self) -> Iterator[Key]:
        return iter(self._resident)

    def keys(self):
        """Keys of the resident bundles, LRU → MRU."""
        return self._resident.keys()

    def items(self):
        """``(key, bundle)`` pairs of the resident set, LRU → MRU."""
        return self._resident.items()

    def get(self, key: Key, default=None):
        """Resident bundle for ``key`` (no LRU touch), else ``default``."""
        return self._resident.get(key, default)

    def __getitem__(self, key: Key):
        return self._resident[key]

    def __setitem__(self, key: Key, bundle) -> None:
        """Install an engine-built (or thawed) bundle as most-recently used.

        The key stops being store-backed — the caller's object, not the
        snapshot blob, is now the resident truth — and its ghost is dropped
        (resident bundles are probed directly).
        """
        self._forget(key)
        self._resident[key] = bundle
        self._resident.move_to_end(key)
        self._account(key, bundle_nbytes(bundle))
        self._store_backed.discard(key)
        self._ghosts.pop(key, None)
        self._evict_to_budget()

    def __delitem__(self, key: Key) -> None:
        """Invalidation-drop: see :meth:`invalidate` (``del`` aliases it)."""
        self.invalidate(key)

    # -------------------------------------------------------------- residency
    def fetch(self, key: Key):
        """Resident hit → LRU touch; clean store-backed miss → materialise.

        Returns ``None`` when the bundle must be (re)built from the live
        graph: unknown keys, and dirty keys whose snapshot copy is stale.
        """
        bundle = self._resident.get(key)
        if bundle is not None:
            self._resident.move_to_end(key)
            return bundle
        if (
            self.store is not None
            and key not in self._dirty
            and self.store.has_bundle(*key)
        ):
            bundle = self.store.load_bundle(*key)
            self._resident[key] = bundle
            self._account(key, bundle_nbytes(bundle))
            self._store_backed.add(key)
            self._ghosts.pop(key, None)
            if self.stats is not None:
                self.stats.bundles_materialised += 1
            self._evict_to_budget()
            return bundle
        return None

    def _evict_to_budget(self) -> None:
        """Evict clean LRU bundles (never the newest) until under budget."""
        if self.max_bytes is None:
            return
        while self.total_bytes > self.max_bytes and len(self._resident) > 1:
            victim = None
            newest = next(reversed(self._resident))
            for key in self._resident:
                if key == newest:
                    break
                if key not in self._pinned:
                    victim = key
                    break
            if victim is None:
                return  # everything older is pinned dirty — over budget until snapshot
            self._evict(victim)

    def _evict(self, key: Key) -> None:
        bundle = self._resident.pop(key)
        self._account(key, 0)
        if key in self._store_backed:
            self._store_backed.discard(key)
            # Keep the membership probe as a zero-copy store view and tell
            # the kernel the materialised blob pages can go.
            self._ghosts[key] = self.store.bundle_members(*key)
            self.store.release_bundle(*key)
        else:
            self._ghosts[key] = bundle.candidate_array
        if self.stats is not None:
            self.stats.bundles_evicted += 1

    def _account(self, key: Key, nbytes: int) -> None:
        self.total_bytes += nbytes - self._nbytes.pop(key, 0)
        if nbytes:
            self._nbytes[key] = nbytes
        if self.stats is not None:
            self.stats.resident_bytes = self.total_bytes

    def _forget(self, key: Key) -> None:
        if key in self._resident:
            del self._resident[key]
            self._account(key, 0)
        self._store_backed.discard(key)
        self._pinned.discard(key)

    # ------------------------------------------------------------- mutations
    def mark_dirty(self, key: Key) -> None:
        """The bundle diverged from the snapshot: pin it if resident.

        Dirty keys never rematerialise from the store (:meth:`fetch` returns
        ``None`` for them once non-resident) and resident dirty bundles are
        never evicted — their arrays are the only copy of the patched state
        until :meth:`notify_snapshot` persists them.
        """
        self._dirty.add(key)
        if key in self._resident:
            self._pinned.add(key)
            self._store_backed.discard(key)

    def invalidate(self, key: Key) -> None:
        """The bundle's member set changed: drop every trace of it.

        Resident arrays, the ghost (its member list is stale), and any
        store-backing all go; the key is marked dirty so the snapshot copy
        is never trusted again.  The next touch rebuilds from the live
        graph.
        """
        if key in self._resident:
            store_backed = key in self._store_backed
            self._forget(key)
            if store_backed and self.store is not None:
                self.store.release_bundle(*key)
        self._ghosts.pop(key, None)
        self._dirty.add(key)

    # ---------------------------------------------------------------- ghosts
    def ghost_keys(self) -> List[Key]:
        """Keys of known non-resident bundles (snapshot order, then evictions)."""
        return list(self._ghosts)

    def ghost_members(self, key: Key) -> np.ndarray:
        """Sorted member array of one non-resident bundle."""
        return self._ghosts[key]

    def is_dirty(self, key: Key) -> bool:
        """Whether ``key`` diverged from its snapshot copy since the last save."""
        return key in self._dirty

    def is_pinned(self, key: Key) -> bool:
        """Whether ``key`` is resident, dirty, and therefore unevictable."""
        return key in self._pinned

    # -------------------------------------------------------------- snapshot
    def notify_snapshot(self, store) -> None:
        """A snapshot just persisted the engine's state: re-anchor on it.

        Every dirty bundle that was resident (pinned) is now folded into
        ``store``, so pins release and the whole resident set counts as
        store-backed again (evictable, reloadable).  Dirty *ghosts* — keys
        patched or invalidated while non-resident — were not exported; they
        stay out of the store and will rebuild from the graph, which the
        cleared dirty set handles naturally because :meth:`fetch` only
        consults ``store.has_bundle``.
        """
        self._dirty.clear()
        self._pinned.clear()
        self.store = store
        snapshot_keys = set(store.bundle_keys())
        self._store_backed = {key for key in self._resident if key in snapshot_keys}
        for key in snapshot_keys:
            if key not in self._resident:
                self._ghosts[key] = store.bundle_members(*key)
        self._evict_to_budget()

    # ---------------------------------------------------------------- export
    def export_bundles(self) -> Dict[Key, object]:
        """Bundle dict for :meth:`repro.engine.QueryEngine.export_state`.

        Resident bundles export live; clean non-resident store-backed keys
        export as raw :meth:`repro.store.ArtifactStore.bundle_state` dicts —
        zero-copy views the next :meth:`~repro.store.ArtifactStore.save`
        writes back verbatim, so snapshotting never materialises the cold
        tail of the key space.
        """
        bundles: Dict[Key, object] = dict(self._resident)
        if self.store is not None:
            for key in self._ghosts:
                if key not in self._dirty and self.store.has_bundle(*key):
                    bundles[key] = self.store.bundle_state(*key)
        return bundles

    # ------------------------------------------------------------------ info
    def describe(self) -> Dict[str, object]:
        """Operator summary for ``GET /stats`` and the CLI footers."""
        return {
            "resident_bundles": len(self._resident),
            "resident_bytes": self.total_bytes,
            "max_resident_bytes": self.max_bytes,
            "pinned_dirty": len(self._pinned),
            "dirty": len(self._dirty),
            "ghosts": len(self._ghosts),
            "store_backed": len(self._store_backed),
        }
