"""The :class:`IncrementalEngine` — survive dynamic updates without rebuilds.

The paper's dynamic scenario (Section 5.2.3, Figure 13) replays a check-in
stream: every record moves one user and re-queries their community.  A
:class:`~repro.engine.engine.QueryEngine` bound to a static graph would have
to be thrown away at each record, discarding the core decomposition, every
k-ĉore labelling, and every per-component artifact bundle.  This engine
instead **owns** the mutation of its bound graph and repairs the caches:

* **Check-ins** (:meth:`IncrementalEngine.apply_checkin`) — core numbers and
  k-ĉore labellings are location-independent, so *nothing* structural is
  invalidated.  The vertex's coordinate row moves (in the graph and in every
  cached bundle whose component contains it) and its grid cell is spliced in
  place; the per-query distance vector was never cached to begin with.
* **Edge updates** (:meth:`IncrementalEngine.apply_edge`) — core numbers are
  repaired with the subcore-confined peeling of
  :mod:`repro.kcore.maintenance` (a single edge changes core numbers by at
  most 1, and only inside the subcore of its lower endpoint).  Labellings
  and bundles are invalidated *selectively*: only the ``k`` levels whose
  k-core subgraph actually contains the edge or whose membership changed,
  and within those only the bundles whose component was touched.  Everything
  dropped is rebuilt lazily by the next query that needs it.

Queries answered between updates are bit-identical to tearing the engine
down and rebuilding it from scratch on the mutated graph — the property
tests in ``tests/test_incremental_engine.py`` interleave random check-ins,
edge flips, and queries to enforce exactly that.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Tuple

import numpy as np

from repro.core.appfast import Move
from repro.core.base import CandidateArtifacts
from repro.engine.engine import QueryEngine
from repro.exceptions import InvalidParameterError
from repro.geometry.grid import GridIndex
from repro.kcore.decomposition import gather_neighbors
from repro.kcore.maintenance import demote_after_delete, promote_after_insert


class IncrementalEngine(QueryEngine):
    """A :class:`~repro.engine.engine.QueryEngine` with an in-place update API.

    The engine takes ownership of its graph: all mutations must flow through
    :meth:`apply_checkin` / :meth:`apply_edge` so the caches can be repaired.
    Callers that need the original graph untouched should bind the engine to
    :meth:`graph.mutable_copy() <repro.graph.SpatialGraph.mutable_copy>`, as
    :class:`repro.dynamic.SACTracker` does.

    Examples
    --------
    >>> engine = IncrementalEngine(graph.mutable_copy())    # doctest: +SKIP
    >>> engine.apply_checkin(42, 0.31, 0.77)                # doctest: +SKIP
    >>> engine.apply_edge(42, 99, "insert")                 # doctest: +SKIP
    >>> engine.search(42, k=4, algorithm="appfast")         # doctest: +SKIP
    """

    # ------------------------------------------------------------- check-ins
    def apply_checkin(self, user: int, x: float, y: float) -> None:
        """Move ``user`` to ``(x, y)``, repairing every cached artifact in place.

        Core numbers and component labellings are location-independent and
        stay valid untouched.  Each cached bundle whose candidate set
        contains the user has its coordinate row and grid cell patched via
        :meth:`repro.geometry.GridIndex.move_point`; bundles of other
        components are not even inspected beyond one binary search.
        """
        user = int(user)
        x, y = float(x), float(y)
        graph = self.graph
        old = graph.position(user) if 0 <= user < graph.num_vertices else None
        graph.update_location(user, x, y)  # validates the vertex
        move = (user, *old, x, y)
        for key, bundle in list(self._artifacts.items()):
            candidates = bundle.candidate_array
            position = int(np.searchsorted(candidates, user))
            if position < candidates.size and candidates[position] == user:
                if not bundle.candidate_coords.flags.writeable:
                    # Warm-started bundle backed by a read-only snapshot map:
                    # copy-on-first-mutate, leaving the snapshot untouched.
                    bundle = self._thaw_bundle(key)
                # The bundle's grid shares its coordinate matrix, so one
                # move_point updates both the cell layout and the row that
                # future distance vectors will read.
                bundle.grid.move_point(position, x, y)
                self.stats.bundles_patched += 1
                # Patched state diverges from the snapshot: pin the bundle
                # (its arrays are the only copy) until the next snapshot.
                self._artifacts.mark_dirty(key)
                self._bump_version(key, move)
        # Non-resident bundles cannot be patched, but any that contain the
        # user are now stale relative to the snapshot: mark them dirty so
        # the next touch rebuilds from the live graph instead of loading
        # the old coordinates, and bump their versions so cached answers
        # retire.  The ghost member arrays make this one
        # binary search per known bundle — no materialisation.
        for key in self._artifacts.ghost_keys():
            members = self._artifacts.ghost_members(key)
            position = int(np.searchsorted(members, user))
            if position < members.size and int(members[position]) == user:
                self._artifacts.mark_dirty(key)
                self._bump_version(key, move)
        self.stats.location_updates += 1

    # ------------------------------------------------------------ WAL replay
    def apply_record(self, record: "dict") -> None:
        """Replay one write-ahead-log mutation record (see :mod:`repro.store.wal`).

        This is the replication tier's replay entry point: the writer
        serialises every applied mutation as a record, and replicas feed the
        records through here **in LSN order** — the same in-place repair
        paths then run on the replica that ran on the writer, so replayed
        state (including the per-``(k, representative)`` version counters
        that drive cache invalidation) is bit-identical to the writer's.

        Two record shapes are understood; vertex ids are internal indices,
        which are identical across engines warm-started from one snapshot::

            {"op": "checkin", "user": 3, "x": 0.5, "y": 0.25}
            {"op": "edge", "u": 3, "v": 9, "action": "insert" | "delete"}

        Unknown ``op`` values raise
        :class:`~repro.exceptions.InvalidParameterError` so a replica halts
        on a log written by a newer build instead of silently diverging.
        """
        op = record.get("op")
        if op == "checkin":
            self.apply_checkin(record["user"], record["x"], record["y"])
        elif op == "edge":
            self.apply_edge(record["u"], record["v"], str(record.get("action", "insert")))
        else:
            raise InvalidParameterError(f"unknown WAL record op {op!r}")

    # ----------------------------------------------------------- edge updates
    def apply_edge(self, u: int, v: int, op: str = "insert") -> np.ndarray:
        """Insert or delete edge ``{u, v}`` and repair the caches incrementally.

        ``op`` is ``"insert"`` or ``"delete"``.  Returns the (possibly
        empty) sorted array of vertices whose core number changed.
        Invalid operations (duplicate insert,
        missing delete, self-loop) raise
        :class:`~repro.exceptions.GraphConstructionError` before anything is
        modified.

        Invalidation is the minimum the update can justify:

        * core numbers are repaired in place (subcore peeling), never
          recomputed graph-wide;
        * a labelling at level ``k`` is dropped only when the k-core's
          membership changed at that level, when two components merged, or
          when a deletion may have split one;
        * a bundle is dropped only when the update touched its candidate set
          (endpoint inside it for an in-k-core edge, or adjacency to a
          promoted/demoted vertex); all other bundles — including every
          bundle at unaffected ``k`` levels — survive, which is what the
          representative keying of the cache exists for.
        """
        if op not in ("insert", "delete"):
            raise InvalidParameterError(
                f"op must be 'insert' or 'delete', got {op!r}"
            )
        insert = op == "insert"
        u, v = int(u), int(v)

        had_cores = self._cores is not None
        if had_cores:
            if not self._cores.flags.writeable:
                # Warm-started cores are a read-only snapshot map; the
                # subcore repair below mutates them in place, so thaw first.
                self._cores = np.array(self._cores)
            old_min = int(min(self._cores[u], self._cores[v]))
        if insert:
            self.graph.add_edge(u, v)
        else:
            self.graph.remove_edge(u, v)
        self.stats.edge_updates += 1
        if not had_cores:
            # Invariant: labellings and bundles only exist downstream of the
            # core decomposition, so with no cores there is nothing to repair.
            return np.zeros(0, dtype=np.int64)

        indptr, indices = self.graph.csr
        if insert:
            changed = promote_after_insert(indptr, indices, self._cores, u, v)
            self.stats.cores_promoted += int(changed.size)
            changed_level = old_min + 1
            # The new edge exists inside the k-core subgraph for every
            # k <= min of the *new* endpoint core numbers.
            edge_level = int(min(self._cores[u], self._cores[v]))
        else:
            changed = demote_after_delete(indptr, indices, self._cores, u, v)
            self.stats.cores_demoted += int(changed.size)
            changed_level = old_min
            # The old edge existed inside the k-core subgraph for every
            # k <= min of the *old* endpoint core numbers.
            edge_level = old_min

        self._invalidate_for_edge(u, v, insert, changed, changed_level, edge_level)
        return changed

    def insert_edge(self, u: int, v: int) -> np.ndarray:
        """Shorthand for :meth:`apply_edge` with ``op="insert"``."""
        return self.apply_edge(u, v, "insert")

    def delete_edge(self, u: int, v: int) -> np.ndarray:
        """Shorthand for :meth:`apply_edge` with ``op="delete"``."""
        return self.apply_edge(u, v, "delete")

    # ----------------------------------------------------------- invalidation
    def _invalidate_for_edge(
        self,
        u: int,
        v: int,
        insert: bool,
        changed: np.ndarray,
        changed_level: int,
        edge_level: int,
    ) -> None:
        """Drop exactly the labellings and bundles the edge update touched."""
        # Vertices whose components' bundles are stale, per k level.  For an
        # in-k-core edge the endpoints' components merge / gain an internal
        # edge / may split, so any bundle containing an endpoint goes.  At
        # the membership-change level, components adjacent to a promoted
        # vertex absorb it (insert), and components of a demoted vertex lose
        # it (delete) — demotions are always inside an endpoint's component,
        # but promotions can graft onto components that contain neither
        # endpoint, so adjacency must be checked explicitly.
        if changed.size:
            if insert:
                touched_by_change = np.unique(
                    gather_neighbors(*self.graph.csr, changed)
                )
            else:
                touched_by_change = changed
        else:
            touched_by_change = np.zeros(0, dtype=np.int64)
        endpoints = np.array(sorted((u, v)), dtype=np.int64)

        def probes_for(k: int):
            probes = []
            if k <= edge_level:
                probes.append(endpoints)
            if changed.size and k == changed_level:
                probes.append(touched_by_change)
            return probes

        for key in list(self._artifacts):
            probes = probes_for(key[0])
            if probes and self._bundle_contains_any(key, np.concatenate(probes)):
                del self._artifacts[key]
                self.stats.bundles_invalidated += 1
                self._bump_version(key)

        # Non-resident bundles are invalidated through their ghost member
        # arrays: the member set (or induced adjacency) may have changed, so
        # the ghost itself is stale and is dropped along with any trust in
        # the snapshot copy — the next touch rebuilds from the live graph.
        for key in self._artifacts.ghost_keys():
            probes = probes_for(key[0])
            if probes and _members_contain_any(
                self._artifacts.ghost_members(key), np.concatenate(probes)
            ):
                self._artifacts.invalidate(key)
                self.stats.bundles_invalidated += 1
                self._bump_version(key)

        for k in list(self._labels):
            drop = False
            if changed.size and k == changed_level:
                drop = True  # k-core membership changed at this level
            elif k <= edge_level:
                if insert:
                    labels, _ = self._labels[k]
                    # Endpoints in distinct components: the edge merges them.
                    # Same component: an internal edge never changes the
                    # labelling, only the (already dropped) bundle.
                    drop = labels[u] != labels[v]
                else:
                    drop = True  # removing an in-core edge may split
            if drop:
                del self._labels[k]
                del self._reps[k]
                self.stats.labelings_invalidated += 1

    def _thaw_bundle(self, key: Tuple[int, int]) -> CandidateArtifacts:
        """Swap a read-only (memory-mapped) bundle for a writable copy.

        Only the arrays an in-place location patch writes are copied — the
        coordinate matrix and the grid's bucket arrays; members and the
        local CSR stay shared with the snapshot (they are never patched,
        only dropped).  The copy replaces the cached bundle, so the thaw
        happens at most once per bundle (``stats.bundles_thawed``).
        """
        bundle = self._artifacts[key]
        coords = np.array(bundle.candidate_coords)
        state = bundle.grid.export_state()
        state["order"] = np.array(state["order"])
        state["starts"] = np.array(state["starts"])
        thawed = replace(
            bundle,
            candidate_coords=coords,
            grid=GridIndex.from_state(coords, state),
        )
        self._artifacts[key] = thawed
        self.stats.bundles_thawed += 1
        return thawed

    def _bump_version(self, key: Tuple[int, int], move: Optional[Move] = None) -> None:
        """Advance the component version behind ``(k, representative)``.

        The version counter is the eviction signal consumed by
        :class:`repro.service.AnswerCache`: every in-place patch (check-in)
        and every bundle drop (edge update) moves it, so a cached answer
        recorded at an older version is known stale without the cache ever
        inspecting the graph.  Bumps ride the existing representative-keyed
        invalidation machinery — a component the update did not touch keeps
        its version, and with it every cached answer.

        The bump's cause goes into the move log: the check-in's ``move``, or
        ``None`` for an edge update.  Through :meth:`checkins_between` the
        cache keeps an AppFast answer across check-ins its footprint shows
        cannot change it.
        """
        version = self._bundle_versions.get(key, 0) + 1
        self._bundle_versions[key] = version
        self._move_log.append((key, version, move))

    def _bundle_contains_any(self, key: Tuple[int, int], vertices: np.ndarray) -> bool:
        """Whether the bundle's sorted candidate array intersects ``vertices``."""
        return _members_contain_any(self._artifacts[key].candidate_array, vertices)


def _members_contain_any(candidates: np.ndarray, vertices: np.ndarray) -> bool:
    """Whether a sorted member array intersects ``vertices`` (binary search)."""
    positions = np.searchsorted(candidates, vertices)
    inside = positions < candidates.size
    return bool((candidates[positions[inside]] == vertices[inside]).any())
