"""Shared machinery for the SAC search algorithms.

Every algorithm in Section 4 repeats the same two ingredients:

1. the **candidate set** ``X`` — the k-ĉore of the graph containing the query
   vertex (any feasible solution is a subset of it), together with vertex
   distances from the query and a spatial index over the candidates;
2. the **feasibility probe** — given a circle ``O(p, r)``, restrict the
   candidates to the circle and ask whether a connected k-core containing the
   query survives.

:class:`QueryContext` packages both so the individual algorithm modules stay
small and focused on their search strategies.

AppAcc and Exact+ probe thousands of circles per query, and most of them
hold a vertex set the same query already peeled.  Their probes
(:class:`AnchorProbe`, :meth:`QueryContext.shared_members_in_circle`)
therefore peel and BFS each distinct inside set once per query, and
:meth:`QueryContext.mcc_of` measures each distinct member set once.  Every
probe still makes the decision an uncached probe would, and still counts in
``feasibility_checks``.  AppFast's probes never repeat, so
:meth:`QueryContext.community_members_in_circle` keeps no memo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.result import Members, SACResult
from repro.exceptions import InvalidParameterError, NoCommunityError, VertexNotFoundError
from repro.geometry.circle import Circle
from repro.geometry.grid import CircleScan, GridIndex
from repro.geometry.mec import minimum_enclosing_circle
from repro.geometry.point import Point
from repro.graph.spatial_graph import SpatialGraph
from repro.kcore.connected_core import (
    connected_k_core,
    connected_k_core_in_subset,
    csr_component_mask,
    csr_peel_mask,
)
from repro.kcore.decomposition import gather_neighbors

#: Bytes one query's probe memo, and separately its MEC memo, may hold: keys,
#: values and a fixed per-entry charge.  Past it the oldest entries go first.
_MEMO_BYTES = 4 << 20
#: What one memo entry costs beyond its key and value payloads (the dict
#: slot and the bytes / array / circle object headers), rounded up.
_ENTRY_OVERHEAD = 256
_MISSING = object()


def validate_query(graph: SpatialGraph, query: int, k: int) -> None:
    """Validate the common ``(graph, query, k)`` arguments of SAC search."""
    if not isinstance(k, int) or k < 1:
        raise InvalidParameterError(f"k must be a positive integer, got {k!r}")
    if not 0 <= query < graph.num_vertices:
        raise VertexNotFoundError(query)


def nearest_neighbor_community(graph: SpatialGraph, query: int) -> Set[int]:
    """Return the k=1 community: the query vertex plus its nearest neighbour.

    Section 4.1: "When the input k=1, we can simply return the subgraph
    induced by q and its nearest neighbor."  The nearest neighbour is taken
    among the query's graph neighbours (the subgraph must be connected).
    """
    neighbors = graph.neighbors(query)
    if neighbors.shape[0] == 0:
        raise NoCommunityError(query, 1, "query vertex has no neighbours")
    best = min((graph.distance(query, int(v)), int(v)) for v in neighbors)
    return {query, best[1]}


def _induced_csr(graph: SpatialGraph, vertices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """CSR adjacency of ``G[vertices]`` relabelled to positions in ``vertices``.

    ``vertices`` must be sorted and unique.  Neighbour lists stay sorted
    because the relabelling is monotone.
    """
    indptr, indices = graph.csr
    counts = indptr[vertices + 1] - indptr[vertices]
    neighbors = gather_neighbors(indptr, indices, vertices)
    owners = np.repeat(np.arange(vertices.size, dtype=np.int64), counts)
    keep = np.zeros(graph.num_vertices, dtype=bool)
    keep[vertices] = True
    inside = keep[neighbors]
    local_indices = np.searchsorted(vertices, neighbors[inside])
    local_counts = np.bincount(owners[inside], minlength=vertices.size)
    local_indptr = np.zeros(vertices.size + 1, dtype=np.int64)
    np.cumsum(local_counts, out=local_indptr[1:])
    return local_indptr, local_indices


class _Memo:
    """Insertion-ordered ``bytes -> value`` map holding at most ``_MEMO_BYTES``.

    Each entry is charged its key, its value's payload and
    ``_ENTRY_OVERHEAD``; to admit a new entry the oldest ones are dropped,
    and an entry larger than the whole cap is not kept.  Values are pure
    functions of their keys, so dropping one only costs its recomputation.
    """

    __slots__ = ("_entries", "nbytes")

    def __init__(self) -> None:
        self._entries: Dict[bytes, Tuple[object, int]] = {}
        #: Bytes charged for the entries held now.
        self.nbytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: bytes, default=None):
        """The value stored under ``key``, else ``default``."""
        entry = self._entries.get(key)
        return default if entry is None else entry[0]

    def put(self, key: bytes, value, payload_bytes: int) -> None:
        """Store ``value`` under ``key``, dropping the oldest entries to fit."""
        size = len(key) + payload_bytes + _ENTRY_OVERHEAD
        if size > _MEMO_BYTES or key in self._entries:
            return
        entries = self._entries
        while self.nbytes + size > _MEMO_BYTES:
            self.nbytes -= entries.pop(next(iter(entries)))[1]
        entries[key] = (value, size)
        self.nbytes += size


@dataclass(frozen=True)
class CandidateArtifacts:
    """Cached per-component candidate-set artifacts.

    Everything about a k-ĉore component that does not depend on which of its
    vertices is the query: the member set, the members in ascending index
    order, their coordinate matrix, and a spatial grid index over them.
    Built once per ``(graph, k, component)`` by
    :class:`repro.engine.QueryEngine` and shared by every
    :class:`QueryContext` the engine hands out; the legacy single-query path
    builds a private instance per query.  All fields are shared, so callers
    must never mutate them; the one sanctioned writer is
    :meth:`repro.engine.IncrementalEngine.apply_checkin`, which patches
    ``candidate_coords`` rows through ``grid.move_point`` (the grid's backing
    array *is* ``candidate_coords``) so cached bundles track location
    updates without a rebuild.
    """

    candidates: FrozenSet[int]
    candidate_list: List[int]
    candidate_array: np.ndarray
    candidate_coords: np.ndarray
    grid: GridIndex
    #: CSR adjacency of the subgraph induced by the candidates, with vertices
    #: relabelled to their positions in ``candidate_array``.  Probes run
    #: entirely in this compact id space, so their cost scales with the
    #: component instead of the whole graph.
    local_indptr: np.ndarray
    local_indices: np.ndarray

    @classmethod
    def from_candidates(cls, graph: SpatialGraph, candidates: Set[int]) -> "CandidateArtifacts":
        """Build the artifacts for an explicit (non-empty) candidate set."""
        candidate_list = sorted(int(v) for v in candidates)
        candidate_array = np.asarray(candidate_list, dtype=np.int64)
        candidate_coords = graph.coordinates[candidate_array]
        local_indptr, local_indices = _induced_csr(graph, candidate_array)
        return cls(
            candidates=frozenset(candidate_list),
            candidate_list=candidate_list,
            candidate_array=candidate_array,
            candidate_coords=candidate_coords,
            grid=GridIndex(candidate_coords),
            local_indptr=local_indptr,
            local_indices=local_indices,
        )


class QueryContext:
    """Candidate set and feasibility probes for one ``(graph, query, k)`` query.

    Attributes
    ----------
    candidates:
        The vertex set of the k-ĉore containing the query (set ``X`` in the
        paper).  Empty queries raise :class:`NoCommunityError` at construction.
    distances:
        Mapping vertex -> Euclidean distance from the query vertex.

    When ``artifacts`` is supplied (by :class:`repro.engine.QueryEngine` or
    :meth:`fresh`), the expensive per-graph work — k-ĉore extraction and the
    grid index over the candidates — is reused and only the query-specific
    distance vector is computed.  The two construction paths produce
    bit-identical probe results.

    A context serves one query and keeps two memos for its lifetime, each
    capped at ``_MEMO_BYTES``: peel + BFS results by inside set (for
    :class:`AnchorProbe` and :meth:`shared_members_in_circle`) and MECs by
    member set (for :meth:`mcc_of`).
    """

    def __init__(
        self,
        graph: SpatialGraph,
        query: int,
        k: int,
        *,
        artifacts: Optional[CandidateArtifacts] = None,
        distance_array: Optional[np.ndarray] = None,
    ) -> None:
        validate_query(graph, query, k)
        self.graph = graph
        self.query = query
        self.k = k
        self.feasibility_checks = 0

        if artifacts is None:
            candidates = connected_k_core(graph, query, k)
            if not candidates:
                raise NoCommunityError(query, k)
            artifacts = CandidateArtifacts.from_candidates(graph, candidates)
        elif query not in artifacts.candidates:
            raise NoCommunityError(query, k)
        self._artifacts = artifacts
        self.candidates: FrozenSet[int] = artifacts.candidates

        qx, qy = graph.position(query)
        self.query_point = Point(qx, qy)
        self._candidate_list = artifacts.candidate_list
        if distance_array is None:
            deltas = artifacts.candidate_coords - np.array([qx, qy])
            distance_array = np.hypot(deltas[:, 0], deltas[:, 1])
        elif distance_array.shape != (artifacts.candidate_array.size,):
            raise InvalidParameterError(
                "distance_array must hold one distance per candidate "
                f"({artifacts.candidate_array.size}), got shape {distance_array.shape}"
            )
        #: Distance from the query to each candidate, aligned with
        #: ``artifacts.candidate_array`` (ascending vertex index).  A caller
        #: supplying ``distance_array`` (the group executor of
        #: :mod:`repro.engine.plan`, which computes whole groups in one
        #: vectorised pass) must pass exactly what this constructor would
        #: compute — the bit-identity of every downstream probe rests on it.
        self.distance_array: np.ndarray = distance_array
        self._distances: Optional[Dict[int, float]] = None
        self._grid = artifacts.grid
        # Position of the query inside candidate_array (= its local CSR id).
        self._local_query = int(np.searchsorted(artifacts.candidate_array, query))
        # Peel + BFS results keyed by the sorted local positions of the inside
        # set (``None`` for an infeasible one), and MECs keyed by the sorted
        # member ids: what AppAcc's and Exact+'s probes share within a query.
        self._probe_memo = _Memo()
        self._mec_memo = _Memo()

    @property
    def distances(self) -> Dict[int, float]:
        """Mapping vertex -> distance from the query (built lazily).

        The probe hot paths use :attr:`distance_array` directly; this dict
        view exists for the enumeration-style algorithms and external
        callers.
        """
        if self._distances is None:
            self._distances = {
                v: float(d) for v, d in zip(self._candidate_list, self.distance_array)
            }
        return self._distances

    @property
    def artifacts(self) -> CandidateArtifacts:
        """The (shareable) candidate-set artifacts backing this context."""
        return self._artifacts

    def fresh(self) -> "QueryContext":
        """Return a new context for the same query with a zeroed probe counter.

        Shares the candidate artifacts, so construction costs one distance
        vector; used when one algorithm runs another as a subroutine (e.g.
        ``AppAcc`` seeding itself with ``AppFast``) and the inner run must
        keep its own feasibility bookkeeping.
        """
        return QueryContext(self.graph, self.query, self.k, artifacts=self._artifacts)

    # ------------------------------------------------------------ candidates
    def sorted_by_distance(self) -> List[int]:
        """Candidate vertices sorted by ascending distance (ties by index)."""
        order = np.lexsort((self._artifacts.candidate_array, self.distance_array))
        return self._artifacts.candidate_array[order].tolist()

    def max_candidate_distance(self) -> float:
        """Largest distance from the query to any candidate vertex."""
        return float(self.distance_array.max())

    def member_distances(self, members: np.ndarray) -> np.ndarray:
        """Distances from the query to ``members`` (must all be candidates)."""
        positions = np.searchsorted(self._artifacts.candidate_array, members)
        return self.distance_array[positions]

    def knn_distance(self) -> float:
        """Distance of the k-th nearest candidate *neighbour* of the query.

        This is the lower bound ``l`` of Eq. (1): the query needs at least
        ``k`` of its own neighbours inside any feasible circle centred at it.
        """
        neighbors = np.asarray(self.graph.neighbors(self.query), dtype=np.int64)
        candidate_array = self._artifacts.candidate_array
        positions = np.searchsorted(candidate_array, neighbors)
        in_range = positions < candidate_array.size
        positions, neighbors = positions[in_range], neighbors[in_range]
        positions = positions[candidate_array[positions] == neighbors]
        neighbor_distances = np.sort(self.distance_array[positions])
        if neighbor_distances.size < self.k:
            # Cannot happen for a valid k-ĉore, but keep a safe fallback.
            return float(neighbor_distances[-1]) if neighbor_distances.size else 0.0
        return float(neighbor_distances[self.k - 1])

    def _candidates_in_circle(self, center_x: float, center_y: float, radius: float) -> np.ndarray:
        """Candidate vertex indices inside ``O((x, y), radius)`` as an int64 array.

        A tiny relative inflation of the radius keeps vertices that lie
        exactly on the circle boundary (the "fixed vertices" of an MCC)
        inside the result despite floating-point rounding.
        """
        inflated = radius + 1e-9 * max(1.0, radius)
        hits = self._grid.query_circle_array(center_x, center_y, inflated)
        return self._artifacts.candidate_array[hits]

    def vertices_in_circle(self, center_x: float, center_y: float, radius: float) -> List[int]:
        """Candidate vertices located inside the circle ``O((x, y), radius)``."""
        return self._candidates_in_circle(center_x, center_y, radius).tolist()

    def vertices_in_annulus(
        self, center_x: float, center_y: float, inner: float, outer: float
    ) -> List[int]:
        """Candidate vertices with distance to ``(x, y)`` in ``[inner, outer]``."""
        hits = self._grid.query_annulus_array(center_x, center_y, inner, outer)
        return self._artifacts.candidate_array[hits].tolist()

    # -------------------------------------------------------------- probing
    def community_members_in_circle(
        self, center_x: float, center_y: float, radius: float
    ) -> Optional[np.ndarray]:
        """Array-native probe: k-ĉore members inside ``O((x, y), radius)``.

        Identical decision and member set as :meth:`community_in_circle`, but
        returns a sorted int64 array and never materialises a Python set —
        the form the search loops consume.  The peel + BFS run on the
        component-local CSR, so a probe costs ``O(|candidates in circle|)``
        regardless of the size of the full graph.
        """
        inside = self._probe_inside(center_x, center_y, radius)
        return None if inside is None else self._community_of(inside)

    def shared_members_in_circle(
        self, center_x: float, center_y: float, radius: float
    ) -> Optional[np.ndarray]:
        """:meth:`community_members_in_circle`, peeling each distinct inside set once.

        Same decision, same members and the same count in
        ``feasibility_checks``; the peel + BFS result is kept per inside set
        for the rest of the query, shared with every :class:`AnchorProbe`.
        Exact+'s enumeration probes run here.
        """
        inside = self._probe_inside(center_x, center_y, radius)
        return None if inside is None else self._shared_community_of(np.sort(inside))

    def _probe_inside(self, center_x: float, center_y: float, radius: float) -> Optional[np.ndarray]:
        """Count one probe; the local positions inside the circle, or ``None``.

        ``None`` when the probe is infeasible before any peeling: the query
        lies outside the circle, or the circle holds at most ``k`` candidates.
        """
        self.feasibility_checks += 1
        if self.graph.distance_to_point(self.query, center_x, center_y) > radius + 1e-12:
            return None
        inflated = radius + 1e-9 * max(1.0, radius)
        inside = self._grid.query_circle_array(center_x, center_y, inflated)
        return None if inside.size < self.k + 1 else inside

    def _shared_community_of(self, inside: np.ndarray) -> Optional[np.ndarray]:
        """:meth:`_community_of` a sorted inside set, through the query's probe memo."""
        key = inside.tobytes()
        members = self._probe_memo.get(key, _MISSING)
        if members is _MISSING:
            members = self._community_of(inside)
            if members is not None:
                members.flags.writeable = False  # shared by every caller
            self._probe_memo.put(key, members, 0 if members is None else members.nbytes)
        return members

    def _community_of(self, inside: np.ndarray) -> Optional[np.ndarray]:
        """Peel + BFS: the query's connected k-core in the candidates at ``inside``.

        ``inside`` holds unique local positions (indices into
        ``candidate_array``) in any order; the answer is a sorted int64 array
        of vertex ids, or ``None`` when the query does not survive the peel.
        """
        artifacts = self._artifacts
        core = csr_peel_mask(
            artifacts.local_indptr, artifacts.local_indices, artifacts.candidate_array.size,
            inside, self.k,
        )
        if not core[self._local_query]:
            return None
        component = csr_component_mask(
            artifacts.local_indptr, artifacts.local_indices, core, self._local_query
        )
        return artifacts.candidate_array[np.flatnonzero(component)]

    def community_in_circle(
        self, center_x: float, center_y: float, radius: float
    ) -> Optional[Set[int]]:
        """Return the k-ĉore containing the query inside ``O((x, y), radius)``.

        Returns ``None`` when no feasible community exists in the circle,
        including when the query vertex itself falls outside the circle.
        """
        members = self.community_members_in_circle(center_x, center_y, radius)
        if members is None:
            return None
        return {int(v) for v in members}

    def community_in_subset(self, subset: Sequence[int]) -> Optional[Set[int]]:
        """Return the k-ĉore containing the query inside an arbitrary vertex subset.

        Subsets that lie within the candidate set (the common case — AppInc's
        prefixes, Exact's circle contents) are probed on the component-local
        CSR so the cost scales with the subset, not the whole graph; anything
        else falls back to the graph-wide peeling.
        """
        self.feasibility_checks += 1
        if isinstance(subset, np.ndarray):
            members = np.unique(subset.astype(np.int64, copy=False))
        else:
            members = np.unique(np.fromiter((int(v) for v in subset), dtype=np.int64))
        if members.size == 0:
            return None
        candidate_array = self._artifacts.candidate_array
        positions = np.searchsorted(candidate_array, members)
        in_candidates = (
            members[0] >= candidate_array[0]
            and members[-1] <= candidate_array[-1]
            and bool((candidate_array[np.minimum(positions, candidate_array.size - 1)] == members).all())
        )
        if not in_candidates:
            return connected_k_core_in_subset(self.graph, members, self.query, self.k)
        artifacts = self._artifacts
        core = csr_peel_mask(
            artifacts.local_indptr, artifacts.local_indices, candidate_array.size,
            positions, self.k,
        )
        if not core[self._local_query]:
            return None
        component = csr_component_mask(
            artifacts.local_indptr, artifacts.local_indices, core, self._local_query
        )
        return {int(v) for v in candidate_array[np.flatnonzero(component)]}

    # --------------------------------------------------------------- results
    def mcc_of(self, members) -> Circle:
        """Minimum covering circle of the locations of ``members``.

        Accepts any iterable of vertex indices (a probe's int64 array,
        :class:`Members`, a set); the members are passed to the MEC in
        ascending index order so the result is deterministic regardless of
        the container.  Each distinct member set is measured once per query.
        """
        if isinstance(members, Members):
            arr = members.array.astype(np.int64)
        elif isinstance(members, np.ndarray):
            arr = np.sort(members.astype(np.int64, copy=False))
        else:
            arr = np.sort(np.fromiter((int(v) for v in members), dtype=np.int64))
        key = arr.tobytes()
        circle = self._mec_memo.get(key)
        if circle is None:
            circle = minimum_enclosing_circle(self.graph.coordinates[arr])
            self._mec_memo.put(key, circle, 0)
        return circle

    def make_result(
        self,
        algorithm: str,
        members,
        stats: Optional[Dict[str, float]] = None,
        *,
        footprint: Optional[np.ndarray] = None,
    ) -> SACResult:
        """Wrap a member set into an :class:`SACResult` with its MCC.

        ``members`` is a probe's sorted array or any other iterable
        :class:`Members` is built from.  The MEC is looked up under the
        same key the query's probes measured it with.  ``footprint`` is
        passed through (AppFast's, see :func:`repro.core.appfast.unchanged_by`).
        """
        stats = dict(stats or {})
        stats.setdefault("feasibility_checks", self.feasibility_checks)
        stats.setdefault("candidate_set_size", len(self.candidates))
        return SACResult(
            algorithm=algorithm,
            query=self.query,
            k=self.k,
            members=Members(members),
            circle=self.mcc_of(members),
            stats=stats,
            footprint=footprint,
        )


class AnchorProbe:
    """Feasibility probes of circles around one anchor point.

    AppAcc's binary search around an anchor runs through one of these, built
    for radii up to ``largest``.  Calling it with ``r`` decides exactly what
    ``context.community_members_in_circle(x, y, r)`` decides, returns the
    same members and counts once in the context's ``feasibility_checks``,
    but

    * the grid is asked once, at ``largest``; the inside set at ``r`` is a
      prefix of that answer ordered by distance (:class:`CircleScan`);
    * a prefix no longer than one already found infeasible is infeasible
      (a k-core inside a subset is a k-core inside the superset), and a
      prefix length seen before repeats its answer;
    * any other prefix goes through the context's probe memo, which the
      other anchors and Exact+'s enumeration share.
    """

    __slots__ = ("_context", "_x", "_y", "_query_distance", "_scan", "_by_length", "_infeasible")

    def __init__(self, context: QueryContext, center_x: float, center_y: float, largest: float) -> None:
        self._context = context
        self._x = center_x
        self._y = center_y
        self._query_distance = context.graph.distance_to_point(context.query, center_x, center_y)
        inflated = largest + 1e-9 * max(1.0, largest)
        self._scan = CircleScan(context._grid, center_x, center_y, inflated)
        self._by_length: Dict[int, np.ndarray] = {}  # feasible prefixes seen
        self._infeasible = 0  # longest prefix known to be infeasible

    def __call__(self, radius: float) -> Optional[np.ndarray]:
        """The k-ĉore members inside ``O(anchor, radius)``, or ``None``."""
        context = self._context
        count = self._scan.prefix_length(radius + 1e-9 * max(1.0, radius))
        if count < 0:  # not a prefix of the scan: ask the grid
            return context.shared_members_in_circle(self._x, self._y, radius)
        context.feasibility_checks += 1
        if (
            self._query_distance > radius + 1e-12
            or count < context.k + 1
            or count <= self._infeasible
        ):
            return None
        members = self._by_length.get(count)
        if members is None:
            members = context._shared_community_of(np.sort(self._scan.indices[:count]))
            if members is None:
                self._infeasible = count
                return None
            self._by_length[count] = members
        return members


def resolve_context(
    graph: SpatialGraph, query: int, k: int, context: Optional[QueryContext]
) -> QueryContext:
    """Return ``context`` when supplied (after a consistency check), else build one.

    Lets every SAC algorithm accept a pre-built context from
    :class:`repro.engine.QueryEngine` while keeping the legacy
    ``algorithm(graph, query, k)`` call bit-identical.
    """
    if context is None:
        return QueryContext(graph, query, k)
    if context.graph is not graph or context.query != query or context.k != k:
        raise InvalidParameterError(
            "supplied QueryContext was built for a different (graph, query, k)"
        )
    return context


def incremental_feasible_region(context: QueryContext) -> Tuple[Set[int], float]:
    """Find the smallest query-centred circle containing a feasible solution.

    Scans candidate vertices in ascending distance from the query, adding one
    vertex at a time, and probes feasibility whenever the cheap necessary
    condition (the query has at least ``k`` neighbours among the vertices
    added so far) holds.  Returns the feasible community found and the radius
    ``delta`` of the query-centred circle that contains it.

    This realises the incremental strategy of ``AppInc`` (Algorithm 2) and is
    also used by ``AppFast(0)`` as a reference in tests.
    """
    graph = context.graph
    query = context.query
    k = context.k
    ordered = np.asarray(context.sorted_by_distance(), dtype=np.int64)

    # Prefix bookkeeping, vectorised: probe at exactly the prefixes where the
    # query already has >= k neighbours and the candidate circle holds at
    # least k + 1 vertices (the cheap necessary conditions).
    query_neighbors = np.asarray(graph.neighbors(query), dtype=np.int64)
    is_neighbor = np.isin(ordered, query_neighbors)
    neighbor_counts = np.cumsum(is_neighbor)
    sizes = np.arange(1, ordered.size + 1)
    probe_at = np.flatnonzero((neighbor_counts >= k) & (sizes >= k + 1))

    for index in probe_at:
        prefix = ordered[: int(index) + 1]
        community = context.community_in_subset(prefix)
        if community is not None:
            delta = float(context.member_distances(ordered[index : index + 1])[0])
            return community, delta
    raise NoCommunityError(query, k, "no feasible solution in any query-centred circle")
