"""The :class:`SpatialGraph` data structure.

Design
------
Vertices are dense integer indices ``0..n-1``.  Arbitrary user-facing labels
(user ids, names) are kept in a label table and translated at the API
boundary, so hot loops only ever touch integers.  Adjacency is stored as one
numpy ``int32`` array per vertex (sorted), which keeps neighbour iteration
allocation-free and makes degree lookups O(1).  Coordinates live in a single
``(n, 2)`` float64 matrix shared with the spatial grid index.

The structure supports two update styles.  The *copy-on-write* style
(:meth:`SpatialGraph.with_updated_locations`) produces cheap copies that
share the adjacency arrays and only replace the coordinate matrix — the
right tool for one-off snapshots.  The *in-place* style
(:meth:`~SpatialGraph.update_location`, :meth:`~SpatialGraph.add_edge`,
:meth:`~SpatialGraph.remove_edge`) mutates the bound arrays directly so that
long-lived caches over the graph (notably
:class:`repro.engine.IncrementalEngine`) can be repaired incrementally
instead of rebuilt; edge mutations allocate fresh CSR arrays, so snapshots
sharing the previous CSR tuple are never corrupted.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import (
    GraphConstructionError,
    InvalidParameterError,
    VertexNotFoundError,
)
from repro.geometry.grid import GridIndex

Label = Hashable


class SpatialGraph:
    """An undirected graph whose vertices carry 2-D coordinates.

    Instances are usually created through :class:`repro.graph.GraphBuilder`
    or the dataset generators rather than directly.

    Parameters
    ----------
    adjacency:
        Sequence of ``n`` sorted numpy ``int32`` arrays; ``adjacency[v]``
        holds the neighbours of vertex ``v``.
    coordinates:
        ``(n, 2)`` float64 array of vertex locations.
    labels:
        Optional sequence of user-facing vertex labels.  Defaults to the
        integer indices themselves.
    build_index:
        Whether to build the spatial grid index eagerly.  The index is built
        lazily on first use otherwise.
    """

    def __init__(
        self,
        adjacency: Sequence[np.ndarray],
        coordinates: np.ndarray,
        labels: Optional[Sequence[Label]] = None,
        *,
        build_index: bool = False,
    ) -> None:
        coords = np.asarray(coordinates, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise GraphConstructionError("coordinates must be an (n, 2) array")
        if len(adjacency) != coords.shape[0]:
            raise GraphConstructionError(
                f"adjacency has {len(adjacency)} vertices but coordinates has {coords.shape[0]}"
            )
        self._rows: Optional[List[np.ndarray]] = [
            np.asarray(neighbors, dtype=np.int32) for neighbors in adjacency
        ]
        self._row_source: Optional[np.ndarray] = None
        self._coords = coords
        # What :meth:`labels_of` needs: whether the labels are the indices
        # themselves, else the lookup array it indexes (built on first use).
        self._identity_labels = labels is None
        self._label_table: Optional[np.ndarray] = None
        if labels is None:
            labels = list(range(coords.shape[0]))
        if len(labels) != coords.shape[0]:
            raise GraphConstructionError("labels length must equal the number of vertices")
        self._labels: List[Label] = list(labels)
        self._label_to_index: Optional[Dict[Label, int]] = {
            label: index for index, label in enumerate(self._labels)
        }
        if len(self._label_to_index) != len(self._labels):
            raise GraphConstructionError("vertex labels must be unique")
        self._degrees = np.array(
            [neighbors.shape[0] for neighbors in self._rows], dtype=np.int64
        )
        self._edge_count = int(self._degrees.sum()) // 2
        self._csr: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._grid: Optional[GridIndex] = None
        if build_index:
            _ = self.grid

    @classmethod
    def from_csr(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        coordinates: np.ndarray,
        labels: Optional[Sequence[Label]] = None,
    ) -> "SpatialGraph":
        """Build a graph directly from a CSR adjacency view.

        ``indices[indptr[v]:indptr[v + 1]]`` must be the sorted neighbours of
        vertex ``v``.  The per-vertex adjacency rows become views into one
        shared ``int32`` copy of ``indices`` (no per-row allocation) and the
        CSR view is installed eagerly, so hot loops skip the lazy rebuild.
        This is how :mod:`repro.graph.io` loads a graph ``.npz`` file.
        """
        return cls.attach_arrays(
            {
                "indptr": np.asarray(indptr, dtype=np.int64),
                "indices32": np.asarray(indices, dtype=np.int32),
                "indices64": np.asarray(indices, dtype=np.int64),
                "coords": coordinates,
            },
            labels=labels,
        )

    # ------------------------------------------------------- array snapshot
    def export_arrays(self) -> Dict[str, np.ndarray]:
        """Return the graph's structural state as flat numpy arrays.

        The returned arrays (``indptr``, ``indices32``, ``indices64``,
        ``coords``) are exactly what :meth:`attach_arrays` consumes; they are
        the live internals where possible, so callers must treat them as
        read-only.  ``indices32``/``indices64`` carry the same CSR neighbour
        stream in both dtypes so that a round trip through a file
        reattaches with **zero copies**: the ``int32``
        stream backs the per-vertex adjacency rows, the ``int64`` stream
        backs the :attr:`csr` view.  Vertex labels are deliberately not
        included — they are not an array; :mod:`repro.store` persists them
        separately.
        """
        indptr, indices64 = self.csr
        if self._rows is None:
            # Attached, unmutated graph: the int32 stream it was attached
            # from still matches the CSR exactly — re-export it as-is.
            indices32 = self._row_source
        elif self._edge_count == 0:
            indices32 = indices64.astype(np.int32, copy=False)
        else:
            indices32 = np.concatenate(self._adjacency)
        return {
            "indptr": indptr,
            "indices32": indices32,
            "indices64": indices64,
            "coords": self._coords,
        }

    @classmethod
    def attach_arrays(
        cls,
        arrays: Mapping[str, np.ndarray],
        labels: Optional[Sequence[Label]] = None,
    ) -> "SpatialGraph":
        """Reattach a graph to arrays produced by :meth:`export_arrays`.

        When the supplied arrays already have the canonical dtypes (``int64``
        ``indptr``/``indices64``, ``int32`` ``indices32``, float64
        ``coords``) nothing is copied: adjacency rows become views into the
        ``indices32`` stream, the CSR view adopts ``indices64``, and the
        coordinate matrix is shared — which is what lets
        :class:`repro.store.ArtifactStore` reopen a snapshot memory-mapped.
        Read-only (e.g. memory-mapped) arrays are
        accepted; the first :meth:`update_location` transparently thaws the
        coordinate matrix into a private writable copy, and edge splices
        always allocate fresh arrays.
        """
        indptr = np.asarray(arrays["indptr"], dtype=np.int64)
        indices32 = np.asarray(arrays["indices32"], dtype=np.int32)
        indices64 = np.asarray(arrays["indices64"], dtype=np.int64)
        coords = np.asarray(arrays["coords"], dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise GraphConstructionError("coordinates must be an (n, 2) array")
        n = indptr.size - 1
        if coords.shape[0] != n:
            raise GraphConstructionError(
                f"indptr describes {n} vertices but coordinates has {coords.shape[0]}"
            )
        if labels is not None and len(labels) != n:
            raise GraphConstructionError("labels length must equal the number of vertices")
        # Constructed around __init__: everything __init__ derives with a
        # Python pass per vertex (the per-vertex row list, degree counting,
        # the label->index dict) is either a vectorised difference of indptr
        # or deferred to first use — this is the engine warm-start hot path.
        graph = cls.__new__(cls)
        graph._rows = None
        graph._row_source = indices32
        graph._coords = coords
        graph._labels = list(labels) if labels is not None else list(range(n))
        graph._label_to_index = None
        graph._identity_labels = labels is None
        graph._label_table = None
        graph._degrees = np.subtract(indptr[1:], indptr[:-1])
        graph._edge_count = int(indices64.size) // 2
        graph._csr = (indptr, indices64)
        graph._grid = None
        return graph

    @property
    def _adjacency(self) -> List[np.ndarray]:
        """Per-vertex sorted ``int32`` neighbour rows.

        For attached graphs the row list is materialised lazily (views into
        the shared ``indices32`` stream) the first time a structural
        operation needs it; :meth:`neighbors` itself serves straight from
        the CSR view without ever forcing materialisation.
        """
        if self._rows is None:
            indptr, _ = self._csr
            source = self._row_source
            self._rows = [
                source[indptr[v] : indptr[v + 1]] for v in range(indptr.size - 1)
            ]
        return self._rows

    # ------------------------------------------------------------------ size
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return int(self._coords.shape[0])

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m``."""
        return self._edge_count

    def __len__(self) -> int:
        return self.num_vertices

    def __contains__(self, label: Label) -> bool:
        return label in self._label_index

    # ---------------------------------------------------------------- labels
    @property
    def _label_index(self) -> Dict[Label, int]:
        """The label -> index dict, built lazily for attached graphs.

        :meth:`attach_arrays` defers this (and its uniqueness check) to the
        first label translation, keeping store warm starts free of per-vertex
        Python work that most batch workloads never need.
        """
        if self._label_to_index is None:
            index = {label: position for position, label in enumerate(self._labels)}
            if len(index) != len(self._labels):
                raise GraphConstructionError("vertex labels must be unique")
            self._label_to_index = index
        return self._label_to_index

    def index_of(self, label: Label) -> int:
        """Translate a user-facing label into the internal vertex index."""
        try:
            return self._label_index[label]
        except KeyError:
            raise VertexNotFoundError(label) from None

    def label_of(self, index: int) -> Label:
        """Translate an internal vertex index into its user-facing label.

        A numpy scalar label comes back as the plain Python value, as
        :meth:`labels_of` gives it, so every label a response carries can
        go into ``json.dumps``.
        """
        if not 0 <= index < self.num_vertices:
            raise VertexNotFoundError(index)
        label = self._labels[index]
        return label.item() if isinstance(label, np.generic) else label

    def labels_of(self, indices) -> List[Label]:
        """Translate internal vertex indices into labels, in the order given.

        ``[label_of(v) for v in indices]`` as one lookup: ``indices`` is any
        integer array or sequence (a result's ``members.array``, a list).
        The labels come back as plain Python objects — integer labels as
        ``int``, never numpy scalars — so the list goes straight into
        ``json.dumps``.  Identity labels cost one ``tolist``; other labels
        index an array built once per graph.
        """
        array = np.asarray(indices)
        if array.dtype.kind not in "iu":
            if array.size:
                raise TypeError(f"vertex indices must be integers, got dtype {array.dtype}")
            array = array.astype(np.int64)
        if array.size and (array.min() < 0 or array.max() >= self.num_vertices):
            outside = array[(array < 0) | (array >= self.num_vertices)]
            raise VertexNotFoundError(int(outside[0]))
        if not self._identity_labels and self._label_table is None:
            self._label_table = _label_lookup(self._labels)
            self._identity_labels = self._label_table is None
        if self._identity_labels:
            return array.tolist()
        return self._label_table[array].tolist()

    def labels(self) -> List[Label]:
        """Return the list of vertex labels (index order)."""
        return list(self._labels)

    # ------------------------------------------------------------- structure
    def vertices(self) -> range:
        """Return the range of internal vertex indices."""
        return range(self.num_vertices)

    def neighbors(self, vertex: int) -> np.ndarray:
        """Return the sorted array of neighbours of ``vertex`` (by index)."""
        rows = self._rows
        if rows is not None:
            return rows[vertex]
        # Attached graph with unmaterialised rows: slice the shared stream.
        indptr, _ = self._csr
        return self._row_source[indptr[vertex] : indptr[vertex + 1]]

    def degree(self, vertex: int) -> int:
        """Return the degree of ``vertex``."""
        return int(self._degrees[vertex])

    @property
    def degrees(self) -> np.ndarray:
        """Degrees of all vertices as an ``(n,)`` array."""
        return self._degrees

    @property
    def csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Compressed sparse row adjacency as ``(indptr, indices)`` int64 arrays.

        ``indices[indptr[v]:indptr[v + 1]]`` are the (sorted) neighbours of
        vertex ``v``.  Built lazily on first use and cached for the lifetime
        of the graph; the arrays back every hot loop in :mod:`repro.kcore`
        and must not be mutated.
        """
        if self._csr is None:
            n = self.num_vertices
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(self._degrees, out=indptr[1:])
            if self._edge_count:
                indices = np.concatenate(self._adjacency).astype(np.int64, copy=False)
            else:
                indices = np.zeros(0, dtype=np.int64)
            self._csr = (indptr, indices)
        return self._csr

    def has_edge(self, u: int, v: int) -> bool:
        """Return ``True`` if the undirected edge ``{u, v}`` exists."""
        neighbors = self._adjacency[u]
        position = int(np.searchsorted(neighbors, v))
        return position < neighbors.shape[0] and int(neighbors[position]) == v

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Yield each undirected edge once as ``(u, v)`` with ``u < v``."""
        for u in range(self.num_vertices):
            for v in self._adjacency[u]:
                if u < int(v):
                    yield (u, int(v))

    # ----------------------------------------------------------- coordinates
    @property
    def coordinates(self) -> np.ndarray:
        """The ``(n, 2)`` coordinate matrix (do not mutate)."""
        return self._coords

    def position(self, vertex: int) -> Tuple[float, float]:
        """Return the ``(x, y)`` position of ``vertex``."""
        return (float(self._coords[vertex, 0]), float(self._coords[vertex, 1]))

    def distance(self, u: int, v: int) -> float:
        """Euclidean distance between vertices ``u`` and ``v``."""
        dx = self._coords[u, 0] - self._coords[v, 0]
        dy = self._coords[u, 1] - self._coords[v, 1]
        return math.hypot(float(dx), float(dy))

    def distance_to_point(self, vertex: int, x: float, y: float) -> float:
        """Euclidean distance from ``vertex`` to an arbitrary point."""
        dx = float(self._coords[vertex, 0]) - x
        dy = float(self._coords[vertex, 1]) - y
        return math.hypot(dx, dy)

    @property
    def grid(self) -> GridIndex:
        """The lazily-built spatial grid index over all vertex coordinates."""
        if self._grid is None:
            self._grid = GridIndex(self._coords)
        return self._grid

    def vertices_within(self, x: float, y: float, radius: float) -> List[int]:
        """Return all vertex indices located within ``radius`` of ``(x, y)``."""
        return self.grid.query_circle(x, y, radius)

    # ------------------------------------------------------ in-place updates
    def update_location(self, vertex: int, x: float, y: float) -> None:
        """Move ``vertex`` to ``(x, y)``, mutating the graph in place.

        The coordinate matrix row is overwritten and, when the spatial grid
        index has been built, the point is relocated inside it via
        :meth:`repro.geometry.GridIndex.move_point` (the grid shares the
        coordinate matrix, so the two stay consistent by construction).
        Adjacency, degrees, and the CSR view are untouched — core numbers are
        location-independent.  Callers holding per-query state derived from
        the old coordinates (e.g. a ``QueryContext`` distance vector) must
        discard it; :class:`repro.engine.IncrementalEngine` does this
        bookkeeping automatically.

        On a graph attached to read-only arrays (a memory-mapped
        :class:`repro.store.ArtifactStore` snapshot), the first call thaws
        the coordinate matrix into a private writable copy — the snapshot on
        disk is never written through.

        A non-finite coordinate raises :class:`InvalidParameterError` before
        anything is written.
        """
        if not 0 <= vertex < self.num_vertices:
            raise VertexNotFoundError(vertex)
        x, y = float(x), float(y)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise InvalidParameterError(
                f"location of vertex {vertex} must be finite, got ({x!r}, {y!r})"
            )
        if not self._coords.flags.writeable:
            self._thaw_coordinates()
        if self._grid is not None:
            self._grid.move_point(vertex, x, y)
        else:
            self._coords[vertex, 0] = x
            self._coords[vertex, 1] = y

    def _thaw_coordinates(self) -> None:
        """Replace a read-only coordinate matrix with a private writable copy.

        Copy-on-first-mutate for store-attached graphs: the grid index (when
        built) is rebound to the copy — its bucket layout depends only on the
        point values, which are unchanged — so in-place location updates keep
        working exactly as on a cold-built graph.
        """
        coords = np.array(self._coords)
        self._coords = coords
        if self._grid is not None:
            self._grid.rebind(coords)

    def add_edge(self, u: int, v: int) -> None:
        """Insert the undirected edge ``{u, v}``, mutating the graph in place.

        The two adjacency rows are *replaced* with freshly allocated sorted
        arrays and, when the CSR view has been built, new ``(indptr,
        indices)`` arrays are spliced together — never mutated — so graph
        copies sharing the previous CSR tuple (snapshots from
        :meth:`with_updated_locations`) remain valid.  Raises
        :class:`~repro.exceptions.GraphConstructionError` for self-loops and
        duplicate edges.
        """
        self._splice_edge(u, v, insert=True)

    def remove_edge(self, u: int, v: int) -> None:
        """Delete the undirected edge ``{u, v}``, mutating the graph in place.

        Mirror image of :meth:`add_edge`; raises
        :class:`~repro.exceptions.GraphConstructionError` when the edge does
        not exist.
        """
        self._splice_edge(u, v, insert=False)

    def _splice_edge(self, u: int, v: int, *, insert: bool) -> None:
        """Shared implementation of :meth:`add_edge` / :meth:`remove_edge`."""
        for vertex in (u, v):
            if not 0 <= vertex < self.num_vertices:
                raise VertexNotFoundError(vertex)
        if u == v:
            raise GraphConstructionError("self-loops are not supported")
        exists = self.has_edge(u, v)
        if insert and exists:
            raise GraphConstructionError(f"edge ({u}, {v}) already exists")
        if not insert and not exists:
            raise GraphConstructionError(f"edge ({u}, {v}) does not exist")

        positions = {}
        for a, b in ((u, v), (v, u)):
            row = self._adjacency[a]
            position = int(np.searchsorted(row, b))
            positions[a] = position
            if insert:
                self._adjacency[a] = np.insert(row, position, np.int32(b))
            else:
                self._adjacency[a] = np.delete(row, position)
        delta = 1 if insert else -1
        self._degrees[u] += delta
        self._degrees[v] += delta
        self._edge_count += delta

        if self._csr is not None:
            indptr, indices = self._csr
            # Flat positions are computed against the *old* indices array;
            # np.insert/np.delete interpret a sequence of offsets that way.
            flat = [indptr[u] + positions[u], indptr[v] + positions[v]]
            if insert:
                new_indices = np.insert(indices, flat, [v, u])
            else:
                new_indices = np.delete(indices, flat)
            new_indptr = indptr.copy()
            new_indptr[u + 1 :] += delta
            new_indptr[v + 1 :] += delta
            self._csr = (new_indptr, new_indices)

    def mutable_copy(self) -> "SpatialGraph":
        """Return a copy safe to mutate without affecting this graph.

        The coordinate matrix is copied; adjacency rows, labels, and the CSR
        view are shared (in-place mutation never rewrites shared arrays, see
        :meth:`add_edge`).  This is how :class:`repro.dynamic.SACTracker`
        obtains the working graph it binds to an
        :class:`~repro.engine.IncrementalEngine`.
        """
        return self.with_updated_locations({})

    # --------------------------------------------------- copy-on-write updates
    def with_updated_locations(self, updates: Mapping[int, Tuple[float, float]]) -> "SpatialGraph":
        """Return a copy of the graph with some vertex locations replaced.

        The adjacency arrays are shared with the original graph (they never
        change during the dynamic experiments), only the coordinate matrix is
        copied.  The spatial index of the copy is rebuilt lazily.
        """
        coords = self._coords.copy()
        for vertex, (x, y) in updates.items():
            if not 0 <= vertex < self.num_vertices:
                raise VertexNotFoundError(vertex)
            coords[vertex, 0] = float(x)
            coords[vertex, 1] = float(y)
        moved = SpatialGraph(self._adjacency, coords, self._labels)
        moved._csr = self._csr  # adjacency is shared, so the CSR view is too
        return moved

    # ------------------------------------------------------------- subgraphs
    def induced_subgraph(self, vertices: Iterable[int]) -> "SpatialGraph":
        """Return the subgraph induced by ``vertices`` as a new SpatialGraph.

        Vertex labels are preserved, so results remain addressable by the
        original user-facing ids.
        """
        keep = sorted(set(int(v) for v in vertices))
        for v in keep:
            if not 0 <= v < self.num_vertices:
                raise VertexNotFoundError(v)
        old_to_new = {old: new for new, old in enumerate(keep)}
        adjacency: List[np.ndarray] = []
        for old in keep:
            mapped = [old_to_new[int(w)] for w in self._adjacency[old] if int(w) in old_to_new]
            adjacency.append(np.array(sorted(mapped), dtype=np.int32))
        coords = self._coords[keep] if keep else np.zeros((0, 2), dtype=np.float64)
        labels = [self._labels[old] for old in keep]
        return SpatialGraph(adjacency, coords, labels)

    def subgraph_degrees(self, vertices: Iterable[int]) -> Dict[int, int]:
        """Return the degree of each vertex of ``vertices`` inside the induced subgraph."""
        keep = set(int(v) for v in vertices)
        degrees: Dict[int, int] = {}
        for v in keep:
            neighbors = self._adjacency[v]
            degrees[v] = int(sum(1 for w in neighbors if int(w) in keep))
        return degrees

    # ----------------------------------------------------------- convenience
    def random_subgraph_fraction(self, fraction: float, seed: int = 0) -> "SpatialGraph":
        """Return the induced subgraph of a random ``fraction`` of vertices.

        Used by the scalability experiments (Figure 12 k–o), which extract
        random subgraphs of 20%–100% of the vertices.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        if fraction == 1.0:
            return self
        rng = np.random.default_rng(seed)
        count = max(1, int(round(self.num_vertices * fraction)))
        chosen = rng.choice(self.num_vertices, size=count, replace=False)
        return self.induced_subgraph(int(v) for v in chosen)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"SpatialGraph(n={self.num_vertices}, m={self.num_edges})"


def _label_lookup(labels: Sequence[Label]) -> Optional[np.ndarray]:
    """The array :meth:`SpatialGraph.labels_of` indexes, or ``None`` for identity labels.

    Integer labels (``bool`` excluded) become one ``int64`` array, so their
    ``tolist`` yields plain ``int``; any other labels an object array
    holding the labels as :meth:`SpatialGraph.label_of` returns them.
    """
    integral = all(
        isinstance(label, (int, np.integer)) and not isinstance(label, (bool, np.bool_))
        for label in labels
    )
    if integral:
        if all(type(label) is int and label == index for index, label in enumerate(labels)):
            return None
        try:
            return np.array([int(label) for label in labels], dtype=np.int64)
        except OverflowError:
            pass
    table = np.empty(len(labels), dtype=object)
    for index, label in enumerate(labels):
        table[index] = label.item() if isinstance(label, np.generic) else label
    return table
