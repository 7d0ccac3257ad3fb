"""Persist engine artifacts to disk and reopen them memory-mapped.

An :class:`ArtifactStore` snapshot is a directory of two files: a versioned
``manifest.json`` and one **uncompressed** ``arrays.npz`` pack holding every
array blob — the bound graph's CSR arrays and coordinates, the core-number
vector, every cached k-ĉore labelling, and every per-``(k, representative)``
:class:`~repro.core.base.CandidateArtifacts` bundle including its grid-index
state, so nothing is re-sorted at load time.  Uncompressed ``.npz`` is a
plain zip of ``.npy`` members, which buys the best of both worlds: any
member remains readable with stock ``numpy.load`` for debugging, yet
:meth:`open` maps the whole pack **once** and serves every array as a
read-only zero-copy view over the shared pages — opening a snapshot costs
one JSON parse, one ``mmap``, and a few hundred bytes of zip bookkeeping
regardless of how much artifact data it holds.  That is what makes
:meth:`repro.engine.QueryEngine.from_store` warm-start in milliseconds where
a cold build pays parsing, decomposition, labelling, and per-component index
construction.

The snapshot is never written through: graphs and engines attached to a
store copy-on-first-mutate (see
:meth:`repro.graph.SpatialGraph.update_location` and
:class:`repro.engine.IncrementalEngine`), so one snapshot can back any
number of concurrent processes — the mapped pages are shared by the
operating system.
"""

from __future__ import annotations

import io
import json
import mmap
import re
import struct
import zipfile
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.exceptions import StoreError
from repro.geometry.grid import GridIndex
from repro.graph.spatial_graph import SpatialGraph
from repro.store.manifest import (
    STORE_VERSION,
    array_entry,
    check_array,
    check_manifest,
    manifest_header,
)

#: File name of the array pack inside a snapshot directory.
PACK_NAME = "arrays.npz"

#: Arrays of one graph snapshot, in manifest order.
_GRAPH_ARRAYS = ("indptr", "indices32", "indices64", "coords")

#: Fast-path matcher for the simple (non-structured) .npy header dicts numpy
#: writes for every array this library persists.  Anything it cannot match
#: falls back to numpy's own (slower, fully general) header parser.
_NPY_HEADER = re.compile(
    rb"\{'descr': '([^']+)', 'fortran_order': (True|False), "
    rb"'shape': \(([0-9, ]*)\), \}"
)

def _narrow_ints(array: np.ndarray) -> np.ndarray:
    """Compress a non-negative int64 array to int32 when every value fits.

    Bundle integer arrays (members, local CSR, grid order/starts) are all
    non-negative indices; on million-vertex graphs int32 halves their pack
    footprint and the resident cost of cold pages.  The narrow form is a
    *storage* layout only — :meth:`ArtifactStore.load_bundle` widens back to
    the engine's canonical int64 before any kernel sees the data.
    """
    if array.dtype == np.int64 and (
        array.size == 0 or int(array.max()) <= np.iinfo(np.int32).max
    ):
        return array.astype(np.int32)
    return array


def _narrow_coords(array: np.ndarray) -> np.ndarray:
    """Compress float64 coordinates to float32 only when exactly lossless.

    Narrowing is refused unless every value round-trips bit-identically
    through float32 — distance comparisons and MEC radii must not move, the
    store's contract is byte-identical answers after a reopen.
    """
    if array.dtype != np.float64 or array.size == 0:
        return array
    narrow = array.astype(np.float32)
    if np.array_equal(narrow.astype(np.float64), array):
        return narrow
    return array


def _widen(array: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Return ``array`` in the engine's canonical ``dtype`` (view when already there)."""
    if array.dtype == dtype:
        return array
    return array.astype(dtype)


def bundle_from_state(state: Mapping[str, object]):
    """Build one live ``CandidateArtifacts`` from raw persisted bundle arrays.

    ``state`` has the :meth:`ArtifactStore.bundle_state` shape.  Arrays
    already at full width attach as-is (zero-copy for mmap views);
    compressed (int32/float32) arrays widen into private int64/float64
    copies, so every kernel downstream sees the canonical layout a cold
    build produces and answers stay bit-identical regardless of the storage
    dtype.  The coordinate matrix is shared between the bundle and its grid,
    preserving the in-place-patch invariant of
    :meth:`repro.geometry.grid.GridIndex.move_point`.
    """
    # Imported here, not at module level: repro.core.base sits above the
    # graph layer, which (via repro.graph.io's manifest sharing) imports
    # this package — a top-level import would be circular.
    from repro.core.base import CandidateArtifacts

    members = _widen(np.asarray(state["members"]), np.dtype(np.int64))
    coords = _widen(np.asarray(state["coords"]), np.dtype(np.float64))
    grid_state = dict(state["grid"])
    grid_state["order"] = np.asarray(grid_state["order"])
    grid_state["starts"] = np.asarray(grid_state["starts"])
    grid = GridIndex.from_state(coords, grid_state)
    candidate_list = members.tolist()
    return CandidateArtifacts(
        candidates=frozenset(candidate_list),
        candidate_list=candidate_list,
        candidate_array=members,
        candidate_coords=coords,
        grid=grid,
        local_indptr=_widen(np.asarray(state["local_indptr"]), np.dtype(np.int64)),
        local_indices=_widen(np.asarray(state["local_indices"]), np.dtype(np.int64)),
    )


class _BlobPack:
    """Zero-copy read-only views over one uncompressed ``.npz`` pack.

    ``numpy.load`` would re-open, re-resolve, and re-parse per member; this
    reader maps the archive once and slices ``.npy`` members straight out of
    the map.  Only the layout ``numpy.savez`` itself produces is accepted:
    ZIP-stored (uncompressed) members in ``.npy`` format versions 1.0/2.0.
    """

    def __init__(self, path: Path) -> None:
        try:
            file = open(path, "rb")
        except OSError as error:
            raise StoreError(f"{path}: cannot open array pack: {error}") from None
        # The map keeps its own descriptor, so the file is closed as soon as
        # the archive's directory has been read; every error closes the map.
        pack_map: Optional[mmap.mmap] = None
        try:
            with file:
                pack_map = mmap.mmap(file.fileno(), 0, access=mmap.ACCESS_READ)
                with zipfile.ZipFile(file) as archive:
                    infos = archive.infolist()
        except (OSError, ValueError, zipfile.BadZipFile) as error:
            if pack_map is not None:
                pack_map.close()
            raise StoreError(f"{path}: array pack is corrupt: {error}") from None
        self._map = pack_map
        self._path = path
        self._members: Dict[str, Tuple[int, int]] = {}
        for info in infos:
            if info.compress_type != zipfile.ZIP_STORED:
                self._map.close()
                raise StoreError(
                    f"{path}: member {info.filename!r} is compressed; "
                    "snapshots are written uncompressed"
                )
            name = info.filename
            if name.endswith(".npy"):
                name = name[: -len(".npy")]
            self._members[name] = (info.header_offset, info.file_size)

    def array(self, name: str) -> np.ndarray:
        """Return the named member as a read-only view over the map."""
        member = self._members.get(name)
        if member is None:
            raise StoreError(f"{self._path}: missing blob {name!r}")
        header_offset, size = member
        try:
            # Skip the fixed zip local-file header (30 bytes) plus its
            # variable name/extra fields to reach the embedded .npy bytes.
            name_len, extra_len = struct.unpack_from(
                "<HH", self._map, header_offset + 26
            )
            start = header_offset + 30 + name_len + extra_len
            blob = memoryview(self._map)[start : start + size]
            shape, fortran, dtype, data_offset = self._parse_npy_header(name, blob)
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            array = np.frombuffer(blob, dtype=dtype, count=count, offset=data_offset)
            return array.reshape(shape, order="F" if fortran else "C")
        except StoreError:
            raise
        except (ValueError, struct.error) as error:
            raise StoreError(
                f"{self._path}: blob {name!r} is corrupt: {error}"
            ) from None

    def release(self, names) -> None:
        """Advise the kernel to drop the named members' resident pages.

        ``MADV_DONTNEED`` on a read-only shared file mapping discards the
        page-cache references held through this map; a later access simply
        faults the bytes back in from the file.  This is what keeps evicting
        a store-backed bundle an actual RSS reduction rather than a Python
        bookkeeping exercise.  Platforms without ``madvise`` no-op.
        """
        if not hasattr(self._map, "madvise") or not hasattr(mmap, "MADV_DONTNEED"):
            return
        page = mmap.PAGESIZE
        for name in names:
            member = self._members.get(name)
            if member is None:
                continue
            header_offset, size = member
            start = (header_offset // page) * page
            length = header_offset + 30 + size - start  # header + data, roughly
            length = min(length, len(self._map) - start)
            try:
                self._map.madvise(mmap.MADV_DONTNEED, start, length)
            except (OSError, ValueError):
                return

    def _parse_npy_header(self, name: str, blob: memoryview):
        """Parse one member's ``.npy`` header: ``(shape, fortran, dtype, offset)``.

        The common simple-dtype header is matched with one regex (numpy's
        general parser costs an ``ast`` compile per array, which dominates a
        snapshot open); anything unusual falls back to numpy's own reader.
        """
        if bytes(blob[:6]) != b"\x93NUMPY":
            raise StoreError(f"{self._path}: blob {name!r} is not .npy data")
        major = blob[6]
        if major == 1:
            (header_len,) = struct.unpack_from("<H", blob, 8)
            data_offset = 10 + header_len
        elif major == 2:
            (header_len,) = struct.unpack_from("<I", blob, 8)
            data_offset = 12 + header_len
        else:
            raise StoreError(
                f"{self._path}: blob {name!r} uses unsupported .npy version {major}"
            )
        match = _NPY_HEADER.match(bytes(blob[data_offset - header_len : data_offset]).strip())
        if match is not None:
            descr, fortran, shape_text = match.groups()
            shape = tuple(
                int(part) for part in shape_text.decode().split(",") if part.strip()
            )
            return shape, fortran == b"True", np.dtype(descr.decode()), data_offset
        handle = io.BytesIO(blob)
        version = np.lib.format.read_magic(handle)
        if version == (1, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
        else:
            shape, fortran, dtype = np.lib.format.read_array_header_2_0(handle)
        return shape, fortran, dtype, handle.tell()


class ArtifactStore:
    """A reopened (or freshly written) on-disk snapshot of engine artifacts.

    Instances are created through :meth:`open` (attach an existing snapshot,
    memory-mapped) or :meth:`save` (write a new snapshot from a live engine).

    Examples
    --------
    >>> ArtifactStore.save("g.store", engine)                # doctest: +SKIP
    >>> engine = QueryEngine.from_store("g.store")           # doctest: +SKIP
    """

    def __init__(self, path: Path, manifest: Dict[str, object]) -> None:
        self.path = Path(path)
        self.manifest = manifest
        self._pack: Optional[_BlobPack] = None
        self._bundle_index: Optional[Dict[Tuple[int, int], Dict[str, object]]] = None

    # ------------------------------------------------------------------ open
    @classmethod
    def open(cls, path: "str | Path") -> "ArtifactStore":
        """Attach an existing snapshot directory, validating its manifest.

        The array pack is *not* touched here — it is mapped lazily on the
        first array access, once, by :meth:`graph` / :meth:`engine_state`.
        """
        path = Path(path)
        manifest_path = path / "manifest.json"
        if not manifest_path.is_file():
            raise StoreError(f"{path} is not an artifact store (no manifest.json)")
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as error:
            raise StoreError(f"{path}: manifest.json is unreadable: {error}") from None
        check_manifest(manifest, kind="engine", source=str(path))
        return cls(path, manifest)

    def _array(self, entry: Mapping[str, object]) -> np.ndarray:
        """Fetch one blob from the pack, verified against its descriptor."""
        if self._pack is None:
            self._pack = _BlobPack(self.path / PACK_NAME)
        array = self._pack.array(str(entry.get("file")))
        return check_array(array, dict(entry), source=str(self.path))

    def graph(self) -> SpatialGraph:
        """Reattach the snapshot's graph as zero-copy views over the map."""
        section = self.manifest.get("graph")
        if not isinstance(section, dict) or "arrays" not in section:
            raise StoreError(f"{self.path}: manifest has no graph section")
        entries = section["arrays"]
        try:
            arrays = {name: self._array(entries[name]) for name in _GRAPH_ARRAYS}
        except KeyError as missing:
            raise StoreError(
                f"{self.path}: manifest graph section lacks array {missing}"
            ) from None
        labels = self._array(section["labels"]).tolist() if "labels" in section else None
        return SpatialGraph.attach_arrays(arrays, labels=labels)

    def engine_state(self, *, include_bundles: bool = True) -> Dict[str, object]:
        """Reattach the snapshot's engine caches, memory-mapped.

        Returns the dict shape :meth:`repro.engine.QueryEngine.install_state`
        consumes: the core-number vector (or ``None``), per-``k`` labellings
        as ``(labels, count, representatives)``, and per-``(k,
        representative)`` :class:`~repro.core.base.CandidateArtifacts`
        bundles whose grids are rebuilt from persisted state rather than
        re-sorted.  With ``include_bundles=False`` the bundle dict is left
        empty — the lazy-residency warm start installs cores and labellings
        eagerly (both are O(n) vectors needed for component lookup) and
        materialises bundles one at a time through :meth:`load_bundle`.
        """
        cores_entry = self.manifest.get("cores")
        cores = self._array(cores_entry) if cores_entry else None

        labellings: Dict[int, Tuple[np.ndarray, int, np.ndarray]] = {}
        for item in self.manifest.get("labellings", []):
            k = int(item["k"])
            labellings[k] = (
                self._array(item["labels"]),
                int(item["count"]),
                self._array(item["reps"]),
            )

        bundles: Dict[Tuple[int, int], object] = {}
        if include_bundles:
            for key in self.bundle_keys():
                bundles[key] = self.load_bundle(*key)
        return {"cores": cores, "labellings": labellings, "bundles": bundles}

    # --------------------------------------------------------------- bundles
    def _bundle_entry(self, k: int, representative: int) -> Dict[str, object]:
        """Manifest entry of one bundle, or raise :class:`StoreError`."""
        if self._bundle_index is None:
            self._bundle_index = {
                (int(item["k"]), int(item["representative"])): item
                for item in self.manifest.get("bundles", [])
            }
        entry = self._bundle_index.get((int(k), int(representative)))
        if entry is None:
            raise StoreError(
                f"{self.path}: snapshot holds no bundle (k={k}, rep={representative})"
            )
        return entry

    def bundle_keys(self) -> Tuple[Tuple[int, int], ...]:
        """All ``(k, representative)`` bundle keys present in the snapshot."""
        return tuple(
            (int(item["k"]), int(item["representative"]))
            for item in self.manifest.get("bundles", [])
        )

    def has_bundle(self, k: int, representative: int) -> bool:
        """Whether the snapshot persists a bundle for ``(k, representative)``."""
        try:
            self._bundle_entry(k, representative)
        except StoreError:
            return False
        return True

    def bundle_members(self, k: int, representative: int) -> np.ndarray:
        """The bundle's sorted member-vertex array, mapped (possibly int32).

        This is the cheap membership probe the residency layer keeps for
        *non-resident* bundles: one blob view, no grid or CSR attach, so
        mutation routing can test whether an update touches a bundle without
        materialising it.
        """
        return self._array(self._bundle_entry(k, representative)["members"])

    def bundle_nbytes(self, k: int, representative: int) -> int:
        """Pack bytes of one bundle's blobs, computed from the manifest alone."""
        entry = self._bundle_entry(k, representative)
        arrays = [
            entry["members"],
            entry["coords"],
            entry["local_indptr"],
            entry["local_indices"],
            entry["grid"]["order"],
            entry["grid"]["starts"],
        ]
        total = 0
        for spec in arrays:
            count = 1
            for dim in spec["shape"]:
                count *= int(dim)
            total += count * np.dtype(str(spec["dtype"])).itemsize
        return total

    def load_bundle(self, k: int, representative: int):
        """Materialise exactly one bundle from the pack, canonically typed.

        Blobs stored at full width attach as zero-copy views over the map;
        compressed (int32/float32) blobs widen into private int64/float64
        arrays here, so every kernel downstream sees the same layout a cold
        build produces and answers stay bit-identical regardless of the
        storage dtype.  Nothing else in the pack is touched.
        """
        return bundle_from_state(self.bundle_state(k, representative))

    def bundle_state(self, k: int, representative: int) -> Dict[str, object]:
        """One bundle's raw persisted arrays, zero-copy, for re-saving.

        :meth:`save` accepts these dicts in place of live
        :class:`~repro.core.base.CandidateArtifacts`, which lets
        ``export_state`` carry *clean, non-resident* bundles from the old
        snapshot into a new one without materialising (or widening) them.
        """
        entry = self._bundle_entry(k, representative)
        grid_section = entry["grid"]
        return {
            "members": self._array(entry["members"]),
            "coords": self._array(entry["coords"]),
            "local_indptr": self._array(entry["local_indptr"]),
            "local_indices": self._array(entry["local_indices"]),
            "grid": {
                "min_x": grid_section["min_x"],
                "min_y": grid_section["min_y"],
                "cell": grid_section["cell"],
                "cols": grid_section["cols"],
                "rows": grid_section["rows"],
                "order": self._array(grid_section["order"]),
                "starts": self._array(grid_section["starts"]),
            },
        }

    def release_bundle(self, k: int, representative: int) -> None:
        """Drop one bundle's resident pack pages (see :meth:`_BlobPack.release`)."""
        if self._pack is None:
            return
        try:
            entry = self._bundle_entry(k, representative)
        except StoreError:
            return
        names = [
            str(entry["members"]["file"]),
            str(entry["coords"]["file"]),
            str(entry["local_indptr"]["file"]),
            str(entry["local_indices"]["file"]),
            str(entry["grid"]["order"]["file"]),
            str(entry["grid"]["starts"]["file"]),
        ]
        self._pack.release(names)

    # ------------------------------------------------------------------ save
    @classmethod
    def save(cls, path: "str | Path", engine, *, lsn: Optional[int] = None) -> "ArtifactStore":
        """Snapshot a live engine (graph + every cached artifact) to ``path``.

        ``engine`` is any object with the
        :meth:`repro.engine.QueryEngine.export_state` protocol.  The target
        directory is created if needed; an existing *store* directory is
        overwritten in place, but a non-empty directory that is not a store
        is refused rather than clobbered.  Only integer-labelled graphs can
        be snapshotted (the same restriction as the graph ``.npz`` format).

        ``lsn`` stamps the snapshot with the write-ahead-log sequence number
        it covers (see :mod:`repro.store.wal`): a replica warm-starting from
        this snapshot resumes WAL replay at ``lsn + 1``.  Omitted for
        snapshots taken outside the replication tier; readers of such
        snapshots see :attr:`lsn` ``== 0``.
        """
        path = Path(path)
        graph: SpatialGraph = engine.graph
        labels = graph.labels()
        if not all(isinstance(label, (int, np.integer)) for label in labels):
            raise StoreError(
                "ArtifactStore supports integer vertex labels only; "
                "relabel the graph before snapshotting"
            )
        cls._prepare_directory(path)

        blobs: Dict[str, np.ndarray] = {}

        def _blob(name: str, array: np.ndarray) -> Dict[str, object]:
            blobs[name] = np.ascontiguousarray(array)
            return array_entry(blobs[name], name)

        manifest: Dict[str, object] = manifest_header("engine")
        if lsn is not None:
            if not isinstance(lsn, int) or lsn < 0:
                raise StoreError(f"snapshot lsn must be a non-negative int, got {lsn!r}")
            manifest["lsn"] = lsn
        graph_arrays = graph.export_arrays()
        labels_array = np.asarray(labels, dtype=np.int64)
        graph_section: Dict[str, object] = {
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
            "arrays": {
                name: _blob(f"graph_{name}", graph_arrays[name])
                for name in _GRAPH_ARRAYS
            },
        }
        if bool(
            (labels_array == np.arange(graph.num_vertices, dtype=np.int64)).all()
        ):
            # Dataset-generated graphs label vertices 0..n-1; recording the
            # fact instead of the array lets attach skip an O(n) tolist.
            graph_section["labels_identity"] = True
        else:
            graph_section["labels"] = _blob("graph_labels", labels_array)
        manifest["graph"] = graph_section

        state = engine.export_state()
        cores = state.get("cores")
        manifest["cores"] = None if cores is None else _blob("cores", cores)

        manifest["labellings"] = [
            {
                "k": int(k),
                "count": int(count),
                "labels": _blob(f"k{k}_labels", labels_array),
                "reps": _blob(f"k{k}_reps", reps),
            }
            for k, (labels_array, count, reps) in sorted(state.get("labellings", {}).items())
        ]

        bundle_entries = []
        for (k, representative), bundle in sorted(state.get("bundles", {}).items()):
            prefix = f"k{k}_r{representative}"
            if isinstance(bundle, dict):
                # A raw bundle_state() dict carried over from the previous
                # snapshot: the arrays are already in storage layout
                # (possibly compressed) — write them back byte-for-byte.
                grid_state = bundle["grid"]
                members = bundle["members"]
                coords = bundle["coords"]
                indptr = bundle["local_indptr"]
                indices = bundle["local_indices"]
                order = grid_state["order"]
                starts = grid_state["starts"]
            else:
                grid_state = bundle.grid.export_state()
                members = _narrow_ints(bundle.candidate_array)
                coords = _narrow_coords(bundle.candidate_coords)
                indptr = _narrow_ints(bundle.local_indptr)
                indices = _narrow_ints(bundle.local_indices)
                order = _narrow_ints(grid_state["order"])
                starts = _narrow_ints(grid_state["starts"])
            bundle_entries.append(
                {
                    "k": int(k),
                    "representative": int(representative),
                    "members": _blob(f"{prefix}_members", members),
                    "coords": _blob(f"{prefix}_coords", coords),
                    "local_indptr": _blob(f"{prefix}_indptr", indptr),
                    "local_indices": _blob(f"{prefix}_indices", indices),
                    "grid": {
                        "min_x": grid_state["min_x"],
                        "min_y": grid_state["min_y"],
                        "cell": grid_state["cell"],
                        "cols": grid_state["cols"],
                        "rows": grid_state["rows"],
                        "order": _blob(f"{prefix}_grid_order", order),
                        "starts": _blob(f"{prefix}_grid_starts", starts),
                    },
                }
            )
        manifest["bundles"] = bundle_entries

        # Uncompressed on purpose: members stay individually np.load-able,
        # and open() serves them as zero-copy views over one mmap.
        np.savez(path / PACK_NAME, **blobs)
        # The manifest is written last: a crash mid-save leaves a pack
        # without a manifest, which open() rejects outright instead of
        # half-loading.
        (path / "manifest.json").write_text(
            json.dumps(manifest, indent=1, sort_keys=False), encoding="utf-8"
        )
        return cls(path, manifest)

    @staticmethod
    def _prepare_directory(path: Path) -> None:
        """Create (or safely clear) the snapshot directory."""
        if path.exists() and not path.is_dir():
            raise StoreError(f"{path} exists and is not a directory")
        if path.is_dir():
            entries = list(path.iterdir())
            if entries and not (path / "manifest.json").is_file():
                raise StoreError(
                    f"refusing to overwrite {path}: it is non-empty and not an "
                    "artifact store"
                )
            # Overwriting an existing store: drop its manifest and pack so a
            # smaller snapshot leaves nothing stale behind.
            for entry in entries:
                if entry.name in ("manifest.json", PACK_NAME):
                    entry.unlink()
        else:
            path.mkdir(parents=True)

    # ------------------------------------------------------------------ info
    @property
    def version(self) -> int:
        """Manifest format version of the opened snapshot."""
        return int(self.manifest.get("version", STORE_VERSION))

    @property
    def lsn(self) -> int:
        """WAL sequence number this snapshot covers (0 when not stamped).

        Snapshots written by the replication tier's compaction path record
        the last WAL LSN folded into them; everything at or below this LSN
        is already part of the snapshot, and replay resumes at ``lsn + 1``.
        Snapshots from older builds or non-replicated flows carry no stamp
        and report 0 (replay, if any, starts from the beginning).
        """
        value = self.manifest.get("lsn", 0)
        return int(value) if isinstance(value, int) else 0

    def nbytes(self) -> int:
        """Total size of the snapshot's array pack on disk."""
        pack = self.path / PACK_NAME
        return pack.stat().st_size if pack.is_file() else 0

    def describe(self) -> Dict[str, object]:
        """Small summary of the snapshot (for CLI output and logs)."""
        graph_section = self.manifest.get("graph") or {}
        return {
            "path": str(self.path),
            "version": self.version,
            "vertices": graph_section.get("vertices"),
            "edges": graph_section.get("edges"),
            "has_cores": self.manifest.get("cores") is not None,
            "ks": [int(item["k"]) for item in self.manifest.get("labellings", [])],
            "bundles": len(self.manifest.get("bundles", [])),
            "bytes": self.nbytes(),
            "lsn": self.lsn,
        }
