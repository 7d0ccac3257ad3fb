"""Store round trips: snapshots, warm starts, corruption.

Two property families back the storage layer's central claim — that
persistence never changes an answer:

* **Warm-start parity** — an engine rebuilt with ``from_store`` must return
  bit-identical results (members, circle floats, stats) to the cold-built
  engine the snapshot was taken from, across all five algorithms, including
  for components the snapshot had not materialised.
* **Warm incremental parity** — a warm-started
  :class:`~repro.engine.IncrementalEngine` absorbing interleaved check-ins
  and edge flips must match a cold incremental engine replaying the same
  updates (copy-on-first-mutate must be invisible).

Plus the negative paths: missing/corrupt manifests, blob/manifest
mismatches, version skew, and non-store directories.
"""

import gc
import json
import mmap
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import IncrementalEngine, QueryEngine
from repro.exceptions import NoCommunityError, StoreError
from repro.service import SACService
from repro.store import ArtifactStore
from repro.testing.strategies import random_spatial_graph

ALGOS = {
    "exact": {},
    "exact+": {"epsilon_a": 0.5},
    "appinc": {},
    "appfast": {"epsilon_f": 0.5},
    "appacc": {"epsilon_a": 0.5},
}


def _assert_identical(first, second, context=()):
    assert (first is None) == (second is None), context
    if first is None:
        return
    assert first.members == second.members, context
    assert first.circle.radius == second.circle.radius, context
    assert first.circle.center.x == second.circle.center.x, context
    assert first.circle.center.y == second.circle.center.y, context
    assert first.stats == second.stats, context


def _search_or_none(engine, query, k, algorithm="appfast", params=None):
    try:
        return engine.search(query, k, algorithm=algorithm, **(params or {}))
    except NoCommunityError:
        return None


def _warm_engine(rng_seed, n=None, edges=None):
    """Build a cold engine over a random graph with every bundle materialised."""
    rng = np.random.default_rng(rng_seed)
    n = n or int(rng.integers(16, 32))
    graph, _ = random_spatial_graph(rng, n, edges or int(rng.integers(2 * n, 4 * n)))
    engine = QueryEngine(graph)
    for k in (2, 3):
        for component in range(engine.prepare(k)):
            engine.component_artifacts(k, component)
    return graph, engine


class TestWarmStartParity:
    """from_store answers are bitwise identical to the cold build's."""

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_all_algorithms_bitwise_identical(self, seed, tmp_path_factory):
        graph, cold = _warm_engine(seed)
        path = tmp_path_factory.mktemp("store") / "snap"
        ArtifactStore.save(path, cold)
        warm = QueryEngine.from_store(path)
        # Warm start is lazy: nothing is resident until a query needs it.
        assert warm.stats.bundles_loaded == 0
        assert warm.stats.bundles_materialised == 0
        assert warm.graph.num_vertices == graph.num_vertices
        for k in (2, 3):
            for query in range(graph.num_vertices):
                for algorithm, params in ALGOS.items():
                    _assert_identical(
                        _search_or_none(cold, query, k, algorithm, params),
                        _search_or_none(warm, query, k, algorithm, params),
                        (seed, k, query, algorithm),
                    )
        # Warm engine served everything without building a single bundle:
        # every touched bundle was materialised straight from the store,
        # exactly once (unlimited budget means no evict/re-load churn).
        assert warm.stats.components_materialised == 0
        assert warm.stats.core_decompositions == 0
        assert warm.stats.bundles_materialised == len(cold.export_state()["bundles"])

    def test_unprepared_k_still_works_from_store(self, tmp_path):
        graph, cold = _warm_engine(7, n=24, edges=90)
        ArtifactStore.save(tmp_path / "snap", cold)
        warm = QueryEngine.from_store(tmp_path / "snap")
        # k=4 was never snapshotted: the warm engine labels it lazily from
        # the memory-mapped cores, still matching the cold engine.
        for query in range(graph.num_vertices):
            _assert_identical(
                _search_or_none(cold, query, 4),
                _search_or_none(warm, query, 4),
                (query,),
            )

    def test_service_save_open_round_trip(self, tmp_path):
        graph, cold = _warm_engine(11, n=24, edges=80)
        service = SACService(engine=cold, use_cache=False)
        service.save(tmp_path / "snap")
        reopened = SACService.open(tmp_path / "snap", use_cache=False)
        assert isinstance(reopened.engine, IncrementalEngine)
        queries = list(range(graph.num_vertices))
        cold_batch = service.submit_batch(queries, 2)
        warm_batch = reopened.submit_batch(queries, 2)
        assert set(cold_batch.results) == set(warm_batch.results)
        for query, result in cold_batch.results.items():
            _assert_identical(result, warm_batch.results[query], (query,))


class TestWarmIncrementalParity:
    """Warm-started incremental engines track cold ones under mutations."""

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_interleaved_checkins_and_edges(self, seed, tmp_path_factory):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(16, 28))
        graph, edges = random_spatial_graph(rng, n, int(rng.integers(2 * n, 3 * n)))
        cold_source = QueryEngine(graph)
        for k in (2, 3):
            for component in range(cold_source.prepare(k)):
                cold_source.component_artifacts(k, component)
        path = tmp_path_factory.mktemp("store") / "snap"
        ArtifactStore.save(path, cold_source)

        warm = IncrementalEngine.from_store(path)
        cold = IncrementalEngine(graph.mutable_copy())
        for _step in range(15):
            op = rng.integers(0, 3)
            if op == 0:
                user = int(rng.integers(0, n))
                x, y = (float(c) for c in rng.uniform(0.0, 1.0, size=2))
                warm.apply_checkin(user, x, y)
                cold.apply_checkin(user, x, y)
            elif op == 1:
                u, v = (int(a) for a in rng.integers(0, n, size=2))
                if u == v:
                    continue
                edge = (min(u, v), max(u, v))
                if edge in edges:
                    edges.discard(edge)
                    warm.apply_edge(*edge, "delete")
                    cold.apply_edge(*edge, "delete")
                else:
                    edges.add(edge)
                    warm.apply_edge(*edge, "insert")
                    cold.apply_edge(*edge, "insert")
            query = int(rng.integers(0, n))
            k = int(rng.integers(2, 4))
            _assert_identical(
                _search_or_none(cold, query, k),
                _search_or_none(warm, query, k),
                (seed, _step, query, k),
            )
        # Mutations never write through to the snapshot: reopening is still
        # bit-identical to the engine state at save time.
        again = QueryEngine.from_store(path)
        pristine = QueryEngine(graph)
        for query in range(n):
            _assert_identical(
                _search_or_none(pristine, query, 2),
                _search_or_none(again, query, 2),
                (seed, query),
            )

    def test_thaw_counters_move(self, tmp_path):
        graph, cold = _warm_engine(3, n=20, edges=70)
        ArtifactStore.save(tmp_path / "snap", cold)
        warm = IncrementalEngine.from_store(tmp_path / "snap")
        moved = next(iter(cold.export_state()["bundles"].values())).candidate_list[0]
        # Lazy residency: the mmap'd bundle must be materialised before a
        # check-in has anything resident to thaw and patch.
        warm.search(moved, 2)
        warm.apply_checkin(moved, 0.5, 0.5)
        assert warm.stats.bundles_thawed >= 1
        assert warm.stats.bundles_patched >= 1


class TestPackHandles:
    """Opening a store keeps no file handle; a corrupt pack keeps no map."""

    def test_repeated_opens_leave_no_unclosed_file(self, tmp_path):
        _graph, engine = _warm_engine(13, n=18, edges=60)
        path = ArtifactStore.save(tmp_path / "snap", engine).path
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            for _ in range(5):
                ArtifactStore.open(path).graph()
            gc.collect()
        leaks = [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]
        assert leaks == []

    def test_a_corrupt_pack_closes_its_map(self, tmp_path, monkeypatch):
        _graph, engine = _warm_engine(13, n=18, edges=60)
        path = ArtifactStore.save(tmp_path / "snap", engine).path
        pack = path / "arrays.npz"
        pack.write_bytes(pack.read_bytes()[:100])
        maps = []
        real_mmap = mmap.mmap

        def recording_mmap(*args, **kwargs):
            maps.append(real_mmap(*args, **kwargs))
            return maps[-1]

        monkeypatch.setattr(mmap, "mmap", recording_mmap)
        with pytest.raises(StoreError, match="corrupt"):
            QueryEngine.from_store(path)
        assert maps and all(m.closed for m in maps)


class TestNegativePaths:
    """Corruption, mismatches, and version skew fail loudly, never quietly."""

    def _saved(self, tmp_path):
        _graph, engine = _warm_engine(13, n=18, edges=60)
        store = ArtifactStore.save(tmp_path / "snap", engine)
        return store.path

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(StoreError, match="manifest"):
            ArtifactStore.open(tmp_path)

    def test_corrupt_manifest_json(self, tmp_path):
        path = self._saved(tmp_path)
        (path / "manifest.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(StoreError, match="unreadable"):
            ArtifactStore.open(path)

    def test_version_skew(self, tmp_path):
        path = self._saved(tmp_path)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["version"] = 99
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="version 99"):
            ArtifactStore.open(path)

    def test_foreign_format(self, tmp_path):
        path = self._saved(tmp_path)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["format"] = "parquet"
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="not a repro-store"):
            ArtifactStore.open(path)

    def test_missing_blob(self, tmp_path):
        path = self._saved(tmp_path)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["cores"]["file"] = "not_there"
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="missing blob"):
            QueryEngine.from_store(path)

    def test_blob_manifest_mismatch(self, tmp_path):
        path = self._saved(tmp_path)
        with np.load(path / "arrays.npz") as pack:
            blobs = {name: pack[name] for name in pack.files}
        blobs["cores"] = np.zeros(3, dtype=np.float32)
        np.savez(path / "arrays.npz", **blobs)
        with pytest.raises(StoreError, match="does not match its manifest"):
            QueryEngine.from_store(path)

    def test_truncated_pack(self, tmp_path):
        path = self._saved(tmp_path)
        pack = path / "arrays.npz"
        pack.write_bytes(pack.read_bytes()[:100])
        with pytest.raises(StoreError, match="corrupt"):
            QueryEngine.from_store(path)

    def test_compressed_pack_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        with np.load(path / "arrays.npz") as pack:
            blobs = {name: pack[name] for name in pack.files}
        np.savez_compressed(path / "arrays.npz", **blobs)
        with pytest.raises(StoreError, match="compressed"):
            QueryEngine.from_store(path)

    def test_refuses_to_overwrite_non_store_directory(self, tmp_path):
        target = tmp_path / "precious"
        target.mkdir()
        (target / "thesis.txt").write_text("irreplaceable")
        _graph, engine = _warm_engine(13, n=18, edges=60)
        with pytest.raises(StoreError, match="refusing to overwrite"):
            ArtifactStore.save(target, engine)
        assert (target / "thesis.txt").read_text() == "irreplaceable"

    def test_non_integer_labels_rejected(self, tmp_path):
        from repro.graph.builder import GraphBuilder

        builder = GraphBuilder()
        builder.add_vertices([("a", 0.0, 0.0), ("b", 1.0, 1.0), ("c", 0.5, 0.5)])
        builder.add_edges([("a", "b"), ("b", "c"), ("a", "c")])
        engine = QueryEngine(builder.build())
        with pytest.raises(StoreError, match="integer vertex labels"):
            ArtifactStore.save(tmp_path / "snap", engine)

    def test_overwriting_existing_store_drops_stale_blobs(self, tmp_path):
        path = self._saved(tmp_path)
        _graph, small = _warm_engine(17, n=16, edges=40)
        # Snapshot a *different* engine over the same directory: no blob of
        # the first snapshot may survive to shadow the second's manifest.
        ArtifactStore.save(path, small)
        warm = QueryEngine.from_store(path)
        assert warm.graph.num_vertices == 16

        referenced = set()

        def collect(node):
            if isinstance(node, dict):
                if "file" in node and "dtype" in node:
                    referenced.add(node["file"])
                for value in node.values():
                    collect(value)
            elif isinstance(node, list):
                for value in node:
                    collect(value)

        collect(json.loads((path / "manifest.json").read_text()))
        with np.load(path / "arrays.npz") as pack:
            assert set(pack.files) == referenced
