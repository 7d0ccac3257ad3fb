"""Wire identity of the label encoder.

The daemon encodes every member list, ``/batch``'s ``failed`` list and the
subscription snapshots and deltas with one
:meth:`~repro.graph.SpatialGraph.labels_of` lookup over the answer's sorted
member array.  These tests hold that encoding to the per-label reference of
:mod:`repro.testing.serverharness` (``[graph.label_of(v) for v in
sorted(result.members)]``) on four kinds of graph:

* a store whose integer labels are the indices themselves;
* a store whose integer labels run opposite to index order
  (``1000 + (n - 1 - i)``), so sorting by label reverses every list;
* an in-memory graph with string labels (``"user-<i>"``), whose text order
  is not the index order either;
* an in-memory graph whose labels are numpy integers, also reversed.

An encoder that sorted by label, ignored the label mapping or let a numpy
scalar reach ``json.dumps`` (the daemon drops the connection) fails here.
"""

import numpy as np
import pytest

from repro.datasets.geosocial import brightkite_like
from repro.engine import IncrementalEngine
from repro.graph.spatial_graph import SpatialGraph
from repro.server import SACClient, SACServer, ServerConfig, start_in_thread
from repro.service import SACService
from repro.service.cache import _CACHE_BYTES
from repro.store import ArtifactStore
from repro.testing.serverharness import (
    EPS,
    K,
    eligible_labels,
    expected_payload,
    mutation_trace,
    oracle_payload,
)

KINDS = ("identity-store", "reversed-store", "string-labels", "numpy-labels")


@pytest.fixture(scope="module")
def base_graph():
    return brightkite_like(num_vertices=300, seed=7)


def _relabelled(graph, labels):
    """``graph`` with the same adjacency and locations under new labels."""
    indptr, indices = graph.csr
    return SpatialGraph.from_csr(indptr, indices, graph.coordinates.copy(), labels=labels)


@pytest.fixture(scope="module")
def graphs(base_graph, tmp_path_factory):
    """Each kind's graph, and the store it is served from (``None``: in memory)."""
    n = base_graph.num_vertices
    built = {
        "identity-store": _relabelled(base_graph, None),
        "reversed-store": _relabelled(base_graph, [1000 + (n - 1 - i) for i in range(n)]),
        "string-labels": _relabelled(base_graph, [f"user-{i}" for i in range(n)]),
        "numpy-labels": _relabelled(base_graph, list(np.arange(n - 1, -1, -1) + 1000)),
    }
    stores = {"string-labels": None, "numpy-labels": None}
    for kind in ("identity-store", "reversed-store"):
        path = tmp_path_factory.mktemp(kind) / "graph.store"
        ArtifactStore.save(str(path), IncrementalEngine(built[kind].mutable_copy()))
        stores[kind] = str(path)
    return {kind: (built[kind], stores[kind]) for kind in KINDS}


@pytest.fixture(params=KINDS)
def served(request, graphs):
    """A fresh daemon of one kind, a client, and a serial reference engine."""
    graph, store = graphs[request.param]
    if store is None:
        service = SACService(engine=IncrementalEngine(graph.mutable_copy()))
    else:
        service = SACService.open(store)
    handle = start_in_thread(SACServer(service, ServerConfig(port=0)))
    reference = IncrementalEngine(graph.mutable_copy())
    try:
        with SACClient("127.0.0.1", handle.port) as client:
            yield client, reference, request.param
    finally:
        handle.stop()


def _outside_labels(reference, count):
    """Labels of ``count`` vertices in no K-core, in descending index order."""
    cores = reference.core_numbers()
    graph = reference.graph
    outside = [v for v in range(graph.num_vertices) if cores[v] < K][::-1][:count]
    assert len(outside) == count, "test graph has too few vertices outside the K-core"
    return [graph.label_of(v) for v in outside]


def _index_order(graph, labels):
    """``labels`` reordered by their internal index: the wire order."""
    return sorted(labels, key=graph.index_of)


def test_labels_differ_from_index_order(graphs):
    """The non-identity kinds really do order labels unlike indices."""
    for kind in ("reversed-store", "string-labels", "numpy-labels"):
        labels = graphs[kind][0].labels()
        assert sorted(labels) != labels, kind


def test_query_members_match_reference(served):
    client, reference, kind = served
    graph = reference.graph
    for label in eligible_labels(reference, 6):
        payload = client.query(label, K, params=EPS)
        result = reference.search(graph.index_of(label), K, **EPS)
        expected = expected_payload(graph, result, EPS)
        assert payload["query"] == label, kind
        for field, value in expected.items():
            assert payload[field] == value, (kind, label, field)
    cache = client.stats()["cache"]
    assert 0 < cache["nbytes"] <= _CACHE_BYTES


def test_batch_results_and_failed_match_reference(served):
    client, reference, kind = served
    graph = reference.graph
    inside = eligible_labels(reference, 5)
    outside = _outside_labels(reference, 3)
    labels = [inside[3], outside[0], inside[0], outside[1], inside[4], outside[2], inside[0]]
    payload = client.batch(labels, K, params=EPS)
    batch = SACService(engine=reference, use_cache=False).submit_batch(
        [graph.index_of(label) for label in labels], K, **EPS
    )
    assert payload["failed"] == [graph.label_of(v) for v in batch.failed], kind
    assert payload["failed"] == outside, kind
    assert set(payload["results"]) == {str(graph.label_of(v)) for v in batch.results}
    for vertex, result in batch.results.items():
        answer = payload["results"][str(graph.label_of(vertex))]
        for field, value in expected_payload(graph, result, EPS).items():
            assert answer[field] == value, (kind, vertex, field)
    assert payload["errors"] == {}


def test_subscription_snapshots_and_folded_deltas_match_reference(served):
    client, reference, kind = served
    graph = reference.graph
    labels = eligible_labels(reference, 3)
    mirrors = {}
    for label in labels:
        snapshot = client.subscribe(label, K, params=EPS)
        expected = oracle_payload(reference, label, K, EPS)
        assert snapshot["members"] == expected["members"], (kind, label)
        assert snapshot["size"] == len(expected["members"])
        mirrors[snapshot["id"]] = (label, list(snapshot["members"]))
    moved = 0
    for op in mutation_trace(labels):
        client.checkin(op["user"], op["x"], op["y"])
        reference.apply_checkin(graph.index_of(op["user"]), op["x"], op["y"])
        for sub_id, (label, members) in mirrors.items():
            for message in client.poll(sub_id, timeout_ms=0)["messages"]:
                assert message["type"] == "delta", kind
                added, removed = message["added"], message["removed"]
                assert added == _index_order(graph, added), (kind, "added order")
                assert removed == _index_order(graph, removed), (kind, "removed order")
                assert not set(added) & set(members) and set(removed) <= set(members)
                members = _index_order(graph, (set(members) - set(removed)) | set(added))
                assert message["size"] == len(members)
                moved += bool(added or removed)
            mirrors[sub_id] = (label, members)
            expected = oracle_payload(reference, label, K, EPS)
            assert members == expected["members"], (kind, label, op)
    assert moved, "the trace moved no community; the deltas were never exercised"
