"""The online serving daemon: protocol, micro-batching, ordering, drain.

Every test runs a real :class:`repro.server.SACServer` on an ephemeral port
(via :func:`repro.server.start_in_thread`) and talks to it over real
sockets with the stdlib client — no mocked transport.  The load-bearing
guarantees:

* answers over HTTP are **bit-identical** to the serial
  :class:`repro.engine.QueryEngine` path (JSON round-trips IEEE doubles
  exactly);
* mutations interleaved with in-flight micro-batches behave as if the whole
  request sequence had been applied serially in arrival order;
* malformed traffic (broken JSON, garbage framing, oversized bodies and
  batches) is answered with the right 4xx and never wedges the connection;
  the framing cases also run against a replication coordinator, which
  shares the daemon's listener;
* a graceful stop drains: pending coalesced queries are answered, then the
  listener goes away;
* a query is dispatched the moment the writer could start it, and queries
  that arrive while the writer is busy coalesce into one group behind the
  job in flight.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import math
import socket
import threading
import time
from decimal import Decimal

import numpy as np
import pytest

from repro.datasets.geosocial import brightkite_like
from repro.engine import IncrementalEngine, QueryEngine
from repro.exceptions import InvalidParameterError
from repro.graph import SpatialGraph
from repro.replication import Coordinator, CoordinatorConfig
from repro.server import SACClient, SACServer, ServerConfig, ServerError, start_in_thread
from repro.server.client import parallel_queries
from repro.server.daemon import _Job
from repro.server.http import MAX_HEADER_COUNT, HttpError, read_response
from repro.service import FULL_LADDER, LADDER, SACService
from repro.testing.serverharness import (
    EPS,
    K,
    assert_payload_identical,
    eligible_labels as _eligible_labels,
    expected_payload as _expected,
    oracle_payload,
    serve as _serve,
)


def _wait_until(predicate, timeout: float = 30.0) -> None:
    """Poll ``predicate`` until it holds; fail the test after ``timeout`` s."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.01)


class _WriterGate:
    """Hold a daemon's single writer busy until :meth:`release`.

    The gate is a read job that blocks on an event, as a slow engine miss
    would, so every ``/query`` the cache cannot answer waits in its pending
    group meanwhile.  The job takes no admission slot, changes no state and
    raises no fence, so a fresh cache hit is still answered on the event
    loop.
    """

    def __init__(self, handle):
        running, self._open = threading.Event(), threading.Event()
        server = handle.server

        def hold():
            running.set()
            self._open.wait()

        async def gate():
            future = server._loop.create_future()
            server._jobs.put_nowait(_Job(kind="batch", run=hold, future=future))
            await future

        self._job = asyncio.run_coroutine_threadsafe(gate(), handle._loop)
        assert running.wait(timeout=30), "the gated job never started"

    def release(self) -> None:
        """Let the gated job finish; the groups waiting behind it dispatch."""
        self._open.set()
        self._job.result(timeout=30)


def _lane_pending(handle, lane: str = "besteffort") -> int:
    """Admitted-but-unanswered queries in one lane, as ``GET /stats`` shows."""
    with SACClient(handle.host, handle.port) as probe:
        return probe.stats()["slo"]["lanes"][lane]["pending"]


def _send_behind_gate(handle, labels, threads: int):
    """Send best-effort ``/query`` for ``labels`` from ``threads`` clients.

    A :class:`_WriterGate` holds the writer until the first ``threads``
    queries wait, then opens; returns the responses in ``labels`` order.
    """
    gate = _WriterGate(handle)
    box = {}
    jobs = [{"vertex": label, "k": K, "params": EPS} for label in labels]
    sender = threading.Thread(
        target=lambda: box.update(
            responses=parallel_queries((handle.host, handle.port), jobs, threads=threads)
        )
    )
    sender.start()
    _wait_until(lambda: _lane_pending(handle) == threads)
    gate.release()
    sender.join(timeout=30)
    assert not sender.is_alive()
    return box["responses"]


def _hold_lane_slot(handle, label, **kwargs):
    """Park one query in its admission lane; returns its thread.

    The writer must be held busy by a :class:`_WriterGate`, so the query
    stays pending; it is answered when the gate opens or the server drains.
    """
    lane = "deadline" if "deadline_ms" in kwargs else "besteffort"

    def ask():
        with SACClient(handle.host, handle.port) as mine:
            mine.query(label, K, **kwargs)

    thread = threading.Thread(target=ask)
    thread.start()
    _wait_until(lambda: _lane_pending(handle, lane) >= 1)
    return thread


@pytest.fixture(scope="module")
def base_graph():
    """One small geo-social graph shared by every server in this module."""
    return brightkite_like(num_vertices=500, seed=7)


@pytest.fixture(scope="module")
def reference(base_graph):
    """The serial engine whose answers the server must reproduce exactly."""
    return QueryEngine(base_graph)


@pytest.fixture(scope="module")
def server(base_graph):
    """A shared server for the read-only tests."""
    handle = _serve(base_graph)
    yield handle
    handle.stop()


@pytest.fixture(scope="module", params=["daemon", "coordinator"])
def any_server(request):
    """Either server kind on the shared listener: the daemon, or a coordinator.

    The coordinator's backends are unreachable; it answers ``GET /healthz``
    from its own state, which is all the framing tests send it.
    """
    if request.param == "daemon":
        yield request.getfixturevalue("server")
        return
    config = CoordinatorConfig(port=0, writer="127.0.0.1:9", replicas=("127.0.0.1:9",))
    handle = start_in_thread(Coordinator(config))
    yield handle
    handle.stop()


@pytest.fixture(scope="module")
def client(server):
    """A client bound to the shared read-only server."""
    with SACClient(server.host, server.port) as shared:
        yield shared


class TestQueryEndpoint:
    def test_query_is_bit_identical_to_serial_engine(self, client, reference, base_graph):
        for label in _eligible_labels(reference, 5):
            response = client.query(label, K, params=EPS)
            result = reference.search(base_graph.index_of(label), K, **EPS)
            for field, value in _expected(base_graph, result).items():
                assert response[field] == value, field

    def test_query_outside_kcore_reports_not_found(self, client, reference, base_graph):
        cores = reference.core_numbers()
        lonely = next(
            base_graph.label_of(v)
            for v in range(base_graph.num_vertices)
            if cores[v] < K
        )
        response = client.query(lonely, K)
        assert response == {
            "found": False,
            "query": lonely,
            "k": K,
            "algorithm_used": None,
            "bound": None,
        }

    def test_unknown_vertex_is_a_400(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.query("no-such-user", K)
        assert excinfo.value.status == 400

    def test_unknown_algorithm_is_a_400(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.query(0, K, algorithm="quantum")
        assert excinfo.value.status == 400

    def test_missing_vertex_field_is_a_400(self, client):
        with pytest.raises(ServerError) as excinfo:
            client._request("POST", "/query", {"k": K})
        assert excinfo.value.status == 400
        assert "vertex" in excinfo.value.message

    def test_bad_parameter_type_is_a_400(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.query(0, K, params={"epsilon_f": "half"})
        assert excinfo.value.status == 400

    def test_unknown_algorithm_parameter_is_a_400(self, client):
        """A wrong parameter name must be refused at parse time, not 500."""
        with pytest.raises(ServerError) as excinfo:
            client.query(0, K, params={"bogus": 1.0})
        assert excinfo.value.status == 400
        assert "bogus" in excinfo.value.message
        # Same for a convenience key the chosen algorithm does not take.
        with pytest.raises(ServerError) as excinfo:
            client.query(0, K, algorithm="appinc", params={"epsilon_f": 0.5})
        assert excinfo.value.status == 400

    def test_lingering_query_survives_concurrent_batch_traffic(
        self, base_graph, reference
    ):
        """A coalescing query must not be starved by a stream of batches."""
        labels = _eligible_labels(reference, 6)
        handle = _serve(base_graph)
        outcome = {}
        stop = threading.Event()

        def batch_storm():
            with SACClient(handle.host, handle.port) as mine:
                while not stop.is_set():
                    mine.batch(labels, K, params=EPS)

        storms = [threading.Thread(target=batch_storm) for _ in range(2)]
        try:
            for storm in storms:
                storm.start()
            time.sleep(0.05)
            with SACClient(handle.host, handle.port) as client:
                started = time.perf_counter()
                outcome["response"] = client.query(labels[0], K, params=EPS)
                outcome["seconds"] = time.perf_counter() - started
        finally:
            stop.set()
            for storm in storms:
                storm.join(timeout=10)
            handle.stop()
        assert outcome["response"]["found"] is True
        assert outcome["seconds"] < 5.0

    def test_concurrent_queries_coalesce_and_stay_identical(
        self, base_graph, reference
    ):
        labels = _eligible_labels(reference, 12)
        handle = _serve(base_graph)
        try:
            responses = _send_behind_gate(handle, labels, threads=6)
            stats = handle.server.batcher_stats
        finally:
            handle.stop()
        assert len(responses) == len(labels)
        for label, response in zip(labels, responses):
            result = reference.search(base_graph.index_of(label), K, **EPS)
            assert response["members"] == [
                base_graph.label_of(v) for v in sorted(result.members)
            ]
            assert response["radius"] == result.circle.radius
        # At least one flush served more than one query — the coalescing
        # actually happened (6 threads waiting behind a busy writer).
        assert stats.queries_coalesced == len(labels)
        assert stats.batches_dispatched < len(labels)


class TestDispatchWhenIdle:
    """A query waits for the writer, never for a timer."""

    def test_lone_query_on_an_idle_server_dispatches_on_arrival(
        self, base_graph, reference
    ):
        label = _eligible_labels(reference, 1)[0]
        handle = _serve(base_graph)
        try:
            with SACClient(handle.host, handle.port) as client:
                assert client.query(label, K, params=EPS)["found"] is True
                batcher = client.stats()["batcher"]
        finally:
            handle.stop()
        assert batcher["flushes_idle"] == 1
        assert batcher["batches_dispatched"] == 1

    def test_queries_behind_a_busy_writer_go_out_as_one_group(
        self, base_graph, reference
    ):
        labels = _eligible_labels(reference, 5)
        handle = _serve(base_graph)
        try:
            responses = _send_behind_gate(handle, labels, threads=len(labels))
            stats = handle.server.batcher_stats
        finally:
            handle.stop()
        assert [response["found"] for response in responses] == [True] * 5
        assert stats.largest_batch == 5
        assert stats.batches_dispatched == 1
        assert stats.flushes_idle == 1

    def test_checkin_flushes_a_waiting_query_first(self, base_graph, reference):
        label = _eligible_labels(reference, 1)[0]
        handle = _serve(base_graph)
        outcome = {}

        def pending_query():
            with SACClient(handle.host, handle.port) as mine:
                outcome["query"] = mine.query(label, K, params=EPS)

        def checkin():
            with SACClient(handle.host, handle.port) as mine:
                outcome["checkin"] = mine.checkin(label, 0.5, 0.5)

        try:
            gate = _WriterGate(handle)
            threads = [threading.Thread(target=pending_query)]
            threads[0].start()
            _wait_until(lambda: _lane_pending(handle) == 1)
            threads.append(threading.Thread(target=checkin))
            threads[1].start()
            _wait_until(lambda: handle.server.batcher_stats.flushes_mutation == 1)
            gate.release()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            stats = handle.server.batcher_stats
        finally:
            handle.stop()
        assert outcome["query"]["found"] is True
        assert outcome["checkin"]["applied"] is True
        assert stats.batches_dispatched == stats.flushes_mutation == 1
        assert stats.flushes_idle == 0


class TestCacheHitsOnTheLoop:
    """A fresh cache hit is answered on the event loop, unless a fence is up."""

    def test_cached_query_answers_while_the_writer_is_busy(self, base_graph, reference):
        label = _eligible_labels(reference, 1)[0]
        handle = _serve(base_graph)
        box = {}
        try:
            with SACClient(handle.host, handle.port) as client:
                first = client.query(label, K, params=EPS)
                gate = _WriterGate(handle)
                try:
                    asker = threading.Thread(
                        target=lambda: box.update(second=client.query(label, K, params=EPS))
                    )
                    asker.start()
                    asker.join(timeout=10)
                    answered_while_busy = not asker.is_alive()
                finally:
                    gate.release()
                asker.join(timeout=30)
                stats = client.stats()
        finally:
            handle.stop()
        assert answered_while_busy, "the cached query waited for the busy writer"
        assert box["second"] == first
        assert_payload_identical(first, oracle_payload(reference, label))
        assert stats["batcher"]["cache_hits_on_loop"] == 1
        assert stats["batcher"]["queries_coalesced"] == 1
        assert stats["endpoints"]["POST /query"]["requests"] == 2
        # The hit counted once, the first query's miss once.
        assert (stats["cache"]["hits"], stats["cache"]["misses"]) == (1, 1)

    def test_hit_behind_a_queued_checkin_waits_and_sees_it(self, base_graph, reference):
        """A hit may not overtake a mutation that arrived before it.

        ``u``'s answer is cached.  A check-in of another member of ``u``'s
        community is queued behind the busy writer; a ``/query`` for ``u``
        sent after it must wait for it and answer as the serial replay does.
        """
        label = _eligible_labels(reference, 1)[0]
        vertex = base_graph.index_of(label)
        before = reference.search(vertex, K, **EPS)

        def replay(mover):
            serial = IncrementalEngine(base_graph.mutable_copy())
            serial.apply_checkin(mover, 0.99, 0.99)
            return serial.search(vertex, K, **EPS)

        mover = next(
            int(w)
            for w in before.members.array
            if w != vertex and replay(int(w)).circle.radius != before.circle.radius
        )
        handle = _serve(base_graph)
        box = {}

        def send(name, call):
            with SACClient(handle.host, handle.port) as mine:
                box[name] = call(mine)

        try:
            with SACClient(handle.host, handle.port) as client:
                box["first"] = client.query(label, K, params=EPS)
            gate = _WriterGate(handle)
            try:
                checkin = threading.Thread(
                    target=send,
                    args=("checkin", lambda c: c.checkin(base_graph.label_of(mover), 0.99, 0.99)),
                )
                checkin.start()
                _wait_until(handle.server._jobs.fenced)
                asker = threading.Thread(
                    target=send, args=("second", lambda c: c.query(label, K, params=EPS))
                )
                asker.start()
                _wait_until(lambda: _lane_pending(handle) == 1)
                assert "second" not in box
            finally:
                gate.release()
            for thread in (checkin, asker):
                thread.join(timeout=30)
                assert not thread.is_alive()
            hits_on_loop = handle.server.batcher_stats.cache_hits_on_loop
        finally:
            handle.stop()
        assert box["checkin"]["applied"] is True
        assert box["first"] == _expected(base_graph, before) | {"query": label, "k": K}
        assert box["second"] == _expected(base_graph, replay(mover)) | {
            "query": label, "k": K,
        }
        assert hits_on_loop == 0


class TestBatchEndpoint:
    def test_batch_matches_engine_and_second_round_hits_cache(
        self, client, reference, base_graph
    ):
        labels = _eligible_labels(reference, 8)
        first = client.batch(labels, K, params=EPS)
        assert first["answered"] == len(labels)
        assert first["failed"] == [] and first["errors"] == {}
        for label in labels:
            result = reference.search(base_graph.index_of(label), K, **EPS)
            payload = first["results"][str(label)]
            assert payload["members"] == [
                base_graph.label_of(v) for v in sorted(result.members)
            ]
            assert payload["radius"] == result.circle.radius
            assert payload["center"] == [
                result.circle.center.x,
                result.circle.center.y,
            ]
        second = client.batch(labels, K, params=EPS)
        assert second["cache_hits"] == len(labels)
        assert second["results"] == first["results"]

    def test_oversized_batch_is_a_413(self, base_graph):
        handle = _serve(base_graph, max_batch_queries=4)
        try:
            with SACClient(handle.host, handle.port) as client:
                with pytest.raises(ServerError) as excinfo:
                    client.batch(list(range(8)), K)
                assert excinfo.value.status == 413
                # The refusal must not poison the connection.
                assert client.batch([0], 1)["answered"] >= 0
        finally:
            handle.stop()

    def test_empty_vertex_list_is_a_400(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.batch([], K)
        assert excinfo.value.status == 400

    def test_batch_larger_than_its_lane_is_a_413_not_a_429(self, base_graph, reference):
        """A 429 would promise a retry that can never be admitted."""
        labels = _eligible_labels(reference, 5)
        handle = _serve(base_graph, max_queue_depth=4)
        try:
            with SACClient(handle.host, handle.port) as client:
                for kwargs in ({}, {"deadline_ms": 10_000.0}):  # both lanes
                    with pytest.raises(ServerError) as excinfo:
                        client.batch(labels, K, **kwargs)
                    assert excinfo.value.status == 413
                    assert excinfo.value.retry_after is None
                assert client.batch(labels[:4], K)["answered"] == 4
        finally:
            handle.stop()


class TestProtocolRobustness:
    def _raw(self, server, payload: bytes) -> bytes:
        """Send raw bytes, return the raw response (connection closed after)."""
        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            sock.sendall(payload)
            sock.shutdown(socket.SHUT_WR)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    return b"".join(chunks)
                chunks.append(chunk)

    def test_malformed_json_body_is_a_400(self, server):
        body = b"{this is not json"
        raw = self._raw(
            server,
            b"POST /query HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body),
        )
        assert raw.startswith(b"HTTP/1.1 400")
        assert b"not valid JSON" in raw

    def test_non_object_json_body_is_a_400(self, server):
        body = b"[1, 2, 3]"
        raw = self._raw(
            server,
            b"POST /query HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body),
        )
        assert raw.startswith(b"HTTP/1.1 400")

    def test_garbage_request_line_is_a_400(self, any_server):
        raw = self._raw(any_server, b"EHLO example.com\r\n\r\n")
        assert raw.startswith(b"HTTP/1.1 400")

    @pytest.mark.parametrize(
        "length_headers",
        [
            [b"+21"],
            [b"2_1"],
            [b"\x0b21"],  # int() and str.strip() skip non-OWS whitespace
            [b"0", b"21"],  # a second header must not replace the first
        ],
        ids=["plus-sign", "underscore", "vertical-tab", "conflicting-repeat"],
    )
    def test_malformed_content_length_is_a_400_and_closes(self, any_server, length_headers):
        """RFC 9112 §6.3: invalid framing is answered 400, then the socket closes."""
        body = b"x" * 21
        headers = b"".join(b"Content-Length: %s\r\n" % value for value in length_headers)
        raw = self._raw(any_server, b"GET /healthz HTTP/1.1\r\n%s\r\n%s" % (headers, body))
        assert raw.startswith(b"HTTP/1.1 400")
        assert b"Content-Length" in raw.split(b"\r\n\r\n", 1)[1]
        assert b"Connection: close" in raw

    def test_content_length_with_ows_or_agreeing_repeats_is_accepted(self, any_server):
        body = b"x" * 21
        for headers in (b"Content-Length: \t21 \r\n", b"Content-Length: 21\r\n" * 2):
            raw = self._raw(any_server, b"GET /healthz HTTP/1.1\r\n%s\r\n%s" % (headers, body))
            assert raw.startswith(b"HTTP/1.1 200"), raw[:200]

    def test_repeated_header_lines_count_against_the_limit(self, any_server):
        """The bound is on header lines, so one repeated name cannot stream forever."""
        for lines, status in ((MAX_HEADER_COUNT, b"200"), (MAX_HEADER_COUNT + 1, b"431")):
            repeats = b"X-Repeat: 1\r\n" * lines
            raw = self._raw(any_server, b"GET /healthz HTTP/1.1\r\n%s\r\n" % repeats)
            assert raw.startswith(b"HTTP/1.1 " + status), (lines, raw[:200])

    def test_response_reader_counts_repeated_header_lines(self):
        """The coordinator's reader of backend replies has the same bound."""

        async def read(lines):
            reader = asyncio.StreamReader()
            reader.feed_data(
                b"HTTP/1.1 200 OK\r\n"
                + b"X-Repeat: 1\r\n" * (lines - 1)
                + b"Content-Length: 0\r\n\r\n"
            )
            reader.feed_eof()
            return await read_response(reader, max_body_bytes=1024)

        assert asyncio.run(read(MAX_HEADER_COUNT))[0] == 200
        with pytest.raises(HttpError) as excinfo:
            asyncio.run(read(MAX_HEADER_COUNT + 1))
        assert excinfo.value.status == 502

    @pytest.mark.parametrize("length", [b"+21", b"2_1"], ids=["plus-sign", "underscore"])
    def test_response_reader_takes_only_digit_content_lengths(self, length):
        """A backend reply framed like a refused request is a 502, not a body."""

        async def read():
            reader = asyncio.StreamReader()
            reader.feed_data(
                b"HTTP/1.1 200 OK\r\nContent-Length: %s\r\n\r\n%s" % (length, b"x" * 21)
            )
            reader.feed_eof()
            return await read_response(reader, max_body_bytes=1024)

        with pytest.raises(HttpError) as excinfo:
            asyncio.run(read())
        assert excinfo.value.status == 502

    def test_oversized_body_is_a_413(self, base_graph):
        handle = _serve(base_graph, max_body_bytes=64)
        try:
            raw = self._raw(
                handle,
                b"POST /query HTTP/1.1\r\nContent-Length: 100000\r\n\r\n",
            )
            assert raw.startswith(b"HTTP/1.1 413")
        finally:
            handle.stop()

    def test_unknown_path_is_a_404(self, client):
        with pytest.raises(ServerError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_wrong_method_is_a_405(self, client):
        with pytest.raises(ServerError) as excinfo:
            client._request("GET", "/query")
        assert excinfo.value.status == 405

    def test_unencodable_answer_is_a_500_and_keeps_the_connection(
        self, base_graph, reference, capsys
    ):
        # ``Decimal(i) == i``, so ``{"vertex": i}`` resolves, but json cannot
        # encode the ``query`` label of the answer.
        indptr, indices = base_graph.csr
        graph = SpatialGraph.from_csr(
            indptr,
            indices,
            base_graph.coordinates.copy(),
            labels=[Decimal(i) for i in range(base_graph.num_vertices)],
        )
        vertex = base_graph.index_of(_eligible_labels(reference, 1)[0])
        handle = start_in_thread(
            SACServer(SACService(engine=IncrementalEngine(graph)), ServerConfig(port=0))
        )
        connection = http.client.HTTPConnection(handle.host, handle.port, timeout=30)
        try:
            # The first answer comes from the engine, the second from the
            # cache on the event loop: both are refused by the encoder.
            for _ in range(2):
                connection.request("POST", "/query", body=json.dumps({"vertex": vertex}))
                response = connection.getresponse()
                assert response.status == 500
                assert json.loads(response.read()) == {
                    "error": "internal server error",
                    "status": 500,
                }
            socket_before = connection.sock
            connection.request("GET", "/healthz")
            health = connection.getresponse()
            assert health.status == 200
            assert json.loads(health.read())["status"] == "ok"
            assert connection.sock is socket_before
            hits_on_loop = handle.server.batcher_stats.cache_hits_on_loop
            query_stats = handle.server.endpoint_stats["POST /query"].as_dict()
        finally:
            connection.close()
            handle.stop()
        assert hits_on_loop == 1
        # Both 500s count as errors of the endpoint, not as successes.
        assert (query_stats["requests"], query_stats["errors"]) == (2, 2)
        assert "cannot encode the response to POST /query" in capsys.readouterr().err

    def test_error_responses_keep_the_connection_usable(self, client):
        for _ in range(3):
            with pytest.raises(ServerError):
                client.query("no-such-user", K)
        assert client.healthz()["status"] == "ok"


class TestObservability:
    def test_healthz_shape(self, client, base_graph):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["vertices"] == base_graph.num_vertices
        assert health["edges"] == base_graph.num_edges
        assert health["incremental"] is True

    def test_stats_counts_requests_and_batches(self, base_graph, reference):
        handle = _serve(base_graph)
        try:
            with SACClient(handle.host, handle.port) as client:
                for label in _eligible_labels(reference, 3):
                    client.query(label, K, params=EPS)
                stats = client.stats()
        finally:
            handle.stop()
        query_stats = stats["endpoints"]["POST /query"]
        assert query_stats["requests"] == 3
        assert query_stats["errors"] == 0
        assert query_stats["mean_latency_ms"] > 0
        assert stats["batcher"]["queries_coalesced"] == 3
        assert stats["engine"]["queries_served"] == 3
        assert stats["config"]["max_batch_size"] == 32
        assert "max_linger_ms" not in stats["config"]


class TestMutations:
    def test_checkin_then_query_matches_serial_replay(self, base_graph, reference):
        label = _eligible_labels(reference, 1)[0]
        vertex = base_graph.index_of(label)
        handle = _serve(base_graph)
        try:
            with SACClient(handle.host, handle.port) as client:
                before = client.query(label, K, params=EPS)
                assert client.checkin(label, 0.99, 0.99)["applied"] is True
                after = client.query(label, K, params=EPS)
        finally:
            handle.stop()
        serial = IncrementalEngine(base_graph.mutable_copy())
        expect_before = serial.search(vertex, K, **EPS)
        serial.apply_checkin(vertex, 0.99, 0.99)
        expect_after = serial.search(vertex, K, **EPS)
        assert before == _expected(base_graph, expect_before) | {"query": label, "k": K}
        assert after == _expected(base_graph, expect_after) | {"query": label, "k": K}
        # The move must actually have changed the answer, or this test
        # proves nothing about invalidation.
        assert before["radius"] != after["radius"]

    def test_edge_update_matches_serial_replay(self, base_graph, reference):
        labels = _eligible_labels(reference, 24)
        graph = base_graph
        u_label, v_label = next(
            (a, b)
            for i, a in enumerate(labels)
            for b in labels[i + 1 :]
            if not graph.has_edge(graph.index_of(a), graph.index_of(b))
        )
        u, v = graph.index_of(u_label), graph.index_of(v_label)
        handle = _serve(base_graph)
        try:
            with SACClient(handle.host, handle.port) as client:
                response = client.edge(u_label, v_label, "insert")
                after = client.query(u_label, K, params=EPS)
        finally:
            handle.stop()
        serial = IncrementalEngine(base_graph.mutable_copy())
        changed = serial.apply_edge(u, v, "insert")
        expect_after = serial.search(u, K, **EPS)
        assert response["applied"] is True
        assert response["cores_changed"] == [graph.label_of(int(w)) for w in changed]
        assert after == _expected(base_graph, expect_after) | {"query": u_label, "k": K}

    def test_mutation_during_inflight_batch_preserves_arrival_order(
        self, base_graph, reference
    ):
        """A check-in racing a pending micro-batch must behave serially.

        The writer is held busy, so the first query, sent on one
        connection, waits in its pending group; the check-in arrives on
        another connection while it waits.  The single-writer barrier must
        flush the pending batch *before* the mutation, so the first answer
        reflects the pre-mutation graph and a follow-up query the
        post-mutation graph — exactly the serial replay of the same
        arrival order.
        """
        label = _eligible_labels(reference, 1)[0]
        vertex = base_graph.index_of(label)
        handle = _serve(base_graph)
        outcome = {}

        def pending_query():
            with SACClient(handle.host, handle.port) as mine:
                outcome["first"] = mine.query(label, K, params=EPS)

        def checkin():
            with SACClient(handle.host, handle.port) as mine:
                mine.checkin(label, 0.99, 0.99)

        try:
            gate = _WriterGate(handle)
            racer = threading.Thread(target=pending_query)
            racer.start()
            _wait_until(lambda: _lane_pending(handle) == 1)
            writer = threading.Thread(target=checkin)
            writer.start()
            _wait_until(lambda: handle.server.batcher_stats.flushes_mutation == 1)
            gate.release()
            writer.join(timeout=10)
            assert not writer.is_alive()
            with SACClient(handle.host, handle.port) as client:
                outcome["second"] = client.query(label, K, params=EPS)
            racer.join(timeout=10)
            assert not racer.is_alive()
            flushes = handle.server.batcher_stats.flushes_mutation
        finally:
            handle.stop()

        serial = IncrementalEngine(base_graph.mutable_copy())
        expect_first = serial.search(vertex, K, **EPS)
        serial.apply_checkin(vertex, 0.99, 0.99)
        expect_second = serial.search(vertex, K, **EPS)
        assert outcome["first"] == _expected(base_graph, expect_first) | {
            "query": label, "k": K,
        }
        assert outcome["second"] == _expected(base_graph, expect_second) | {
            "query": label, "k": K,
        }
        assert expect_first.circle.radius != expect_second.circle.radius
        assert flushes >= 1  # the write barrier actually flushed the batch

    def test_mutations_on_static_engine_are_a_400(self, base_graph):
        service = SACService(engine=QueryEngine(base_graph))
        handle = start_in_thread(SACServer(service, ServerConfig(port=0)))
        try:
            with SACClient(handle.host, handle.port) as client:
                assert client.healthz()["incremental"] is False
                with pytest.raises(ServerError) as excinfo:
                    client.checkin(0, 0.5, 0.5)
                assert excinfo.value.status == 400
                with pytest.raises(ServerError) as excinfo:
                    client.edge(0, 1, "insert")
                assert excinfo.value.status == 400
        finally:
            handle.stop()


class TestSnapshotLifecycle:
    def test_on_demand_snapshot_captures_mutated_state(self, base_graph, tmp_path):
        """``request_snapshot`` (the SIGUSR1 path) writes a warm-startable store."""
        snapshot = tmp_path / "live.store"
        handle = _serve(base_graph, snapshot_path=str(snapshot))
        try:
            with SACClient(handle.host, handle.port) as client:
                client.query(base_graph.label_of(0), K, params=EPS)
                client.checkin(base_graph.label_of(0), 0.25, 0.25)
            done = asyncio.run_coroutine_threadsafe(
                handle.server.request_snapshot(), handle._loop
            )
            assert done.result(timeout=30) is True
        finally:
            handle.stop()
        assert (snapshot / "manifest.json").is_file()
        warm = IncrementalEngine.from_store(str(snapshot))
        # The pre-snapshot mutation is part of the snapshot.
        assert warm.graph.position(0) == (0.25, 0.25)

    def test_snapshot_without_path_reports_false(self, base_graph):
        handle = _serve(base_graph)  # no snapshot_path configured
        try:
            done = asyncio.run_coroutine_threadsafe(
                handle.server.request_snapshot(), handle._loop
            )
            assert done.result(timeout=30) is False
        finally:
            handle.stop()

    def test_shutdown_writes_the_configured_snapshot(self, base_graph, tmp_path):
        snapshot = tmp_path / "exit.store"
        handle = _serve(base_graph, snapshot_path=str(snapshot))
        with SACClient(handle.host, handle.port) as client:
            client.query(base_graph.label_of(0), K, params=EPS)
        handle.stop()
        assert (snapshot / "manifest.json").is_file()


class TestGracefulShutdown:
    def test_drain_answers_pending_lingering_queries(self, base_graph, reference):
        label = _eligible_labels(reference, 1)[0]
        vertex = base_graph.index_of(label)
        handle = _serve(base_graph)
        outcome = {}

        def pending_query():
            with SACClient(handle.host, handle.port) as mine:
                outcome["response"] = mine.query(label, K, params=EPS)

        gate = _WriterGate(handle)
        racer = threading.Thread(target=pending_query)
        racer.start()
        _wait_until(lambda: _lane_pending(handle) == 1)  # waiting behind the gate
        # Drain must flush and answer it, not strand it.
        stopper = threading.Thread(target=handle.stop)
        stopper.start()
        _wait_until(lambda: handle.server.batcher_stats.flushes_drain == 1)
        gate.release()
        stopper.join(timeout=30)
        assert not stopper.is_alive()
        racer.join(timeout=10)
        assert not racer.is_alive()
        expected = _expected(base_graph, reference.search(vertex, K, **EPS))
        assert outcome["response"] == expected | {"query": label, "k": K}
        assert handle.server.batcher_stats.flushes_drain == 1

    def test_stopped_server_refuses_connections(self, base_graph):
        handle = _serve(base_graph)
        host, port = handle.host, handle.port
        with SACClient(host, port) as client:
            assert client.healthz()["status"] == "ok"
        handle.stop()
        with pytest.raises((ConnectionError, ServerError, OSError)):
            SACClient(host, port, timeout=2).healthz()

    def test_stop_is_idempotent(self, base_graph):
        handle = _serve(base_graph)
        handle.stop()
        handle.stop()  # second stop must be a clean no-op


class TestSloServing:
    """Deadline-lane serving: rung reporting, admission, fault injection."""

    def test_deadline_query_reports_rung_and_bound(self, base_graph, reference):
        label = _eligible_labels(reference, 1)[0]
        handle = _serve(base_graph, slo_enabled=True, warm_ks=(K,))
        try:
            with SACClient(handle.host, handle.port) as client:
                response = client.query(label, K, deadline_ms=60_000.0)
        finally:
            handle.stop()
        assert response["found"] is True
        assert response["algorithm_used"] in FULL_LADDER
        assert response["bound"] >= 1.0
        assert response["deadline_ms"] == 60_000.0
        # A one-minute budget on a 500-vertex graph is unmissable.
        assert response["deadline_missed"] is False

    def test_generous_deadline_serves_the_quality_ceiling(self, base_graph, reference):
        """With room to spare, the ladder must pick exact+, not a fast rung."""
        label = _eligible_labels(reference, 1)[0]
        handle = _serve(base_graph, slo_enabled=True, warm_ks=(K,))
        try:
            with SACClient(handle.host, handle.port) as client:
                response = client.query(label, K, deadline_ms=60_000.0)
        finally:
            handle.stop()
        assert response["algorithm_used"] == "exact+"
        assert response["bound"] == 1.0

    def test_stats_list_the_calibration_probes(self, base_graph):
        """``slo.calibration_probes``: one timed query per rung per probed component."""
        handle = _serve(base_graph, slo_enabled=True, warm_ks=(K,))
        try:
            with SACClient(handle.host, handle.port) as client:
                probes = client.stats()["slo"]["calibration_probes"]
            engine = handle.server.service.engine
        finally:
            handle.stop()
        # CostModel.calibrate probes the median and the largest component.
        labels, count = engine.component_labels(K)
        sizes = np.bincount(labels[labels >= 0], minlength=count)
        order = np.argsort(sizes)
        components = sorted({int(order[count // 2]), int(order[-1])}, key=lambda c: sizes[c])
        assert [(p["algorithm"], p["component_size"]) for p in probes] == [
            (algorithm, int(sizes[c])) for c in components for algorithm in LADDER
        ]
        assert all(p["ms"] > 0 for p in probes)

    def test_lying_cost_model_still_answers_with_missed_flag(
        self, base_graph, reference
    ):
        """A cost model claiming everything is free must not hide lateness.

        ``deadline_missed`` is judged against the request's wall clock, not
        against the model's predictions — so a pathologically optimistic
        model yields a *late but valid* answer, never a hang or a lie.
        """
        label = _eligible_labels(reference, 1)[0]
        handle = _serve(base_graph, slo_enabled=True, warm_ks=(K,))
        try:
            # Every rung fits any budget, says the model — even one that has
            # already expired — so the ladder picks the quality ceiling.
            handle.server.service.slo_model.predict_group = (
                lambda *args, **kwargs: -1e9
            )
            with SACClient(handle.host, handle.port) as client:
                response = client.query(label, K, deadline_ms=0.001)
        finally:
            handle.stop()
        assert response["found"] is True
        assert response["algorithm_used"] == "exact+"
        assert response["members"]  # a real, complete answer
        assert response["deadline_missed"] is True

    def test_pessimistic_cost_model_sheds_to_fastest_rung(
        self, base_graph, reference
    ):
        """A model claiming nothing fits must degrade, not refuse."""
        label = _eligible_labels(reference, 1)[0]
        handle = _serve(base_graph, slo_enabled=True, warm_ks=(K,))
        try:
            handle.server.service.slo_model.predict_group = (
                lambda *args, **kwargs: float("inf")
            )
            with SACClient(handle.host, handle.port) as client:
                response = client.query(label, K, deadline_ms=60_000.0)
        finally:
            handle.stop()
        assert response["found"] is True
        assert response["algorithm_used"] == "appfast"

    def test_lane_full_429_carries_retry_after(self, base_graph, reference):
        label = _eligible_labels(reference, 1)[0]
        handle = _serve(base_graph, max_queue_depth=1, retry_after_seconds=3.0)
        held = []
        gate = _WriterGate(handle)
        try:
            with SACClient(handle.host, handle.port) as client:
                for kwargs in ({}, {"deadline_ms": 100.0}):  # both lanes
                    held.append(_hold_lane_slot(handle, label, **kwargs))
                    with pytest.raises(ServerError) as excinfo:
                        client.query(label, K, **kwargs)
                    assert excinfo.value.status == 429
                    assert excinfo.value.retry_after == 3.0
            stats = SACClient(handle.host, handle.port).stats()
            assert stats["slo"]["lanes"]["besteffort"]["rejected"] == 1
            assert stats["slo"]["lanes"]["deadline"]["rejected"] == 1
        finally:
            gate.release()
            handle.stop()
            for thread in held:
                thread.join(timeout=10)

    def test_saturated_besteffort_lane_does_not_block_deadline_lane(
        self, base_graph, reference
    ):
        """Lane isolation: deadline traffic rides through best-effort overload."""
        label = _eligible_labels(reference, 1)[0]
        handle = _serve(base_graph, max_queue_depth=1)
        outcome = {}

        def pending_besteffort():
            with SACClient(handle.host, handle.port) as mine:
                outcome["pending"] = mine.query(label, K, params=EPS)

        def deadline_query():
            with SACClient(handle.host, handle.port) as mine:
                outcome["deadline"] = mine.query(label, K, deadline_ms=10_000.0)

        gate = _WriterGate(handle)
        try:
            racer = threading.Thread(target=pending_besteffort)
            racer.start()
            # The best-effort lane is now at its depth limit.
            _wait_until(lambda: _lane_pending(handle) == 1)
            with SACClient(handle.host, handle.port) as client:
                with pytest.raises(ServerError) as excinfo:
                    client.query(label, K)  # best-effort: refused
                assert excinfo.value.status == 429
            # Deadline traffic is admitted while the best-effort lane is full.
            rider = threading.Thread(target=deadline_query)
            rider.start()
            _wait_until(lambda: _lane_pending(handle, "deadline") == 1)
            assert _lane_pending(handle) == 1
            gate.release()
            rider.join(timeout=10)
            assert not rider.is_alive()
            deadline_answer = outcome["deadline"]
            assert deadline_answer["found"] is True
            racer.join(timeout=10)
            assert not racer.is_alive()
        finally:
            gate.release()
            handle.stop()
        assert outcome["pending"]["found"] is True

    def test_drain_under_burst_answers_every_admitted_query(
        self, base_graph, reference
    ):
        """Every query the server admitted must be answered through a drain."""
        labels = _eligible_labels(reference, 8)
        handle = _serve(base_graph, slo_enabled=True, warm_ks=(K,))
        answers = []
        rejected = []
        lock = threading.Lock()

        def fire(label, deadline_ms):
            try:
                with SACClient(handle.host, handle.port) as mine:
                    response = mine.query(label, K, deadline_ms=deadline_ms)
                with lock:
                    answers.append(response)
            except ServerError as error:
                with lock:
                    rejected.append(error)

        burst = [
            threading.Thread(target=fire, args=(label, deadline))
            for label in labels
            for deadline in (None, 5_000.0)
        ]
        gate = _WriterGate(handle)
        for thread in burst:
            thread.start()
        # The burst now waits behind the gate in both lanes.
        _wait_until(
            lambda: _lane_pending(handle) + _lane_pending(handle, "deadline") == len(burst)
        )
        # Drain must flush and answer all of it.
        stopper = threading.Thread(target=handle.stop)
        stopper.start()
        _wait_until(lambda: handle.server.batcher_stats.flushes_drain == 2)
        gate.release()
        stopper.join(timeout=30)
        assert not stopper.is_alive()
        for thread in burst:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert not rejected  # depth 1024 admits a 16-query burst outright
        assert len(answers) == len(burst)
        for response in answers:
            assert response["found"] is True
            assert response["algorithm_used"] in FULL_LADDER


class TestMonotonicDeadlineClock:
    """Deadline accounting runs on one monotonic clock, end to end.

    The regression these pin: ``deadline_missed`` used to be judged against
    ``time.time()`` while uptime ran on ``perf_counter`` — an NTP step (or
    any wall-clock jump) mid-request could flag a fast answer as late or
    launder a late one.  The daemon now takes an injectable monotonic
    ``clock`` and never reads the wall clock at all.
    """

    @staticmethod
    def _stepped_clock(step_seconds):
        """A thread-safe fake clock advancing ``step_seconds`` per reading."""
        lock = threading.Lock()
        state = {"now": 0.0}

        def clock():
            with lock:
                state["now"] += step_seconds
                return state["now"]

        return clock

    def _serve_with_clock(self, base_graph, clock):
        # The same fake clock drives BOTH layers: the daemon stamps arrival
        # and judges lateness, the service meters the remaining budget.
        service = SACService(
            engine=IncrementalEngine(base_graph.mutable_copy()), clock=clock
        )
        config = ServerConfig(port=0, slo_enabled=True, warm_ks=(K,))
        return start_in_thread(SACServer(service, config, clock=clock))

    def test_frozen_clock_never_flags_a_deadline_miss(self, base_graph, reference):
        """Zero elapsed monotonic time == nothing is late, however tight."""
        label = _eligible_labels(reference, 1)[0]
        handle = self._serve_with_clock(base_graph, self._stepped_clock(0.0))
        try:
            with SACClient(handle.host, handle.port) as client:
                response = client.query(label, K, deadline_ms=0.01)
        finally:
            handle.stop()
        assert response["found"] is True
        assert response["deadline_missed"] is False

    def test_stepped_clock_flags_every_deadline_miss(self, base_graph, reference):
        """A clock stepping 5s per reading makes any real deadline late."""
        label = _eligible_labels(reference, 1)[0]
        handle = self._serve_with_clock(base_graph, self._stepped_clock(5.0))
        try:
            with SACClient(handle.host, handle.port) as client:
                response = client.query(label, K, deadline_ms=1_000.0)
        finally:
            handle.stop()
        assert response["found"] is True
        assert response["deadline_missed"] is True

    def test_daemon_never_reads_the_wall_clock(
        self, base_graph, reference, monkeypatch
    ):
        """``time.time`` is a tripwire: any daemon call to it fails the test."""
        import repro.server.daemon as daemon_module

        real_time = daemon_module.time

        class _WallClockBomb:
            """Proxy over :mod:`time` whose ``time()`` detonates."""

            def __getattr__(self, name):
                if name == "time":
                    raise AssertionError(
                        "the daemon read time.time(); deadlines must stay "
                        "on the monotonic clock"
                    )
                return getattr(real_time, name)

        monkeypatch.setattr(daemon_module, "time", _WallClockBomb())
        label = _eligible_labels(reference, 1)[0]
        handle = _serve(base_graph, slo_enabled=True, warm_ks=(K,))
        try:
            with SACClient(handle.host, handle.port) as client:
                answer = client.query(label, K, deadline_ms=5_000.0)
                assert answer["found"] is True
                assert "deadline_missed" in answer
                assert client.checkin(label, 0.99, 0.99)["applied"] is True
                assert client.healthz()["status"] == "ok"
                assert client.stats()["uptime_seconds"] >= 0.0
        finally:
            handle.stop()


class TestRetryAfterAgreement:
    """The 429 ``Retry-After`` header and JSON payload advertise ONE delay.

    HTTP's ``Retry-After`` is integer-valued (RFC 9110 §10.2.3), so a
    sub-second ``retry_after_seconds`` is ceiled to 1 in the header; the
    regression pinned here is the payload reporting the raw float (0.25)
    while the header said ``1`` — clients honouring one or the other backed
    off differently.
    """

    def _raw_429(self, base_graph, reference, retry_after_seconds):
        import http.client as http_client
        import json as json_module

        label = _eligible_labels(reference, 1)[0]
        handle = _serve(
            base_graph, max_queue_depth=1, retry_after_seconds=retry_after_seconds
        )
        gate = _WriterGate(handle)
        held = _hold_lane_slot(handle, label)
        try:
            connection = http_client.HTTPConnection(
                handle.host, handle.port, timeout=30.0
            )
            connection.request(
                "POST",
                "/query",
                body=json_module.dumps({"vertex": label, "k": K}),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            header = response.getheader("Retry-After")
            payload = json_module.loads(response.read())
            status = response.status
            connection.close()
        finally:
            gate.release()
            handle.stop()
            held.join(timeout=10)
        return status, header, payload

    def test_subsecond_config_header_and_payload_agree(self, base_graph, reference):
        status, header, payload = self._raw_429(base_graph, reference, 0.25)
        assert status == 429
        assert header == "1"  # ceil(0.25) with a floor of one second
        assert payload["retry_after"] == 1  # equals the header, not the config
        assert isinstance(payload["retry_after"], int)

    def test_integer_config_header_and_payload_agree(self, base_graph, reference):
        status, header, payload = self._raw_429(base_graph, reference, 3.0)
        assert status == 429
        assert header == "3"
        assert payload["retry_after"] == 3


class TestNonFiniteNumbers:
    """``NaN`` / ``Infinity`` (accepted by Python's JSON decoder) are a 400.

    A non-finite number must neither reach the engine nor echo back into a
    response body, which would then not be valid JSON (RFC 8259).
    """

    @pytest.fixture(scope="class")
    def graph(self):
        return brightkite_like(300, seed=3)

    @pytest.fixture(scope="class")
    def handle(self, graph):
        handle = _serve(graph, poll_timeout_ms=500.0)
        yield handle
        handle.stop()

    @pytest.fixture(scope="class")
    def label(self, graph):
        return _eligible_labels(QueryEngine(graph), 1)[0]

    @staticmethod
    def _status(call) -> int:
        with pytest.raises(ServerError) as excinfo:
            call()
        return excinfo.value.status

    def test_non_finite_checkin_is_a_400_and_moves_nothing(self, handle, graph, label):
        live = handle.server.service
        vertex = live.graph.index_of(label)
        before = live.graph.coordinates[vertex].copy()
        with SACClient(handle.host, handle.port) as client:
            answer = client.query(label, K, params=EPS)
            for x in (math.nan, math.inf):
                assert self._status(lambda: client.checkin(label, x, 0.5)) == 400
            assert live.graph.coordinates[vertex].tolist() == before.tolist()
            assert live.engine.stats.location_updates == 0
            assert client.query(label, K, params=EPS) == answer

    def test_infinite_deadline_is_a_400(self, handle, label):
        with SACClient(handle.host, handle.port) as client:
            status = self._status(lambda: client.query(label, K, deadline_ms=math.inf))
        assert status == 400

    @pytest.mark.parametrize("endpoint", ["query", "batch"])
    def test_nan_epsilon_is_a_400(self, handle, label, endpoint):
        vertex = label if endpoint == "query" else [label]
        with SACClient(handle.host, handle.port) as client:
            send = getattr(client, endpoint)
            status = self._status(lambda: send(vertex, K, params={"epsilon_f": math.nan}))
        assert status == 400

    def test_nan_poll_timeout_is_a_400_not_a_park_past_the_cap(self, handle, label):
        with SACClient(handle.host, handle.port, timeout=5.0) as client:
            sub = client.subscribe(label, K, params=EPS)
            try:
                for raw in ("nan", "inf"):
                    path = f"/subscribe?id={sub['id']}&timeout_ms={raw}"
                    assert self._status(lambda: client._request("GET", path)) == 400
            finally:
                client.unsubscribe(sub["id"])


class TestServerConfigValidation:
    """Settings that would refuse every request, or crash a start, are refused."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_batch_size", 0),
            ("max_batch_queries", 0),
            ("max_queue_depth", 0),
            ("max_queue_depth", 2.5),
            ("max_queue_depth", True),
            ("max_body_bytes", -1),
            ("subscription_backlog", 0),
            ("default_deadline_ms", -5.0),
            ("default_deadline_ms", 0),
            ("default_deadline_ms", math.nan),
            ("poll_timeout_ms", -1.0),
            ("poll_timeout_ms", math.inf),
            ("retry_after_seconds", -0.5),
            ("drain_timeout_seconds", math.nan),
            ("subscription_idle_seconds", -1.0),
            ("subscription_idle_seconds", 0.0),
            ("subscription_idle_seconds", math.nan),
        ],
    )
    def test_unusable_value_is_refused(self, field, value):
        with pytest.raises(InvalidParameterError, match=field):
            ServerConfig(port=0, **{field: value})

    def test_smallest_usable_values_are_accepted(self):
        config = ServerConfig(
            port=0,
            max_batch_size=1,
            max_batch_queries=1,
            max_queue_depth=1,
            max_body_bytes=1,
            subscription_backlog=1,
            default_deadline_ms=0.5,
            poll_timeout_ms=0,
            retry_after_seconds=0.0,
            drain_timeout_seconds=0.0,
        )
        assert config.max_queue_depth == 1
