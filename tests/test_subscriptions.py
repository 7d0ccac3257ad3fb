"""Standing queries: conformance against a re-query oracle, soak, chaos.

The contract pinned here, from ``docs/serving.md``:

* **bit-identity** — every snapshot, delta, and resync a subscription
  delivers reconstructs exactly the answer a fresh
  :class:`repro.engine.QueryEngine` search gives at that engine state:
  same members, same radius bits (the hypothesis harness replays random
  interleavings of check-ins, edge flips, subscribes, unsubscribes and
  polls, folding deltas into a mirror and comparing against re-query);
* **no missed update** — a mutation that changes a subscribed community
  always surfaces: the mirror never diverges from the oracle, and ``seq``
  arrives gapless;
* **no spurious delta** — an evaluation pass that leaves the observable
  answer unchanged delivers nothing, and mutations in *other* components
  never even re-execute the subscription (dirty-set precision);
* **one answer store** — re-evaluation rides ``SACService.submit_batch``,
  so a read after a mutation on a subscribed vertex is a cache hit, and
  unversioned ``k = 1`` subscriptions re-evaluate on every pass;
* **soak/chaos** — long-poll subscribers held open across writer
  compaction, replica kill, and server drain always end with a final
  message or a clean resync, never a hang, and a drain leaks no
  shared-memory segments;
* **one delivery mode** — long-poll is the only way to collect deltas: a
  request for chunked streaming is a 400, an unsubscribe answers a parked
  poll with a 404, and a poll that does not park rides the client's
  keep-alive connection.

Run separately with ``pytest -m subscriptions``; the suite is also tier 1.
"""

from __future__ import annotations

import http.client
import threading
import time
from urllib.parse import urlencode

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets.geosocial import brightkite_like
from repro.engine import IncrementalEngine
from repro.exceptions import NoCommunityError
from repro.server import SACClient, ServerError
from repro.service import SACService, SubscriptionRegistry
from repro.testing.serverharness import (
    EPS,
    K,
    Tier,
    assert_clean_drain,
    eligible_labels,
    serve,
    shm_segments,
    wait_applied,
)

pytestmark = pytest.mark.subscriptions

#: The standing-query k used registry-side: small enough that a 60-vertex
#: graph has several distinct k-core components to subscribe across.
SUB_K = 3


@pytest.fixture(scope="module")
def small_graph():
    """A small geo-social graph with (at least) two distinct 3-core
    components, so dirty-set precision is testable; every example mutates a
    private copy."""
    return brightkite_like(num_vertices=60, seed=8)


@pytest.fixture(scope="module")
def base_graph():
    """The serving-tier graph shared with the other server suites."""
    return brightkite_like(num_vertices=300, seed=7)


def _fresh_oracle(engine, graph, vertex, k=SUB_K):
    """Re-query the live engine; the observable answer a mirror must hold."""
    try:
        result = engine.search(vertex, k, algorithm="appfast", **EPS)
    except NoCommunityError:
        return None
    return {
        "members": {graph.label_of(v) for v in sorted(result.members)},
        "radius": result.circle.radius,
        "center": [result.circle.center.x, result.circle.center.y],
    }


class _Mirror:
    """A client-side reconstruction of one subscription from its messages."""

    def __init__(self, snapshot):
        assert snapshot["type"] == "snapshot"
        self.seq = snapshot["seq"]
        self.found = snapshot["found"]
        self.members = set(snapshot["members"])
        self.radius = snapshot["radius"]
        self.center = snapshot["center"]

    def apply(self, message):
        """Fold one delivered message in, checking sequencing and deltas."""
        assert message["seq"] == self.seq + 1, "message sequence gap"
        self.seq = message["seq"]
        if message["type"] == "resync":
            self.found = message["found"]
            self.members = set(message["members"])
            self.radius = message["radius"]
            self.center = message["center"]
            return
        assert message["type"] == "delta"
        added, removed = set(message["added"]), set(message["removed"])
        # No spurious delta: something observable must have moved.
        assert (
            added
            or removed
            or message["found"] != self.found
            or message["radius"] != self.radius
            or message["center"] != self.center
        ), "delta delivered with no observable change"
        assert not added & self.members, "delta adds members already present"
        assert removed <= self.members, "delta removes members never present"
        self.members = (self.members - removed) | added
        self.found = message["found"]
        self.radius = message["radius"]
        self.center = message["center"]
        assert message["size"] == len(self.members)

    def assert_matches(self, oracle, context=()):
        """Mirror state equals the fresh re-query answer, bit for bit."""
        if oracle is None:
            assert self.found is False, context
            assert self.members == set(), context
            return
        assert self.found is True, context
        assert self.members == oracle["members"], context
        assert self.radius == oracle["radius"], context
        assert self.center == oracle["center"], context


def _operations(num_vertices):
    """Random interleavings of mutations and subscription traffic."""
    vertex = st.integers(min_value=0, max_value=num_vertices - 1)
    slot = st.integers(min_value=0, max_value=7)
    coordinate = st.floats(
        min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
    )
    return st.lists(
        st.one_of(
            st.tuples(st.just("checkin"), vertex, coordinate, coordinate),
            st.tuples(st.just("edge"), vertex, vertex),
            st.tuples(st.just("subscribe"), vertex),
            st.tuples(st.just("unsubscribe"), slot),
            st.tuples(st.just("poll"), slot),
        ),
        min_size=4,
        max_size=30,
    )


class TestDifferentialConformance:
    """The hypothesis harness: random interleavings vs the re-query oracle.

    ``k`` is drawn too: ``k = 1`` answers carry no component version, so
    they exercise the re-evaluate-every-pass path of unversioned answers.
    """

    @settings(
        max_examples=50,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(ops=_operations(60), k=st.sampled_from([SUB_K, 1]))
    def test_every_delivered_message_matches_a_fresh_requery(
        self, small_graph, ops, k
    ):
        service = SACService(engine=IncrementalEngine(small_graph.mutable_copy()))
        registry = SubscriptionRegistry(service, backlog=1_000)
        engine, graph = service.engine, service.graph
        mirrors = {}  # sub_id -> (_Mirror, vertex, evals_since_poll)
        order = []  # registration order, for slot addressing

        def drain_and_check(sub_id, context):
            mirror, vertex, pending_evals = mirrors[sub_id]
            messages = registry.poll(sub_id)
            # Coalescing: at most one message per evaluation pass since the
            # last poll — a version bump never fans out into duplicates.
            assert len(messages) <= pending_evals, context
            for message in messages:
                mirror.apply(message)
            mirror.assert_matches(
                _fresh_oracle(engine, graph, vertex, k), context
            )
            mirrors[sub_id] = (mirror, vertex, 0)

        def evaluate():
            registry.evaluate()
            for sub_id, (mirror, vertex, pending) in list(mirrors.items()):
                mirrors[sub_id] = (mirror, vertex, pending + 1)

        for step, op in enumerate(ops):
            kind = op[0]
            if kind == "checkin":
                engine.apply_checkin(op[1], op[2], op[3])
                evaluate()
            elif kind == "edge":
                u, v = op[1], op[2]
                if u == v:
                    continue
                action = "delete" if graph.has_edge(u, v) else "insert"
                engine.apply_edge(u, v, action)
                evaluate()
            elif kind == "subscribe":
                sub, snapshot = registry.register(
                    op[1], k, algorithm="appfast", params=dict(EPS)
                )
                mirror = _Mirror(snapshot)
                mirror.assert_matches(
                    _fresh_oracle(engine, graph, op[1], k), (step, "snapshot")
                )
                mirrors[sub.sub_id] = (mirror, op[1], 0)
                order.append(sub.sub_id)
            elif kind == "unsubscribe" and order:
                sub_id = order[op[1] % len(order)]
                if sub_id in mirrors:
                    assert registry.unsubscribe(sub_id) is True
                    del mirrors[sub_id]
                    with pytest.raises(KeyError):
                        registry.poll(sub_id)
            elif kind == "poll" and order:
                sub_id = order[op[1] % len(order)]
                if sub_id in mirrors:
                    drain_and_check(sub_id, (step, "poll", sub_id))

        # Final settlement: every live subscription drains to exactly the
        # oracle's answer — a missed update would leave the mirror diverged.
        for sub_id in list(mirrors):
            drain_and_check(sub_id, ("final", sub_id))
        assert registry.stats.deltas_delivered >= 0  # counters never went bad


class TestDirtySetPrecision:
    """Version probes skip untouched components entirely."""

    def _two_components(self, service):
        """Vertices from two distinct k-core components (reps differ)."""
        engine = service.engine
        graph = service.graph
        seen = {}
        for vertex in range(graph.num_vertices):
            try:
                _, rep = engine.component_of(vertex, SUB_K)
            except NoCommunityError:
                continue
            seen.setdefault(int(rep), vertex)
            if len(seen) == 2:
                first, second = seen.values()
                return first, second
        pytest.skip("fixture graph has fewer than two k-core components")

    def test_unrelated_mutation_never_reexecutes_the_subscription(
        self, small_graph
    ):
        service = SACService(engine=IncrementalEngine(small_graph.mutable_copy()))
        registry = SubscriptionRegistry(service)
        mine, other = self._two_components(service)
        sub, _ = registry.register(mine, SUB_K, algorithm="appfast", params=EPS)
        baseline = registry.stats.subscriptions_evaluated
        service.engine.apply_checkin(other, 0.9, 0.9)
        woken = registry.evaluate()
        # The other component's version moved; ours did not — the dirty-set
        # probe must skip our subscription without planning anything.
        assert woken == []
        assert registry.stats.subscriptions_evaluated == baseline
        assert registry.poll(sub.sub_id) == []

    def test_shared_component_costs_one_group_execution(self, small_graph):
        service = SACService(engine=IncrementalEngine(small_graph.mutable_copy()))
        registry = SubscriptionRegistry(service)
        mine, _ = self._two_components(service)
        first, _ = registry.register(mine, SUB_K, algorithm="appfast", params=EPS)
        # A second standing query on the same component (the same vertex is
        # the guaranteed same-component case).
        second, _ = registry.register(mine, SUB_K, algorithm="appfast", params=EPS)
        before = registry.stats.groups_executed
        service.engine.apply_checkin(mine, 0.77, 0.33)
        woken = registry.evaluate()
        # Both subscriptions re-evaluated, but through ONE planner group —
        # N standing queries on a component cost one candidate fetch.
        assert registry.stats.groups_executed == before + 1
        assert set(woken) <= {first.sub_id, second.sub_id}

    def test_overflow_resync_snapshot_equals_requery(self, small_graph):
        service = SACService(engine=IncrementalEngine(small_graph.mutable_copy()))
        registry = SubscriptionRegistry(service, backlog=2)
        mine, _ = self._two_components(service)
        sub, snapshot = registry.register(
            mine, SUB_K, algorithm="appfast", params=EPS
        )
        for step in range(6):  # unpolled changes far past the backlog
            service.engine.apply_checkin(mine, 0.1 + 0.13 * step, 0.5)
            registry.evaluate()
        messages = registry.poll(sub.sub_id)
        assert messages, "overflowed subscription delivered nothing"
        assert messages[0]["type"] == "resync"
        mirror = _Mirror(dict(snapshot))
        mirror.seq = messages[0]["seq"] - 1  # resync re-bases the sequence
        for message in messages:
            mirror.apply(message)
        mirror.assert_matches(
            _fresh_oracle(service.engine, service.graph, mine)
        )
        assert registry.stats.overflows >= 1


class _SteppedClock:
    """A fake monotonic clock that advances ``step`` seconds per reading."""

    def __init__(self, step):
        self.step = step
        self.now = 0.0

    def __call__(self):
        self.now += self.step
        return self.now


class TestSharedAnswerStore:
    """Standing queries answer through ``submit_batch`` and its answer cache."""

    def test_k1_subscription_sees_its_nearest_neighbour_move(self, small_graph):
        """``k = 1`` answers carry no version, so every pass re-evaluates them."""
        service = SACService(engine=IncrementalEngine(small_graph.mutable_copy()))
        registry = SubscriptionRegistry(service)
        sub, snapshot = registry.register(0, 1)
        assert snapshot["members"] == [0, 58]
        # 58 moves away: 0's nearest neighbour, and so its community, changes.
        service.engine.apply_checkin(58, 0.999, 0.999)
        fresh = service.engine.search(0, 1)
        assert sorted(fresh.members) == [0, 53]
        assert registry.evaluate() == [sub.sub_id]
        [delta] = registry.poll(sub.sub_id)
        assert (delta["added"], delta["removed"]) == ([53], [58])
        assert registry.snapshot(sub.sub_id)["members"] == [0, 53]

    def test_read_after_write_on_a_subscribed_vertex_is_a_cache_hit(
        self, small_graph
    ):
        service = SACService(engine=IncrementalEngine(small_graph.mutable_copy()))
        registry = SubscriptionRegistry(service)
        vertex = next(
            v
            for v in range(service.graph.num_vertices)
            if service.engine.core_numbers()[v] >= SUB_K
        )
        registry.register(vertex, SUB_K, algorithm="appfast", params=EPS)
        service.apply_checkin(vertex, 0.42, 0.58)
        registry.evaluate()
        assert registry.stats.subscriptions_evaluated == 1
        # The re-evaluation stored the post-mutation answer in the service's
        # cache, so the next read of the same query never executes.
        read = service.submit_batch([vertex], SUB_K, algorithm="appfast", **EPS)
        assert read.cache_hits == 1
        assert read.plan_groups == 0

    def test_evaluation_seconds_runs_on_the_injected_clock(self, small_graph):
        service = SACService(engine=IncrementalEngine(small_graph.mutable_copy()))
        clock = _SteppedClock(2.5)
        registry = SubscriptionRegistry(service, clock=clock)
        registry.register(0, SUB_K, algorithm="appfast", params=EPS)
        registry.evaluate()
        # One reading when the pass starts, one when it ends: exactly one step.
        assert registry.stats.evaluation_seconds == 2.5


class TestSoakAndChaos:
    """Subscribers held open across compaction, failover, and drain."""

    def _snapshot(self, base_graph, tmp_path):
        store = tmp_path / "store"
        service = SACService(engine=IncrementalEngine(base_graph.mutable_copy()))
        service.save(str(store))
        return str(store)

    def test_long_poll_survives_writer_compaction(
        self, base_graph, tmp_path
    ):
        """A parked poller rides through ``/compact`` and still gets its delta."""
        shm_before = shm_segments()
        snapshot = self._snapshot(base_graph, tmp_path)
        label = eligible_labels(IncrementalEngine.from_store(snapshot), 1)[0]
        outcome = {}
        with Tier(snapshot, tmp_path / "wal", replicas=0) as tier:
            with tier.client() as client:
                sub = client.subscribe(label, K, params=EPS)
                assert sub["type"] == "snapshot" and sub["found"] is True

                def parked_poll():
                    with SACClient(
                        "127.0.0.1", tier.writer.port
                    ) as mine:
                        outcome["poll"] = mine.poll(sub["id"], timeout_ms=15_000)

                poller = threading.Thread(target=parked_poll)
                poller.start()
                # Compaction runs the write barrier while the poller parks;
                # versions don't move, so no delta may be fabricated...
                assert client.compact()["snapshot_lsn"] == 0
                # ...and the real mutation afterwards must wake the poller.
                client.checkin(label, 0.99, 0.99)
                poller.join(timeout=20)
                assert not poller.is_alive(), "poller hung across compaction"
        messages = outcome["poll"]["messages"]
        assert len(messages) == 1 and messages[0]["type"] == "delta"
        assert messages[0]["lsn"] == 1  # the checkin's WAL stamp
        leaked = shm_segments() - shm_before
        assert not leaked, f"tier drain leaked shm segments: {sorted(leaked)}"

    def test_replica_kill_ends_the_poll_and_reads_fail_over(
        self, base_graph, tmp_path
    ):
        """Killing a subscribed replica drains its poller; reads fail over."""
        snapshot = self._snapshot(base_graph, tmp_path)
        label = eligible_labels(IncrementalEngine.from_store(snapshot), 1)[0]
        outcome = {}
        with Tier(
            snapshot, tmp_path / "wal", replicas=2, coordinator=True
        ) as tier:
            replica = tier.replicas[0]
            with SACClient("127.0.0.1", replica.port) as sub_client:
                sub = sub_client.subscribe(label, K, params=EPS)

                def parked_poll():
                    try:
                        with SACClient("127.0.0.1", replica.port) as mine:
                            outcome["poll"] = mine.poll(
                                sub["id"], timeout_ms=15_000
                            )
                    except (ServerError, ConnectionError, OSError) as error:
                        outcome["error"] = error

                poller = threading.Thread(target=parked_poll)
                poller.start()
                replica.stop()  # chaos: the subscribed backend dies
                poller.join(timeout=20)
                assert not poller.is_alive(), "poller hung across replica kill"
            # Either a clean drain notice or a closed connection — never a
            # silent hang, never a torn payload.
            if "poll" in outcome:
                assert outcome["poll"]["draining"] is True
                kinds = [m["type"] for m in outcome["poll"]["messages"]]
                assert kinds == ["drain"]
            else:
                assert "error" in outcome
            # The coordinator routes around the corpse: every read answers.
            with tier.client() as front:
                for _ in range(6):
                    assert "found" in front.query(label, K, params=EPS)

    def test_subscription_survives_replica_gap_resync(
        self, base_graph, tmp_path
    ):
        """A WAL-gap resync rebinds the registry; the subscription lives on.

        The replica polls slowly (3 s), so the writer's mutate → compact →
        mutate sequence rotates the log before the replica ever sees the
        early records: its next poll hits the gap, reopens the compacted
        snapshot, and the rebound registry delivers one coalesced delta
        equal to the final state — with no spurious delta for an untouched
        subscription.
        """
        snapshot = self._snapshot(base_graph, tmp_path)
        engine = IncrementalEngine.from_store(snapshot)
        moved, quiet = eligible_labels(engine, 2)
        with Tier(
            snapshot, tmp_path / "wal", replicas=1, poll_interval_ms=3_000.0
        ) as tier:
            replica = tier.replicas[0]
            with SACClient("127.0.0.1", replica.port) as sub_client:
                sub = sub_client.subscribe(moved, K, params=EPS)
                still = sub_client.subscribe(quiet, K, params=EPS)
                with tier.client() as writer_client:
                    writer_client.checkin(moved, 0.99, 0.99)
                    writer_client.checkin(moved, 0.97, 0.95)
                    compacted = writer_client.compact()
                    assert compacted["snapshot_lsn"] == 2
                    writer_client.checkin(moved, 0.01, 0.02)
                wait_applied(replica, 3, timeout=20.0)
                assert replica.server.replica_stats.resyncs >= 1

                # The moved subscription reconstructs the post-gap state.
                oracle = IncrementalEngine.from_store(snapshot)
                oracle.apply_record(
                    {"op": "checkin", "user": moved, "x": 0.01, "y": 0.02}
                )
                graph = oracle.graph
                expected = oracle.search(
                    graph.index_of(moved), K, algorithm="appfast", **EPS
                )
                mirror = _Mirror(dict(sub))
                messages = sub_client.poll(sub["id"], timeout_ms=100)["messages"]
                assert messages, "resync delivered no update for a moved user"
                mirror.seq = messages[0]["seq"] - 1  # server seq, not ours
                for message in messages:
                    assert message["type"] in ("delta", "resync")
                    mirror.seq = message["seq"] - 1
                    mirror.apply(message)
                assert mirror.members == {
                    graph.label_of(v) for v in sorted(expected.members)
                }
                assert mirror.radius == expected.circle.radius
                # The untouched community saw the same rebind but must stay
                # silent: re-resolution is not an observable change.
                quiet_poll = sub_client.poll(still["id"], timeout_ms=100)
                assert quiet_poll["messages"] == []

    def test_replica_publishes_applied_lsn_after_queueing_deltas(
        self, base_graph, tmp_path, monkeypatch
    ):
        """Once ``applied_lsn`` reaches a mutation, its delta is already queued.

        Re-evaluation is slowed to 300 ms, so a replica that published its
        replay position before re-evaluating its subscriptions is caught:
        the poll right after ``wait_applied`` does not park and would find
        nothing yet.
        """
        evaluate = SubscriptionRegistry.evaluate

        def slow_evaluate(registry, *args, **kwargs):
            time.sleep(0.3)
            return evaluate(registry, *args, **kwargs)

        snapshot = self._snapshot(base_graph, tmp_path)
        moved = eligible_labels(IncrementalEngine.from_store(snapshot), 1)[0]
        with Tier(snapshot, tmp_path / "wal", replicas=1) as tier:
            replica = tier.replicas[0]
            with SACClient("127.0.0.1", replica.port) as sub_client:
                sub = sub_client.subscribe(moved, K, params=EPS)
                monkeypatch.setattr(SubscriptionRegistry, "evaluate", slow_evaluate)
                with tier.client() as writer_client:
                    lsn = writer_client.checkin(moved, 0.99, 0.99)["lsn"]
                wait_applied(replica, lsn)
                messages = sub_client.poll(sub["id"], timeout_ms=0)["messages"]
        assert [message["type"] for message in messages] == ["delta"]
        assert messages[0]["lsn"] == lsn

    def test_long_poll_drain_terminates_cleanly_and_leaks_nothing(
        self, base_graph
    ):
        """A check-in burst reaches a poll; a poll parked across drain answers ``drain``."""
        shm_before = shm_segments()
        handle = serve(base_graph)
        label = eligible_labels(
            IncrementalEngine(base_graph.mutable_copy()), 1
        )[0]
        outcome = {}

        def parked_poll(sub_id):
            with SACClient(handle.host, handle.port) as mine:
                outcome["poll"] = mine.poll(sub_id, timeout_ms=20_000)

        try:
            with SACClient(handle.host, handle.port) as client:
                sub = client.subscribe(label, K, params=EPS)
                for step in range(3):
                    client.checkin(label, 0.2 + 0.25 * step, 0.8)
                burst = client.poll(sub["id"], timeout_ms=0)["messages"]
                poller = threading.Thread(target=parked_poll, args=(sub["id"],))
                poller.start()
                deadline = time.monotonic() + 20.0
                while handle.server._parked < 1:
                    assert time.monotonic() < deadline, "the poll never parked"
                    time.sleep(0.01)
        finally:
            assert_clean_drain(handle, shm_before=shm_before)
        poller.join(timeout=20)
        assert not poller.is_alive(), "poller hung across drain"
        assert any(m["type"] == "delta" for m in burst), "burst delivered no delta"
        assert outcome["poll"] == {
            "id": sub["id"],
            "messages": [{"type": "drain", "id": sub["id"]}],
            "draining": True,
        }


class TestLongPollOnly:
    """Long-poll is the one way to collect deltas."""

    def test_stream_parameter_is_a_400_pointing_to_long_poll(self, base_graph):
        handle = serve(base_graph)
        label = eligible_labels(
            IncrementalEngine(base_graph.mutable_copy()), 1
        )[0]
        try:
            with SACClient(handle.host, handle.port) as client:
                sub_id = client.subscribe(label, K, params=EPS)["id"]
                for flag in ("1", "true", "yes"):
                    query = urlencode({"id": sub_id, "stream": flag})
                    with pytest.raises(ServerError) as excinfo:
                        client._request("GET", f"/subscribe?{query}")
                    assert excinfo.value.status == 400
                    assert "long-poll" in excinfo.value.message
                # The values that never asked for a stream still long-poll.
                for flag in ("0", "false", "no"):
                    query = urlencode({"id": sub_id, "stream": flag, "timeout_ms": 0})
                    answer = client._request("GET", f"/subscribe?{query}")
                    assert answer == {"id": sub_id, "messages": [], "draining": False}
        finally:
            handle.stop()

    def test_unsubscribe_answers_a_parked_poll_with_404(self, base_graph):
        handle = serve(base_graph)
        label = eligible_labels(
            IncrementalEngine(base_graph.mutable_copy()), 1
        )[0]
        outcome = {}

        def parked_poll(sub_id):
            with SACClient(handle.host, handle.port) as mine:
                try:
                    outcome["poll"] = mine.poll(sub_id, timeout_ms=20_000)
                except ServerError as error:
                    outcome["status"] = error.status

        try:
            with SACClient(handle.host, handle.port) as client:
                sub_id = client.subscribe(label, K, params=EPS)["id"]
                poller = threading.Thread(target=parked_poll, args=(sub_id,))
                poller.start()
                deadline = time.monotonic() + 20.0
                while handle.server._parked < 1:
                    assert time.monotonic() < deadline, "the poll never parked"
                    time.sleep(0.01)
                client.unsubscribe(sub_id)
                poller.join(timeout=10)
        finally:
            handle.stop()
        assert not poller.is_alive(), "the parked poll outlived its subscription"
        assert outcome == {"status": 404}

    def test_zero_timeout_polls_reuse_the_keep_alive_connection(
        self, base_graph, monkeypatch
    ):
        """``timeout_ms=0`` is a poll that does not park, not an unset timeout."""
        handle = serve(base_graph)
        label = eligible_labels(
            IncrementalEngine(base_graph.mutable_copy()), 1
        )[0]
        opened = []

        class CountingConnection(http.client.HTTPConnection):
            def __init__(self, *args, **kwargs):
                opened.append(kwargs.get("timeout"))
                super().__init__(*args, **kwargs)

        try:
            with SACClient(handle.host, handle.port) as client:
                sub_id = client.subscribe(label, K, params=EPS)["id"]
                monkeypatch.setattr(http.client, "HTTPConnection", CountingConnection)
                for _ in range(5):
                    assert client.poll(sub_id, timeout_ms=0)["messages"] == []
        finally:
            handle.stop()
        assert opened == []
