"""The replicated tier: WAL replay bit-identity, staleness, failover.

Every test boots real daemons on ephemeral ports (writer, replicas, and —
where routing is under test — a coordinator) over one shared snapshot and
one shared WAL directory, and talks to them over real sockets.  The
contract being pinned, from ``docs/serving.md``:

* a replica's answer at ``applied_lsn`` is **bit-identical** to a serial
  replay of the same mutation prefix through one
  :class:`repro.engine.IncrementalEngine` — same members, same radius bits;
* the coordinator's ``X-Staleness-LSN`` never exceeds ``max_staleness_lsn``
  on any served read, and mutations only ever land on the writer;
* killing a replica mid-traffic loses no answers (failover), and a replica
  that falls behind a compaction resyncs from the fresh snapshot to exactly
  the state a cold rebuild would reach.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.datasets.geosocial import brightkite_like
from repro.engine import IncrementalEngine
from repro.replication import Coordinator, CoordinatorConfig, ReplicaServer
from repro.server import SACClient, SACServer, ServerConfig, ServerError, start_in_thread
from repro.service import SACService
from repro.store import ArtifactStore
from repro.testing.serverharness import (
    EPS,
    K,
    Tier as _Tier,
    assert_payload_identical as _assert_identical,
    mutation_trace as _mutations,
    oracle_payload as _expected,
    wait_applied as _wait_applied,
)


@pytest.fixture(scope="module")
def base_graph():
    """One small geo-social graph shared by every tier in this module."""
    return brightkite_like(num_vertices=300, seed=7)


@pytest.fixture(scope="module")
def snapshot(base_graph, tmp_path_factory):
    """One LSN-0 snapshot every writer/replica/oracle warm-starts from."""
    path = tmp_path_factory.mktemp("tier") / "store"
    service = SACService(engine=IncrementalEngine(base_graph.mutable_copy()))
    service.save(str(path))
    return str(path)


@pytest.fixture(scope="module")
def eligible(snapshot):
    """Labels of six vertices inside the k-core (queries with answers)."""
    engine = IncrementalEngine.from_store(snapshot)
    cores = engine.core_numbers()
    graph = engine.graph
    labels = [
        graph.label_of(v) for v in range(graph.num_vertices) if cores[v] >= K
    ][:6]
    assert len(labels) == 6, "fixture graph too sparse"
    return labels


class TestWriterWal:
    def test_mutations_are_logged_with_their_response_lsns(
        self, base_graph, snapshot, eligible, tmp_path
    ):
        # An edge insert needs a non-adjacent pair.
        u = eligible[0]
        v = next(
            label
            for label in eligible[1:]
            if not base_graph.has_edge(
                base_graph.index_of(u), base_graph.index_of(label)
            )
        )
        with _Tier(snapshot, tmp_path / "wal", replicas=0) as tier:
            with tier.client() as client:
                first = client.checkin(eligible[0], 0.9, 0.9)
                second = client.edge(u, v, "insert")
            assert first["lsn"] == 1
            assert second["lsn"] == 2
            stats_client = SACClient("127.0.0.1", tier.writer.port)
            replication = stats_client.stats()["replication"]
            stats_client.close()
        assert replication["role"] == "writer"
        assert replication["lsn"] == 2
        from repro.store import WalCursor

        records = WalCursor(tmp_path / "wal").poll()
        assert [r["op"] for r in records] == ["checkin", "edge"]
        # Logged as internal indices, in apply order.
        assert records[0]["lsn"] == 1 and records[1]["lsn"] == 2

    def test_writer_restart_replays_the_outstanding_log(
        self, snapshot, eligible, tmp_path
    ):
        """A restarted writer folds WAL records past the snapshot back in."""
        wal_dir = tmp_path / "wal"
        mutations = _mutations(eligible)
        with _Tier(snapshot, wal_dir, replicas=0) as tier:
            with tier.client() as client:
                for mutation in mutations:
                    client.checkin(mutation["user"], mutation["x"], mutation["y"])
        # Oracle: serial replay of the same prefix.
        oracle = IncrementalEngine.from_store(snapshot)
        for mutation in mutations:
            oracle.apply_record(dict(mutation))
        # The writer restarts over the same snapshot + WAL: it must land on
        # the oracle's exact state before serving, and keep numbering where
        # the log left off.
        with _Tier(snapshot, wal_dir, replicas=0) as tier:
            with tier.client() as client:
                for label in eligible:
                    _assert_identical(
                        client.query(label, K, params=EPS),
                        _expected(oracle, label),
                        label,
                    )
                assert client.checkin(eligible[3], 0.7, 0.7)["lsn"] == len(
                    mutations
                ) + 1


class TestReplicaReplay:
    def test_interleaved_traffic_is_bit_identical_to_serial_replay(
        self, snapshot, eligible, tmp_path
    ):
        """The tentpole contract, end to end over sockets."""
        oracle = IncrementalEngine.from_store(snapshot)
        with _Tier(snapshot, tmp_path / "wal", replicas=1) as tier:
            replica = tier.replicas[0]
            with tier.client() as writer_client, SACClient(
                "127.0.0.1", replica.port
            ) as replica_client:
                for lsn, mutation in enumerate(_mutations(eligible), start=1):
                    response = writer_client.checkin(
                        mutation["user"], mutation["x"], mutation["y"]
                    )
                    assert response["lsn"] == lsn
                    oracle.apply_record(dict(mutation))
                    _wait_applied(replica, lsn)
                    for label in eligible:
                        _assert_identical(
                            replica_client.query(label, K, params=EPS),
                            _expected(oracle, label),
                            (lsn, label),
                        )

    def test_replica_refuses_mutations_pointing_at_the_writer(
        self, snapshot, eligible, tmp_path
    ):
        with _Tier(snapshot, tmp_path / "wal", replicas=1) as tier:
            writer_url = f"http://127.0.0.1:{tier.writer.port}"
            with SACClient("127.0.0.1", tier.replicas[0].port) as client:
                with pytest.raises(ServerError) as excinfo:
                    client.checkin(eligible[0], 0.5, 0.5)
                assert excinfo.value.status == 403
                replication = client.stats()["replication"]
        assert replication["role"] == "replica"
        assert replication["writer"] == writer_url
        assert replication["replica"]["mutations_refused"] == 1

    def test_resync_after_compaction_matches_a_cold_rebuild(
        self, snapshot, eligible, tmp_path
    ):
        """A replica that slept through a compaction rebuilds bit-identically.

        The writer mutates, compacts (snapshot + rotate), then mutates more.
        A replica whose cursor still points before the rotation hits a
        :class:`WalGapError`, reopens the compacted snapshot, and replays the
        retained suffix — landing exactly where a cold rebuild (snapshot +
        remaining WAL) lands.
        """
        wal_dir = tmp_path / "wal"
        store = tmp_path / "compacted-store"
        # Seed the compacted snapshot from the shared base one.
        service = SACService.open(snapshot)
        service.save(str(store))
        writer = start_in_thread(
            SACServer(
                SACService.open(str(store)),
                ServerConfig(port=0, wal_dir=str(wal_dir), snapshot_path=str(store)),
            )
        )
        try:
            with SACClient("127.0.0.1", writer.port) as client:
                before = _mutations(eligible)[:2]
                for mutation in before:
                    client.checkin(mutation["user"], mutation["x"], mutation["y"])
                compacted = client.compact()
                assert compacted["snapshot_lsn"] == len(before)
                after = _mutations(eligible)[2:]
                for mutation in after:
                    client.checkin(mutation["user"], mutation["x"], mutation["y"])
            # The replica starts only NOW, from the stale pre-compaction view
            # (snapshot_lsn=0 cursor): its very first poll hits the gap.
            replica = start_in_thread(
                ReplicaServer(
                    SACService.open(str(store)),
                    ServerConfig(port=0, wal_dir=str(wal_dir)),
                    poll_interval_ms=10.0,
                )
            )
            try:
                total = len(before) + len(after)
                _wait_applied(replica, total)
                assert replica.server.replica_stats.resyncs >= 1
                # Cold rebuild: compacted snapshot + the retained WAL suffix.
                cold = IncrementalEngine.from_store(str(store))
                assert ArtifactStore.open(str(store)).lsn == len(before)
                for mutation in after:
                    cold.apply_record(dict(mutation))
                with SACClient("127.0.0.1", replica.port) as replica_client:
                    for label in eligible:
                        _assert_identical(
                            replica_client.query(label, K, params=EPS),
                            _expected(cold, label),
                            label,
                        )
            finally:
                replica.stop()
        finally:
            writer.stop()

    def test_resync_keeps_a_cacheless_replica_cacheless(
        self, snapshot, eligible, tmp_path
    ):
        """The reopened service inherits ``use_cache=False`` across a resync."""
        wal_dir = tmp_path / "wal"
        store = tmp_path / "compacted-store"
        SACService.open(snapshot).save(str(store))
        writer = start_in_thread(
            SACServer(
                SACService.open(str(store)),
                ServerConfig(port=0, wal_dir=str(wal_dir), snapshot_path=str(store)),
            )
        )
        try:
            mutations = _mutations(eligible)[:3]
            with SACClient("127.0.0.1", writer.port) as client:
                for index, mutation in enumerate(mutations):
                    if index == 2:
                        client.compact()
                    client.checkin(mutation["user"], mutation["x"], mutation["y"])
            replica = start_in_thread(
                ReplicaServer(
                    SACService.open(str(store), use_cache=False),
                    ServerConfig(port=0, wal_dir=str(wal_dir)),
                    poll_interval_ms=10.0,
                )
            )
            try:
                _wait_applied(replica, len(mutations))
                assert replica.server.replica_stats.resyncs == 1
                with SACClient("127.0.0.1", replica.port) as replica_client:
                    assert replica_client.stats()["cache"] is None
            finally:
                replica.stop()
        finally:
            writer.stop()


class TestCoordinator:
    def test_stop_survives_a_probe_that_swallows_the_cancel(self, monkeypatch):
        """``stop`` returns even when the health probe drops its cancel."""
        parked = []

        async def probe(coordinator, backend, *, is_writer):
            if not parked:
                parked.append(backend)
                try:
                    await asyncio.Event().wait()  # parked until stop() cancels
                except asyncio.CancelledError:
                    pass  # what asyncio.wait_for does before Python 3.12
            return True

        monkeypatch.setattr(Coordinator, "_probe", probe)
        handle = start_in_thread(
            Coordinator(
                CoordinatorConfig(
                    port=0,
                    writer="127.0.0.1:9",
                    replicas=("127.0.0.1:9",),
                    health_interval_ms=1.0,
                )
            )
        )
        while not parked:
            time.sleep(0.01)
        handle.stop(timeout=10.0)
        assert not handle._thread.is_alive()

    def test_reads_round_robin_within_the_staleness_bound(
        self, snapshot, eligible, tmp_path
    ):
        oracle = IncrementalEngine.from_store(snapshot)
        with _Tier(
            snapshot, tmp_path / "wal", replicas=2, coordinator=True
        ) as tier:
            with tier.client() as client:
                served_by = set()
                for lsn, mutation in enumerate(_mutations(eligible), start=1):
                    client.checkin(mutation["user"], mutation["x"], mutation["y"])
                    assert (
                        client.last_headers["x-served-by"]
                        == f"127.0.0.1:{tier.writer.port}"
                    )
                    oracle.apply_record(dict(mutation))
                    for label in eligible:
                        payload = client.query(label, K, params=EPS)
                        served_by.add(client.last_headers["x-served-by"])
                        assert int(client.last_headers["x-staleness-lsn"]) == 0
                        _assert_identical(
                            payload, _expected(oracle, label), (lsn, label)
                        )
                routing = client.stats()["routing"]
        # Bounded staleness was enforced on every single read...
        assert routing["max_staleness_observed"] == 0
        # ...and reads actually spread beyond one backend.
        assert len(served_by) >= 2

    def test_killing_a_replica_mid_traffic_loses_no_answers(
        self, snapshot, eligible, tmp_path
    ):
        with _Tier(
            snapshot, tmp_path / "wal", replicas=2, coordinator=True
        ) as tier:
            dead = f"127.0.0.1:{tier.replicas[0].port}"
            with tier.client() as client:
                for label in eligible:
                    assert "found" in client.query(label, K, params=EPS)
                tier.replicas[0].stop()
                answered = 0
                for label in eligible * 2:
                    payload = client.query(label, K, params=EPS)
                    assert "found" in payload
                    answered += 1
                assert answered == len(eligible) * 2
                health = client.healthz()
            statuses = {
                entry["address"]: entry["healthy"]
                for entry in health["replicas"]
            }
        assert statuses[dead] is False

    def test_snapshot_carries_the_covered_lsn(self, snapshot, eligible, tmp_path):
        """Compaction stamps the snapshot with the WAL position it covers."""
        store = tmp_path / "store-copy"
        service = SACService.open(snapshot)
        service.save(str(store))
        with _Tier(str(store), tmp_path / "wal", replicas=0) as tier:
            with tier.client() as client:
                for mutation in _mutations(eligible):
                    client.checkin(mutation["user"], mutation["x"], mutation["y"])
                outcome = client.compact()
        assert outcome["snapshot_lsn"] == len(_mutations(eligible))
        assert ArtifactStore.open(str(store)).lsn == outcome["snapshot_lsn"]
        assert outcome["wal_starts_at"] == outcome["snapshot_lsn"] + 1
