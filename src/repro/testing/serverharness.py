"""Real-socket server harness shared by the serving-tier test suites.

``tests/test_server.py``, ``tests/test_replication.py``,
``tests/test_slo.py``, and ``tests/test_subscriptions.py`` all boot real
daemons on ephemeral ports and compare wire answers against a serial
oracle.  The boot/teardown/compare plumbing they share lives here so each
suite states only its own contract:

* :func:`serve` — one fresh incremental-engine daemon over a private graph
  copy, stopped by the caller;
* :class:`Tier` — a replicated tier (writer + replicas + optional
  coordinator) over one snapshot and one WAL directory;
* :func:`expected_payload` / :func:`oracle_payload` /
  :func:`assert_payload_identical` — the JSON a correct response carries
  for a serial-engine result, and the bit-identity assertion;
* :func:`assert_results_identical` — the same identity on in-process
  :class:`~repro.core.result.SACResult` pairs (re-exported from
  :mod:`repro.testing.oracle`);
* :func:`shm_segments` / :func:`assert_clean_drain` — drain hygiene:
  a stop must be idempotent and leak no shared-memory segments.

Like :mod:`repro.testing.strategies`, this module is deliberately **not**
imported from the package ``__init__`` — it pulls in the whole serving
stack, which plain algorithm tests never need.  It has no test-only
dependencies (no hypothesis, no pytest): plain ``assert`` is enough under
pytest's rewriting and keeps the module importable from benchmarks and CI
smoke scripts.
"""

from __future__ import annotations

import os
import socket
import time
from typing import Dict, List, Optional, Sequence, Set

from repro.engine import IncrementalEngine
from repro.replication import Coordinator, CoordinatorConfig, ReplicaServer
from repro.server import SACClient, SACServer, ServerConfig, start_in_thread
from repro.service import SACService, approximation_bound
from repro.testing.oracle import assert_results_identical

__all__ = [
    "EPS",
    "K",
    "Tier",
    "assert_clean_drain",
    "assert_payload_identical",
    "assert_results_identical",
    "eligible_labels",
    "expected_payload",
    "free_port",
    "mutation_trace",
    "oracle_payload",
    "serve",
    "shm_segments",
    "wait_applied",
]

#: The default community parameter every serving-tier suite queries at.
K = 4
#: The default algorithm parameters (appfast's approximation knob).
EPS = {"epsilon_f": 0.5}


# ------------------------------------------------------------------ booting
def free_port() -> int:
    """An ephemeral TCP port that was free a moment ago.

    The daemons themselves bind ``port=0`` and report what they got —
    prefer that.  This helper is for the rare caller (a CLI smoke, a
    subprocess) that must name a port *before* the listener exists.
    """
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def serve(base_graph, **config_kwargs):
    """Start a fresh incremental-engine daemon over a private graph copy.

    Returns the :class:`~repro.server.ServerHandle`; the caller stops it.
    Keyword arguments are :class:`~repro.server.ServerConfig` fields; the
    port defaults to an ephemeral one.
    """
    service = SACService(engine=IncrementalEngine(base_graph.mutable_copy()))
    return start_in_thread(SACServer(service, ServerConfig(**{"port": 0, **config_kwargs})))


class Tier:
    """Boot writer + replicas (+ coordinator) over one snapshot + WAL dir.

    A context manager: entering yields the tier, exiting stops every
    daemon (coordinator first, then replicas, then the writer).
    """

    def __init__(self, snapshot, wal_dir, *, replicas=1, coordinator=False,
                 max_staleness_lsn=0, poll_interval_ms=10.0):
        self.snapshot = snapshot
        self.wal_dir = str(wal_dir)
        self.writer = start_in_thread(
            SACServer(
                SACService.open(snapshot),
                ServerConfig(port=0, wal_dir=self.wal_dir, snapshot_path=snapshot),
            )
        )
        self.replicas = [
            start_in_thread(
                ReplicaServer(
                    SACService.open(snapshot),
                    ServerConfig(port=0, wal_dir=self.wal_dir),
                    writer_url=f"http://127.0.0.1:{self.writer.port}",
                    poll_interval_ms=poll_interval_ms,
                )
            )
            for _ in range(replicas)
        ]
        self.coordinator = None
        if coordinator:
            self.coordinator = start_in_thread(
                Coordinator(
                    CoordinatorConfig(
                        port=0,
                        writer=f"127.0.0.1:{self.writer.port}",
                        replicas=tuple(f"127.0.0.1:{h.port}" for h in self.replicas),
                        max_staleness_lsn=max_staleness_lsn,
                        health_interval_ms=50.0,
                    )
                )
            )

    def client(self) -> SACClient:
        """A client bound to the tier's front door (coordinator or writer)."""
        handle = self.coordinator or self.writer
        return SACClient("127.0.0.1", handle.port)

    def stop(self) -> None:
        """Stop every server, front door first (idempotent)."""
        if self.coordinator is not None:
            self.coordinator.stop()
        for handle in self.replicas:
            handle.stop()
        self.writer.stop()

    def __enter__(self) -> "Tier":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def wait_applied(handle, lsn: int, timeout: float = 10.0) -> None:
    """Block until a replica has replayed up to ``lsn``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if handle.server.applied_lsn >= lsn:
            return
        time.sleep(0.01)
    raise AssertionError(
        f"replica stuck at lsn {handle.server.applied_lsn}, wanted {lsn}"
    )


# ------------------------------------------------------------------- oracles
def eligible_labels(reference, count: int, k: int = K) -> List:
    """Labels of the first ``count`` vertices inside some k-core."""
    cores = reference.core_numbers()
    graph = reference.graph
    picked = [graph.label_of(v) for v in range(graph.num_vertices) if cores[v] >= k]
    assert len(picked) >= count, "test graph too sparse for the requested k"
    return picked[:count]


def mutation_trace(labels: Sequence) -> List[Dict]:
    """A deterministic interleaved check-in trace over eligible users."""
    return [
        {"op": "checkin", "user": labels[0], "x": 0.99, "y": 0.99},
        {"op": "checkin", "user": labels[1], "x": 0.98, "y": 0.97},
        {"op": "checkin", "user": labels[0], "x": 0.01, "y": 0.02},
        {"op": "checkin", "user": labels[2], "x": 0.5, "y": 0.5},
    ]


def expected_payload(graph, result, params=EPS) -> Dict:
    """The JSON fields a correct response carries for an engine result."""
    return {
        "found": True,
        "algorithm": result.algorithm,
        "algorithm_used": result.algorithm,
        "bound": approximation_bound(result.algorithm, params),
        "size": result.size,
        "radius": result.circle.radius,
        "center": [result.circle.center.x, result.circle.center.y],
        "members": [graph.label_of(v) for v in sorted(result.members)],
    }


def oracle_payload(engine, label, k: int = K, params=EPS) -> Optional[Dict]:
    """The serial-replay oracle's JSON-visible answer for one query.

    ``None`` means the oracle found no community (the server must answer
    ``found: false``) — :func:`assert_payload_identical` understands it.
    """
    graph = engine.graph
    try:
        result = engine.search(graph.index_of(label), k, **params)
    except Exception:
        return None
    return {
        "members": [graph.label_of(v) for v in sorted(result.members)],
        "radius": result.circle.radius,
        "center": [result.circle.center.x, result.circle.center.y],
    }


def assert_payload_identical(payload, expected, context=()) -> None:
    """A wire answer equals the oracle's, bit for bit (or both not-found)."""
    if expected is None:
        assert payload["found"] is False, context
        return
    assert payload["found"] is True, context
    assert payload["members"] == expected["members"], context
    assert payload["radius"] == expected["radius"], context
    assert payload["center"] == expected["center"], context


# -------------------------------------------------------------- drain hygiene
def shm_segments() -> Set[str]:
    """Names of the POSIX shared-memory segments currently in ``/dev/shm``.

    Python's standard library names its POSIX shared-memory segments
    ``psm_*``; the serving stack creates none, and a clean drain must leave
    none behind.  On
    platforms without ``/dev/shm`` this returns the empty set and the
    leak assertion degrades to a no-op.
    """
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except OSError:
        return set()


def assert_clean_drain(handle, *, shm_before: Optional[Set[str]] = None) -> None:
    """Stop a daemon and assert the drain contract.

    A stop must complete, be idempotent (a second stop is a clean no-op),
    and — when ``shm_before`` is the :func:`shm_segments` snapshot taken
    before the server started — leak no new shared-memory segments.
    """
    handle.stop()
    handle.stop()
    if shm_before is not None:
        leaked = shm_segments() - shm_before
        assert not leaked, f"drain leaked shared-memory segments: {sorted(leaked)}"
