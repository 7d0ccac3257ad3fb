"""The replicated serving tier: one writer, N WAL-replayed read replicas.

The single daemon of :mod:`repro.server` funnels every read and every
mutation through one process — the hard ceiling on serving heavy traffic.
This package scales reads out without giving up the daemon's bit-identity
contract, by separating three roles that share two artifacts (one
:class:`repro.store.ArtifactStore` snapshot, one
:class:`repro.store.WriteAheadLog`):

* **writer** — a :class:`repro.server.SACServer` with a WAL configured
  (``ServerConfig.wal_dir``): the only process that mutates.  Every applied
  ``checkin``/``edge`` is appended to the log in apply order with a
  monotonic LSN; ``POST /compact`` rolls the log into a fresh LSN-stamped
  snapshot so replica cold-start stays O(snapshot).
* **replica** — :class:`ReplicaServer`: warm-starts zero-copy from the same
  snapshot (the mmap'd pages are shared by the OS, so N replicas cost one
  snapshot of RAM), refuses mutations with ``403`` + the writer's address,
  and tails the WAL with a :class:`repro.store.WalCursor`, replaying each
  record through its own :class:`repro.engine.IncrementalEngine` behind the
  daemon's write barrier.  The engine's per-``(k, representative)`` version
  counters are the invalidation machinery, so a replayed replica is
  **bit-identical** to the writer at every LSN — same answers, same cache
  validity.  A replica that falls behind a compaction resyncs from the
  fresh snapshot and resumes tailing.
* **coordinator** — :class:`Coordinator`: a thin stdlib HTTP proxy, on the
  daemon's own listener (:class:`repro.server.HttpServer`), that routes
  mutations to the writer and reads round-robin over replicas whose
  replay lag is within ``max_staleness_lsn`` of the writer's last durable
  LSN (lagging replicas are skipped — the read lands on the writer rather
  than waiting), probes ``/healthz`` to eject dead replicas and readmit
  recovered ones, and stamps every proxied response with ``X-Served-By``
  and ``X-Staleness-LSN``.

``repro-sac serve --role writer|replica|coordinator`` is the CLI front
end and :func:`repro.server.start_in_thread` runs any role in process;
see the Replication section of ``docs/serving.md`` for the operator guide
and ``benchmarks/bench_replication.py`` for the bit-identity and
staleness-bound measurements.
"""

from repro.replication.coordinator import Coordinator, CoordinatorConfig
from repro.replication.replica import ReplicaServer, ReplicaStats

__all__ = [
    "Coordinator",
    "CoordinatorConfig",
    "ReplicaServer",
    "ReplicaStats",
]
