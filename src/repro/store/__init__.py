"""The storage layer: persistent artifacts, memory-mapped warm starts.

Everything above the graph substrate computes artifacts that outlive the
process that computed them — the parsed graph, the core decomposition, the
per-``(k, component)`` candidate bundles.  This package decouples those
artifacts from the computing process:

* :class:`ArtifactStore` — snapshot a live engine's graph and caches to a
  directory holding a versioned JSON manifest plus one uncompressed
  ``arrays.npz`` pack of flat ``.npy`` array members, and reopen them
  **memory-mapped and read-only**;
  :meth:`repro.engine.QueryEngine.from_store` /
  :meth:`repro.engine.IncrementalEngine.from_store` warm-start from one with
  bit-identical answers to a cold build (engines copy-on-first-mutate, so
  dynamic updates still work and the snapshot is never written through);
* :mod:`repro.store.manifest` — the shared versioned manifest schema, also
  embedded in the graph ``.npz`` cache format of :mod:`repro.graph.io`;
* :class:`WriteAheadLog` / :class:`WalCursor` — the append-only mutation
  log that keeps :mod:`repro.replication` read replicas bit-identical to
  the single writer: framed JSON records with monotonic LSNs and CRCs,
  torn-tail recovery, and segment rotation for log compaction.
"""

from repro.store.artifact_store import ArtifactStore
from repro.store.manifest import STORE_FORMAT, STORE_VERSION
from repro.store.wal import WalCursor, WalError, WalGapError, WriteAheadLog

__all__ = [
    "ArtifactStore",
    "STORE_FORMAT",
    "STORE_VERSION",
    "WalCursor",
    "WalError",
    "WalGapError",
    "WriteAheadLog",
]
