"""Shared-preprocessing SAC query engine.

The engine boundary for serving many SAC queries against one graph: compute
the per-graph artifacts (core decomposition, k-ĉore component labelling,
per-component spatial indexes) once, then answer each query with a
lightweight :class:`~repro.core.base.QueryContext` built from the cache.

Two engines share that cache design:

* :class:`QueryEngine` — for a graph that does not change; the cache only
  ever grows.
* :class:`IncrementalEngine` — for dynamic location streams and edge
  updates; it mutates its bound graph in place and repairs (check-ins) or
  selectively invalidates (edge updates) the cached artifacts, so replaying
  a stream never pays for a full rebuild.

Batch traffic adds a third concern — redundancy *within* one batch — and
:mod:`repro.engine.plan` owns it: :func:`plan_batch` resolves a batch into
a :class:`BatchPlan` (queries grouped by k-ĉore component, duplicates
deduped, cache hits pruned) whose groups :func:`execute_group` answers with
the shared per-group work paid once.  The engine itself answers one query
at a time (:meth:`QueryEngine.search`); batches are planned and answered by
:meth:`repro.service.SACService.submit_batch`.

Memory is the fourth concern at million-vertex scale, owned by
:mod:`repro.engine.residency`: warm-started engines keep the mmap'd store
as the source of truth and materialise bundles lazily behind a
:class:`BundleResidency` LRU with a configurable byte budget, so resident
memory tracks the hot working set instead of the whole key space.
"""

from repro.engine.engine import EngineStats, QueryEngine
from repro.engine.incremental import IncrementalEngine
from repro.engine.plan import (
    BatchPlan,
    PlanGroup,
    execute_group,
    plan_batch,
)
from repro.engine.residency import BundleResidency

__all__ = [
    "QueryEngine",
    "IncrementalEngine",
    "EngineStats",
    "BatchPlan",
    "PlanGroup",
    "plan_batch",
    "execute_group",
    "BundleResidency",
]
