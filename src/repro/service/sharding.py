"""In-process execution of a planned batch, one component shard at a time.

A batch of SAC queries at one degree threshold ``k`` decomposes along the
k-ĉore components the engine already labels: two queries in different
components share *no* state beyond the labelling itself — not the candidate
set, not the grid index, not the local CSR.  The component is therefore the
batch's shard, and :func:`run_plan` executes a resolved
:class:`repro.engine.plan.BatchPlan` shard by shard: each group's artifacts
are fetched once and its queries share one vectorised distance pass
(:func:`repro.engine.plan.execute_group`), so the answers are bit-identical
to one :meth:`repro.engine.QueryEngine.search` per query.

:meth:`repro.service.SACService.submit_batch` calls :func:`run_plan` for
every batch without a deadline; deadline batches walk their groups in the
facade instead, because each group's rung depends on the budget the earlier
groups left.
"""

from __future__ import annotations

from time import perf_counter

from repro.engine import QueryEngine
from repro.engine.plan import BatchPlan, execute_group
from repro.service.results import BatchResult


def run_plan(engine: QueryEngine, plan: BatchPlan) -> BatchResult:
    """Execute a resolved :class:`~repro.engine.plan.BatchPlan` on ``engine``.

    The plan already classified every occurrence (errors, failures,
    duplicates, cache hits), so this only merges those outcomes and runs the
    surviving groups in ascending component order, each under its own
    effective algorithm and parameters
    (:meth:`~repro.engine.plan.PlanGroup.effective_algorithm`).  A group
    whose query turns out to have no community adds it to ``failed``; any
    other per-query error (an invalid algorithm parameter) propagates.
    The returned :class:`BatchResult` carries the plan-resolved answers
    (``plan.cached``) and the ``deduped`` / ``plan_groups`` accounting.
    """
    start = perf_counter()
    batch = BatchResult(
        failed=list(plan.failed),
        errors=plan.error_messages(),
        shared_preprocessing_seconds=plan.planning_seconds,
        cache_hits=plan.cache_hits,
        deduped=plan.deduped,
        plan_groups=len(plan.groups),
    )
    for group in plan.groups:
        batch.results.update(execute_group(engine, plan, group, failed=batch.failed))
    batch.results.update(plan.cached)
    batch.elapsed_seconds = plan.planning_seconds + (perf_counter() - start)
    return batch
