"""The serving layer: planned in-process batches plus a persistent answer cache.

Serving heavy SAC traffic over one graph stacks three reuse levels:

1. the **engine** (:mod:`repro.engine`) shares per-graph preprocessing
   across queries;
2. the **batch plan** (:mod:`repro.engine.plan`, executed by
   :func:`repro.service.sharding.run_plan`) groups a batch by k-ĉore
   component, so each component's artifacts are fetched once and its
   queries share one vectorised distance pass;
3. the **answer cache** (:class:`AnswerCache`) shares finished answers
   across batches, invalidated per component by the engine's version
   counters so dynamic updates evict only what they touched.

On top of the reuse stack sits **SLO mode** (:mod:`repro.service.slo`):
give :meth:`SACService.submit_batch` a ``deadline_ms`` and a calibrated
:class:`CostModel` picks, per plan group, the best rung of the paper's
quality/latency ladder predicted to fit the remaining budget
(:func:`select_rung`), reporting every answer's ``algorithm_used`` and
approximation bound (:func:`approximation_bound`) and flagging late
answers instead of dropping them.

**Standing queries** (:mod:`repro.service.subscriptions`) turn the reuse
stack into a push surface: a :class:`SubscriptionRegistry` indexes
continuous queries by ``(k, component representative)`` and, after every
mutation, re-evaluates only the ones whose component version moved —
batched through the planner so N subscriptions on one component cost one
candidate fetch — delivering members-added/removed deltas with bounded
backlogs and overflow-to-resync recovery.

:class:`SACService` fronts all three — and persists them:
:meth:`SACService.save` snapshots the engine into an
:class:`repro.store.ArtifactStore`, :meth:`SACService.open` warm-starts a
new service from one memory-mapped.  Every path returns bit-identical
results (enforced by ``tests/test_differential.py`` and
``tests/test_store.py``).
"""

from repro.service.cache import AnswerCache, CacheStats
from repro.service.facade import SACService, ServiceStats
from repro.service.results import BatchResult
from repro.service.slo import (
    DEFAULT_CEILING,
    FULL_LADDER,
    LADDER,
    CostModel,
    CostModelStats,
    RungChoice,
    RungCoefficients,
    SloStats,
    algorithm_parameter_names,
    approximation_bound,
    ladder_from,
    params_for,
    select_rung,
)
from repro.service.subscriptions import (
    Subscription,
    SubscriptionRegistry,
    SubscriptionStats,
)

__all__ = [
    "AnswerCache",
    "BatchResult",
    "CacheStats",
    "CostModel",
    "CostModelStats",
    "DEFAULT_CEILING",
    "FULL_LADDER",
    "LADDER",
    "RungChoice",
    "RungCoefficients",
    "SACService",
    "ServiceStats",
    "SloStats",
    "Subscription",
    "SubscriptionRegistry",
    "SubscriptionStats",
    "algorithm_parameter_names",
    "approximation_bound",
    "ladder_from",
    "params_for",
    "select_rung",
]
