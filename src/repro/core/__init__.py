"""SAC search algorithms (the paper's core contribution).

Five algorithms from Section 4 of the paper, plus the θ-SAC variant used as a
baseline in Section 5.2.2:

================  ==================  =============================================
Algorithm         Approximation       Entry point
================  ==================  =============================================
``Exact``         1 (optimal)         :func:`~repro.core.exact.exact`
``AppInc``        2                   :func:`~repro.core.appinc.app_inc`
``AppFast``       2 + εF              :func:`~repro.core.appfast.app_fast`
``AppAcc``        1 + εA              :func:`~repro.core.appacc.app_acc`
``Exact+``        1 (optimal)         :func:`~repro.core.exact_plus.exact_plus`
``θ-SAC``         n/a (fixed circle)  :func:`~repro.core.theta.theta_sac`
================  ==================  =============================================

All algorithms share the same signature style — ``(graph, query, k, ...)`` —
and return a :class:`~repro.core.result.SACResult` describing the community
(its members as one sorted read-only array, :class:`~repro.core.result.Members`),
its minimum covering circle, and bookkeeping statistics.  The
:class:`~repro.core.searcher.SACSearcher` facade dispatches by algorithm name
and handles label translation.
"""

from repro.core.appacc import app_acc
from repro.core.appfast import app_fast
from repro.core.appinc import app_inc
from repro.core.exact import exact
from repro.core.exact_plus import exact_plus
from repro.core.result import Members, SACResult
from repro.core.searcher import ALGORITHMS, SACSearcher
from repro.core.theta import theta_sac

__all__ = [
    "Members",
    "SACResult",
    "exact",
    "exact_plus",
    "app_inc",
    "app_fast",
    "app_acc",
    "theta_sac",
    "SACSearcher",
    "ALGORITHMS",
]
