"""Batch outcome type of the serving layer.

:class:`BatchResult` is produced by :meth:`repro.service.SACService.submit_batch`
and the :func:`repro.service.sharding.run_plan` it dispatches to, and is
re-exported as :class:`repro.BatchResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.result import SACResult


@dataclass
class BatchResult:
    """Outcome of a batch run.

    Attributes
    ----------
    results:
        Mapping query vertex -> :class:`SACResult` (queries with no community
        are absent).
    failed:
        Query vertices for which no community exists (one entry per
        occurrence in the submitted batch).
    errors:
        Mapping query vertex -> error message for queries that could not be
        *attempted* — an unknown vertex index, an invalid per-query
        parameter.  Distinct from ``failed`` (a valid query whose answer is
        "no community"); before this field existed such queries were silently
        folded into ``failed``.
    elapsed_seconds:
        Total wall-clock time of the batch, including the shared
        preprocessing.
    shared_preprocessing_seconds:
        Portion of the time spent on work shared across queries.
    cache_hits:
        Queries answered straight from the :class:`repro.service.AnswerCache`
        (0 when the executing surface has no cache).
    deduped:
        Occurrences answered by fanning out another occurrence's result —
        duplicate ``(query, k, algorithm, params)`` entries the batch plan
        resolved without recomputing.
    plan_groups:
        ``(component, k)`` execution groups the batch plan produced after
        cache-hit pruning.
    deadline_ms:
        The deadline budget the batch ran under, or ``None`` when it ran on
        the explicit-algorithm path (no SLO ladder engaged).
    deadline_missed:
        Query vertex -> ``True`` for answers delivered after the deadline
        had already passed (the service still answers — shed-to-faster-rung,
        never shed-to-silence).  Empty when ``deadline_ms`` is ``None``.
    """

    results: Dict[int, SACResult] = field(default_factory=dict)
    failed: List[int] = field(default_factory=list)
    errors: Dict[int, str] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    shared_preprocessing_seconds: float = 0.0
    cache_hits: int = 0
    deduped: int = 0
    plan_groups: int = 0
    deadline_ms: "Optional[float]" = None
    deadline_missed: Dict[int, bool] = field(default_factory=dict)

    @property
    def answered(self) -> int:
        """Number of queries that produced a community."""
        return len(self.results)

    @property
    def algorithm_used(self) -> Dict[int, str]:
        """Query vertex -> the algorithm that produced its answer.

        Under a deadline the SLO ladder may answer different groups of one
        batch at different rungs; this is the per-answer record of which
        rung each query actually got (on the explicit path it is uniformly
        the requested algorithm).
        """
        return {query: result.algorithm for query, result in self.results.items()}

    def __repr__(self) -> str:
        """Compact operator-facing summary, including the SLO outcome."""
        rungs = sorted({result.algorithm for result in self.results.values()})
        parts = [
            f"answered={self.answered}",
            f"failed={len(self.failed)}",
            f"errors={len(self.errors)}",
            f"cache_hits={self.cache_hits}",
            f"algorithm_used={rungs}",
        ]
        if self.deadline_ms is not None:
            missed = sum(1 for flag in self.deadline_missed.values() if flag)
            parts.append(f"deadline_ms={self.deadline_ms}")
            parts.append(f"deadline_missed={missed}")
        return f"BatchResult({', '.join(parts)})"
