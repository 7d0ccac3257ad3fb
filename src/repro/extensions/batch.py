"""Batch processing of SAC queries (future-work item of the paper).

Applications such as event recommendation fire SAC queries for many users at
once (everyone who opened the app in the last minute).
:class:`BatchSACProcessor` is the stable batch API over the serving layer:
it binds a graph, a threshold ``k``, and an algorithm once, and delegates
execution to a :class:`repro.service.SACService`, which layers three kinds
of reuse under it:

* per-graph preprocessing shared through a :class:`repro.engine.QueryEngine`
  (core numbers once per graph, candidate artifacts once per component);
* optional **sharded parallel execution** — pass ``workers=4`` to run each
  batch's k-ĉore-component shards on a process pool;
* an optional **answer cache** persistent across batches — pass
  ``use_cache=True`` to serve repeat queries without recomputation.

Both options default off, preserving the processor's historical serial
behaviour; results are bit-identical whichever combination is enabled.  The
per-query algorithm is any of the library's SAC algorithms; the batch layer
only removes redundant work, so the returned communities are identical to
the single-query API.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.searcher import ALGORITHMS
from repro.engine import QueryEngine
from repro.exceptions import InvalidParameterError
from repro.graph.spatial_graph import SpatialGraph
from repro.service import BatchResult, SACService

__all__ = ["BatchResult", "BatchSACProcessor"]


class BatchSACProcessor:
    """Answer many SAC queries over one graph while sharing preprocessing.

    Parameters
    ----------
    graph:
        The spatial graph to query.
    k:
        Minimum-degree threshold shared by all queries in the batch.
    algorithm:
        Name of the per-query algorithm (any key of
        :data:`repro.core.searcher.ALGORITHMS`).
    algorithm_params:
        Extra parameters forwarded to the per-query algorithm.
    engine:
        Optional :class:`~repro.engine.QueryEngine` to draw cached artifacts
        from; pass one to share preprocessing with other processors (e.g.
        batches at different ``k``) or an interactive searcher over the same
        graph.  A private engine is created when omitted.
    workers:
        Process-pool size for sharded parallel batch execution (see
        :class:`repro.service.ShardedExecutor`); ``None`` (default) keeps
        the serial path.
    use_cache:
        Keep a :class:`repro.service.AnswerCache` across batches on this
        processor.  Off by default: the processor historically recomputed
        repeat queries, and some callers time exactly that.
    """

    def __init__(
        self,
        graph: SpatialGraph,
        k: int,
        *,
        algorithm: str = "appfast",
        algorithm_params: Optional[Dict[str, float]] = None,
        engine: Optional[QueryEngine] = None,
        workers: Optional[int] = None,
        use_cache: bool = False,
    ) -> None:
        if algorithm not in ALGORITHMS:
            raise InvalidParameterError(
                f"unknown algorithm {algorithm!r}; choose from {sorted(ALGORITHMS)}"
            )
        if not isinstance(k, int) or k < 1:
            raise InvalidParameterError(f"k must be a positive integer, got {k!r}")
        if engine is not None and engine.graph is not graph:
            raise InvalidParameterError("engine is bound to a different graph")
        self.graph = graph
        self.k = k
        self.algorithm = algorithm
        self.algorithm_params = dict(algorithm_params or {})
        self.engine = engine if engine is not None else QueryEngine(graph)
        self.service = SACService(engine=self.engine, workers=workers, use_cache=use_cache)

    # ---------------------------------------------------------------- queries
    def eligible_queries(self, queries: Iterable[int]) -> List[int]:
        """Return the subset of ``queries`` that belong to some k-core."""
        cores = self.engine.core_numbers()
        return [
            int(q)
            for q in queries
            if 0 <= int(q) < self.graph.num_vertices and cores[int(q)] >= self.k
        ]

    def run(self, queries: Sequence[int]) -> BatchResult:
        """Answer every query in ``queries`` and return the batch outcome.

        Delegates to :meth:`repro.service.SACService.submit_batch`: the
        engine serves each query's candidate artifacts from its
        per-component cache, shards run in parallel when the processor was
        built with ``workers``, and previously answered queries come from
        the answer cache when ``use_cache`` is on.  Out-of-range query ids
        are reported in :attr:`BatchResult.errors`; vertices outside every
        k-core in :attr:`BatchResult.failed`.
        """
        return self.service.submit_batch(
            queries, self.k, algorithm=self.algorithm, **self.algorithm_params
        )

    def run_labels(self, labels: Sequence[object]) -> BatchResult:
        """Convenience wrapper accepting user-facing vertex labels."""
        return self.run([self.graph.index_of(label) for label in labels])

    def close(self) -> None:
        """Release the underlying process pool (only relevant with ``workers``).

        The pool is recreated automatically if the processor runs another
        parallel batch afterwards; without ``workers`` this is a no-op.
        """
        self.service.close()
