"""High-level facade over the SAC search algorithms.

:class:`SACSearcher` binds a graph once, translates user-facing vertex labels
to internal indices, dispatches to any of the algorithms by name, and can
return ``None`` instead of raising when a query has no community — the
behaviour most applications want.

The searcher answers queries through a shared
:class:`repro.engine.QueryEngine`, so the per-graph preprocessing (core
decomposition, k-ĉore component labelling, per-component spatial indexes) is
paid once and reused across every query, with results bit-identical to
running the algorithm directly.  Batches go through
:meth:`repro.service.SACService.submit_batch`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.core.appacc import app_acc
from repro.core.appfast import app_fast
from repro.core.appinc import app_inc
from repro.core.exact import exact
from repro.core.exact_plus import exact_plus
from repro.core.result import SACResult
from repro.core.theta import theta_sac
from repro.exceptions import InvalidParameterError, NoCommunityError
from repro.graph.spatial_graph import Label, SpatialGraph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.engine import QueryEngine

#: Registry of algorithm names accepted by :meth:`SACSearcher.search`.
ALGORITHMS: Dict[str, Callable] = {
    "exact": exact,
    "exact+": exact_plus,
    "appinc": app_inc,
    "appfast": app_fast,
    "appacc": app_acc,
}


class SACSearcher:
    """Convenience facade for running SAC queries against one graph.

    Parameters
    ----------
    graph:
        The spatial graph to query.
    default_algorithm:
        Algorithm used when :meth:`search` is called without one.  The paper's
        guidance: ``exact+`` for moderate-size graphs, ``appfast`` or
        ``appacc`` for graphs with millions of vertices.

    Examples
    --------
    >>> searcher = SACSearcher(graph)                      # doctest: +SKIP
    >>> result = searcher.search("alice", k=4)             # doctest: +SKIP
    >>> sorted(searcher.member_labels(result))             # doctest: +SKIP
    ['alice', 'bob', 'carol', 'dave', 'eve']
    """

    def __init__(self, graph: SpatialGraph, default_algorithm: str = "appfast") -> None:
        if default_algorithm not in ALGORITHMS:
            raise InvalidParameterError(
                f"unknown algorithm {default_algorithm!r}; choose from {sorted(ALGORITHMS)}"
            )
        self.graph = graph
        self.default_algorithm = default_algorithm
        self._engine: Optional["QueryEngine"] = None

    @property
    def engine(self) -> "QueryEngine":
        """The lazily created query engine backing this searcher."""
        if self._engine is None:
            from repro.engine import QueryEngine

            self._engine = QueryEngine(self.graph)
        return self._engine

    def search(
        self,
        query: Label,
        k: int,
        *,
        algorithm: Optional[str] = None,
        missing_ok: bool = True,
        **params: float,
    ) -> Optional[SACResult]:
        """Run a SAC query.

        Parameters
        ----------
        query:
            User-facing label of the query vertex.
        k:
            Minimum-degree threshold.
        algorithm:
            One of ``"exact"``, ``"exact+"``, ``"appinc"``, ``"appfast"``,
            ``"appacc"``; defaults to the searcher's default.
        missing_ok:
            When ``True`` (default) return ``None`` if the query vertex is not
            part of any k-ĉore; when ``False`` propagate
            :class:`~repro.exceptions.NoCommunityError`.
        params:
            Extra algorithm parameters (``epsilon_f`` for AppFast,
            ``epsilon_a`` for AppAcc / Exact+).
        """
        index = self.graph.index_of(query)
        try:
            return self.engine.search(
                index, k, algorithm=algorithm or self.default_algorithm, **params
            )
        except NoCommunityError:
            if missing_ok:
                return None
            raise

    def search_theta(
        self, query: Label, k: int, theta: float, *, missing_ok: bool = True
    ) -> Optional[SACResult]:
        """Run a θ-SAC query (community constrained to ``O(q, theta)``)."""
        index = self.graph.index_of(query)
        result = theta_sac(self.graph, index, k, theta, raise_on_empty=not missing_ok)
        return result

    def member_labels(self, result: SACResult) -> list:
        """A result's member labels, in ascending internal-index order."""
        return self.graph.labels_of(result.members.array)
