"""repro — Spatial-Aware Community (SAC) search over large spatial graphs.

A from-scratch Python reproduction of

    Fang, Cheng, Li, Luo, Hu.
    "Effective Community Search over Large Spatial Graphs."
    PVLDB 10(6): 709-720, 2017.

Given a spatial graph (every vertex has a 2-D location), a query vertex ``q``
and a degree threshold ``k``, SAC search returns the connected subgraph
containing ``q`` whose minimum internal degree is at least ``k`` and whose
minimum covering circle has the smallest possible radius.

Quick start
-----------
>>> from repro import SACSearcher
>>> from repro.datasets import brightkite_like
>>> graph = brightkite_like(num_vertices=2000, seed=7)
>>> searcher = SACSearcher(graph, default_algorithm="appfast")
>>> result = searcher.search(query=graph.labels()[0], k=4)
>>> result is None or result.radius >= 0.0
True

Public surface
--------------
* :class:`repro.SACSearcher` — facade dispatching to all five algorithms.
* :class:`repro.QueryEngine` — shared-preprocessing engine serving many
  queries over one graph (cached core decomposition, k-ĉore components,
  per-component spatial indexes).
* :class:`repro.IncrementalEngine` — the dynamic variant: applies check-ins
  and edge updates to its bound graph in place and repairs the caches
  incrementally instead of rebuilding them.
* :class:`repro.SACService` — the serving layer and the one batch entry
  point: :meth:`~repro.SACService.submit_batch` plans a batch once,
  answers it in process one k-ĉore component at a time, and keeps a
  persistent, component-version invalidated answer cache
  (:class:`repro.AnswerCache`), returning a :class:`repro.BatchResult`;
  ``save``/``open`` persist it through the artifact store.
* :class:`repro.ArtifactStore` — the storage layer: snapshot a graph plus
  every engine artifact to disk, reopen memory-mapped, warm-start engines
  via :meth:`repro.QueryEngine.from_store` with bit-identical answers.
* :class:`repro.SACServer` / :class:`repro.SACClient` — the network layer:
  a long-lived JSON-over-HTTP daemon with micro-batched query coalescing
  and single-writer mutation ordering, plus its stdlib client
  (``repro-sac serve``; see ``docs/serving.md``).
* :mod:`repro.core` — ``exact``, ``exact_plus``, ``app_inc``, ``app_fast``,
  ``app_acc``, ``theta_sac``.
* :mod:`repro.graph` — the :class:`~repro.graph.SpatialGraph` substrate.
* :mod:`repro.kcore` — k-core decomposition and k-ĉore extraction.
* :mod:`repro.geometry` — minimum enclosing circles, grid index, quadtree.
* :mod:`repro.baselines` — ``Global``, ``Local``, ``GeoModu`` comparison methods.
* :mod:`repro.metrics` — radius, distPr, CJS, CAO, approximation ratios.
* :mod:`repro.datasets` — synthetic spatial-graph and check-in generators.
* :mod:`repro.dynamic` — dynamic location streams and SAC tracking.
* :mod:`repro.experiments` — the harness behind the paper's figures.
"""

from repro.core import (
    Members,
    SACResult,
    SACSearcher,
    app_acc,
    app_fast,
    app_inc,
    exact,
    exact_plus,
    theta_sac,
)
from repro.engine import EngineStats, IncrementalEngine, QueryEngine
from repro.service import AnswerCache, BatchResult, SACService
from repro.exceptions import (
    DatasetError,
    GraphConstructionError,
    InvalidParameterError,
    NoCommunityError,
    ReproError,
    VertexNotFoundError,
)
from repro.graph import GraphBuilder, SpatialGraph
from repro.server import SACClient, SACServer, ServerConfig
from repro.store import ArtifactStore

__version__ = "7.0.0"

__all__ = [
    "__version__",
    "SpatialGraph",
    "GraphBuilder",
    "SACSearcher",
    "SACResult",
    "Members",
    "QueryEngine",
    "IncrementalEngine",
    "EngineStats",
    "BatchResult",
    "SACService",
    "AnswerCache",
    "ArtifactStore",
    "SACServer",
    "SACClient",
    "ServerConfig",
    "exact",
    "exact_plus",
    "app_inc",
    "app_fast",
    "app_acc",
    "theta_sac",
    "ReproError",
    "GraphConstructionError",
    "VertexNotFoundError",
    "InvalidParameterError",
    "NoCommunityError",
    "DatasetError",
]
