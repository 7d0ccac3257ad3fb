#!/usr/bin/env python3
"""Tour of the extension features beyond the paper's core algorithms.

The paper leaves three directions open; this example exercises all of them:

1. **k-truss cohesiveness** — SAC search where the community must be a
   connected k-truss (every edge in ≥ k-2 triangles) instead of a k-core;
2. **batch processing** — answering a whole workload of queries while
   sharing the core decomposition and candidate extraction;
3. **pairwise-distance objective** — minimising the average pairwise member
   distance (the paper's distPr metric) instead of the MCC radius.

Run with::

    python examples/extensions_tour.py
"""

from __future__ import annotations

from repro.core import app_fast
from repro.datasets import brightkite_like
from repro.exceptions import NoCommunityError
from repro.experiments import format_table, select_query_vertices
from repro.extensions import pairwise_sac_search, truss_sac_search
from repro.metrics import average_pairwise_distance, minimum_degree
from repro.service import SACService


def main() -> None:
    print("Building the geo-social network ...")
    graph = brightkite_like(num_vertices=2500, average_degree=8.0, seed=51)
    queries = select_query_vertices(graph, count=12, min_core=4, seed=9)
    print(f"  {graph.num_vertices} users, {graph.num_edges} friendships, "
          f"{len(queries)} query users\n")

    # ----------------------------------------------------------- 1. k-truss
    print("1. k-truss SAC search (minimum-degree metric replaced by k-truss)")
    rows = []
    for query in queries[:4]:
        degree_based = app_fast(graph, query, 4)
        try:
            truss_based = truss_sac_search(graph, query, 4)
        except NoCommunityError:
            continue
        rows.append(
            {
                "query": graph.label_of(query),
                "k-core size": degree_based.size,
                "k-core radius": degree_based.radius,
                "k-truss size": truss_based.size,
                "k-truss radius": truss_based.radius,
            }
        )
    print(format_table(rows))
    print("   (k-truss communities are denser and usually smaller)\n")

    # ------------------------------------------------------------- 2. batch
    print("2. Batch processing of the whole query workload")
    service = SACService(graph, use_cache=False)
    batch = service.submit_batch(queries, 4, algorithm="appfast", epsilon_f=0.5)
    print(
        f"   answered {batch.answered}/{len(queries)} queries in "
        f"{batch.elapsed_seconds:.2f}s "
        f"(shared preprocessing: {batch.shared_preprocessing_seconds:.2f}s)\n"
    )

    # ---------------------------------------------------------- 3. pairwise
    print("3. Pairwise-distance objective (distPr) instead of MCC radius")
    rows = []
    for query in queries[:4]:
        radius_based = app_fast(graph, query, 4, 0.0)
        pairwise = pairwise_sac_search(graph, query, 4, objective="average")
        rows.append(
            {
                "query": graph.label_of(query),
                "distPr (radius objective)": average_pairwise_distance(
                    graph, radius_based.members
                ),
                "distPr (pairwise objective)": pairwise.stats["objective_value"],
                "min degree": minimum_degree(graph, pairwise.members),
            }
        )
    print(format_table(rows))
    print("   (the pairwise objective trims far-flung members while keeping min degree >= k)")


if __name__ == "__main__":
    main()
