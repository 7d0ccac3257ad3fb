"""Online serving benchmark: micro-batched concurrent vs sequential requests.

Models the ROADMAP's live-traffic scenario against one running
:class:`repro.server.SACServer`.  The same set of distinct queries is
answered over HTTP two ways:

* **sequential** — one client, one query per request, each awaited before
  the next is sent (the no-coalescing baseline: the writer is idle whenever
  a query arrives, so every query is dispatched alone, on arrival);
* **concurrent** — the same queries fired from many client threads at once.
  Queries that arrive while the writer is busy wait and go out as one group
  right after the job in flight, through
  :meth:`repro.service.SACService.submit_batch`, sharing the per-dispatch
  overhead across the group.

The server runs with the answer cache **disabled** so both passes measure
computation, not cache hits, and the concurrent pass runs first so neither
inherits warmth the other lacked (engine artifacts are pre-warmed for both).
Every HTTP answer is compared field-by-field (members, radius, centre)
against a serial :class:`repro.engine.QueryEngine` answering the identical
queries in-process — the responses must be **bit-identical** (JSON float
round-tripping is exact for IEEE doubles), and the benchmark exits non-zero
if they ever diverge; that is its only failure condition.  The
concurrent/sequential throughput ratio and the realised mean batch size are
reported, not enforced: no query waits on a timer, so the sequential pass
pays no coalescing delay and the ratio shows only what sharing a dispatch
saves (``docs/serving.md``'s capacity-planning section quotes a run).

Run standalone::

    python benchmarks/bench_server_latency.py            # full workload
    python benchmarks/bench_server_latency.py --quick    # CI smoke
    python benchmarks/bench_server_latency.py --threads 16
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

_here = Path(__file__).resolve().parent
sys.path.insert(0, str(_here))
sys.path.insert(1, str(_here.parent / "src"))  # uninstalled checkout fallback

from bench_common import write_result
from repro.datasets.registry import load_dataset
from repro.engine import QueryEngine
from repro.experiments.queries import select_query_vertices
from repro.server import SACClient, SACServer, ServerConfig, start_in_thread
from repro.server.client import parallel_queries
from repro.service import SACService


def _expected_payload(graph, result) -> dict:
    """The JSON fields a correct server response must carry for ``result``."""
    return {
        "found": True,
        "size": result.size,
        "radius": result.circle.radius,
        "center": [result.circle.center.x, result.circle.center.y],
        "members": [graph.label_of(v) for v in sorted(result.members)],
    }


def _matches(response: dict, expected: dict) -> bool:
    """Exact comparison of one HTTP answer against the serial engine's."""
    return all(response.get(field) == value for field, value in expected.items())


def _time_sequential(address, jobs):
    """One connection, one query per request, strictly serialised."""
    responses = []
    client = SACClient(address[0], address[1])
    start = time.perf_counter()
    for job in jobs:
        responses.append(client.query(**job))
    elapsed = time.perf_counter() - start
    client.close()
    return responses, elapsed


def _time_concurrent(address, jobs, threads):
    """Many connections at once: the daemon coalesces into micro-batches."""
    start = time.perf_counter()
    responses = parallel_queries(address, jobs, threads=threads)
    return responses, time.perf_counter() - start


def run_benchmark(dataset_names, *, scale, queries_per_dataset, k, epsilon_f, threads):
    """Benchmark each dataset's server; returns ``(rows, all_identical)``."""
    rows = []
    identical = True
    totals = {"queries": 0, "sequential": 0.0, "concurrent": 0.0}

    for name in dataset_names:
        graph = load_dataset(name, scale=scale)
        queries = select_query_vertices(
            graph, count=queries_per_dataset, min_core=k, seed=11
        )
        if not queries:
            print(f"  {name}: no queries with core number >= {k}, skipped")
            continue

        # The in-process reference: the serial engine path the server's
        # answers must be bit-identical to.
        reference = QueryEngine(graph)
        expected = {
            query: _expected_payload(
                graph, reference.search(query, k, algorithm="appfast", epsilon_f=epsilon_f)
            )
            for query in queries
        }
        jobs = [
            {
                "vertex": graph.label_of(query),
                "k": k,
                "algorithm": "appfast",
                "params": {"epsilon_f": epsilon_f},
            }
            for query in queries
        ]

        service = SACService(graph, use_cache=False)
        service.warm(k)  # both passes start from warm engine artifacts
        handle = start_in_thread(SACServer(service, ServerConfig(port=0)))
        try:
            address = (handle.host, handle.port)
            concurrent_responses, concurrent_time = _time_concurrent(address, jobs, threads)
            # Snapshot the batcher before the sequential pass dilutes it
            # with its size-1 batches.
            stats = handle.server.batcher_stats
            dispatched = stats.batches_dispatched
            mean_batch = stats.queries_coalesced / dispatched if dispatched else 0.0
            sequential_responses, sequential_time = _time_sequential(address, jobs)
        finally:
            handle.stop()

        matches = len(concurrent_responses) == len(queries) and all(
            _matches(response, expected[query])
            for query, response in zip(queries, concurrent_responses)
        ) and all(
            _matches(response, expected[query])
            for query, response in zip(queries, sequential_responses)
        )
        identical &= matches
        totals["queries"] += len(queries)
        totals["sequential"] += sequential_time
        totals["concurrent"] += concurrent_time
        rows.append(
            {
                "dataset": name,
                "vertices": graph.num_vertices,
                "queries": len(queries),
                "sequential_qps": round(len(queries) / sequential_time, 2),
                "concurrent_qps": round(len(queries) / concurrent_time, 2),
                "speedup": round(sequential_time / concurrent_time, 2),
                "mean_batch": round(mean_batch, 2),
                "identical": matches,
            }
        )

    if totals["concurrent"] > 0:
        rows.append(
            {
                "dataset": "OVERALL",
                "vertices": "",
                "queries": totals["queries"],
                "sequential_qps": round(totals["queries"] / totals["sequential"], 2),
                "concurrent_qps": round(totals["queries"] / totals["concurrent"], 2),
                "speedup": round(totals["sequential"] / totals["concurrent"], 2),
                "mean_batch": "",
                "identical": identical,
            }
        )
    return rows, identical


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small CI smoke workload")
    parser.add_argument("--scale", type=float, default=None, help="dataset scale multiplier")
    parser.add_argument("--queries", type=int, default=None, help="queries per dataset")
    parser.add_argument("--threads", type=int, default=16, help="concurrent client threads")
    parser.add_argument("--k", type=int, default=4)
    parser.add_argument("--epsilon-f", type=float, default=0.5)
    parser.add_argument(
        "--datasets",
        default="brightkite,gowalla",
        help="comma-separated registry dataset names (geo-social stand-ins: "
        "the paper's serving scenario of many cheap per-user queries)",
    )
    args = parser.parse_args(argv)

    scale = args.scale if args.scale is not None else (0.5 if args.quick else 1.0)
    queries = args.queries if args.queries is not None else (24 if args.quick else 96)
    names = [name.strip() for name in args.datasets.split(",") if name.strip()]

    print(
        f"server latency benchmark: datasets={names} scale={scale} queries={queries} "
        f"threads={args.threads} k={args.k}"
    )
    rows, identical = run_benchmark(
        names,
        scale=scale,
        queries_per_dataset=queries,
        k=args.k,
        epsilon_f=args.epsilon_f,
        threads=args.threads,
    )
    write_result(
        "server_latency",
        "Online serving throughput (micro-batched concurrent vs sequential HTTP)",
        rows,
    )
    if not identical:
        print("FAIL: server responses diverged from the serial engine path", file=sys.stderr)
        return 1
    overall = next((r for r in rows if r["dataset"] == "OVERALL"), None)
    if overall is not None:
        print(
            f"overall: concurrent {overall['concurrent_qps']} q/s vs sequential "
            f"{overall['sequential_qps']} q/s — {overall['speedup']}x"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
