"""Residency benchmark: serve ~million-vertex traffic under a memory budget.

Exercises :class:`repro.engine.residency.BundleResidency` at the scale it
exists for.  A synthetic **ring-lattice** graph (many 4-regular rings, each
one ``k=4`` ĉore component, spatially clustered so grids stay selective) is
built fully vectorised, snapshotted once, and then the same Zipf-skewed
query trace is replayed against the snapshot at three resident-byte
budgets: **unlimited**, **25 %**, and **5 %** of the fully-resident working
set.

Each budget runs in its **own subprocess** — ``ru_maxrss`` is a
process-wide high-water mark, so budgets must not share an address space or
the first (largest) run would mask every later one.  Per run the child
reports elapsed time, answer digest, residency counters, and its RSS growth
(peak minus post-import baseline).  The parent then enforces the layer's
three claims:

* **bit-identity** — every budget produces byte-for-byte the same answer
  stream (compared by SHA-256 digest);
* **throughput** — the starved 5 % run keeps >= 80 % of unlimited
  throughput (>= 30 % under ``--quick``, where the workload is too small to
  amortise process noise);
* **memory** — each budgeted run's RSS growth stays within ``budget +
  overhead + slack``, where *overhead* is measured from the unlimited run
  (its growth minus its resident-bundle bytes: graph pages, labellings,
  interpreter churn) rather than guessed.

Run standalone::

    python benchmarks/bench_residency.py            # ~1M vertices
    python benchmarks/bench_residency.py --quick    # CI smoke (~20k)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

_here = Path(__file__).resolve().parent
sys.path.insert(0, str(_here))
sys.path.insert(1, str(_here.parent / "src"))  # uninstalled checkout fallback

import numpy as np

from bench_common import peak_rss_mb, write_result

#: Zipf skew of ring popularity (matches bench_slo_traffic's vertex skew).
ZIPF_S = 1.1

#: Serving parameters of the replay: one k, one algorithm, batched.
K = 4
ALGORITHM = "appfast"
EPSILON_F = 0.5
BATCH = 64

#: Fixed memory slack (MiB) on top of the measured overhead: allocator
#: fragmentation, transient widen-then-evict overshoot, result buffers.
SLACK_MB = 48.0

MIB = 1024.0 * 1024.0


def build_ring_lattice(vertices: int, rings: int, seed: int):
    """A spatially-clustered union of 4-regular rings, built as CSR directly.

    Every ring is one ``k=4`` ĉore component (each vertex joins ``i±1`` and
    ``i±2`` around its ring), so component count and sizes are exact knobs.
    Rings sit in their own cell of a coarse spatial grid with members
    scattered in a small disc, keeping per-component grids realistic.
    Building through :meth:`repro.graph.SpatialGraph.attach_arrays` avoids
    any per-edge Python loop — a builder replay at 10^6 vertices would
    dominate the whole benchmark.
    """
    from repro.graph.spatial_graph import SpatialGraph

    size = vertices // rings
    if size < 5:
        raise ValueError("rings must hold at least 5 vertices each")
    n = size * rings
    rng = np.random.default_rng(seed)

    # One ring's sorted neighbour pattern, tiled across all rings.
    local = np.arange(size, dtype=np.int64)[:, None]
    neighbours = np.sort((local + np.array([-2, -1, 1, 2])) % size, axis=1)
    offsets = np.arange(rings, dtype=np.int64) * size
    indices = (neighbours[None, :, :] + offsets[:, None, None]).reshape(-1)
    indptr = 4 * np.arange(n + 1, dtype=np.int64)

    # Ring r lives in cell (r % side, r // side) of a unit grid.
    side = int(np.ceil(np.sqrt(rings)))
    centers_x = (np.arange(rings) % side + 0.5) / side
    centers_y = (np.arange(rings) // side + 0.5) / side
    radius = 0.35 / side
    angle = rng.uniform(0.0, 2.0 * np.pi, size=n)
    rho = radius * np.sqrt(rng.uniform(0.0, 1.0, size=n))
    coords = np.empty((n, 2), dtype=np.float64)
    coords[:, 0] = np.repeat(centers_x, size) + rho * np.cos(angle)
    coords[:, 1] = np.repeat(centers_y, size) + rho * np.sin(angle)

    graph = SpatialGraph.attach_arrays(
        {
            "indptr": indptr,
            "indices32": indices.astype(np.int32),
            "indices64": indices,
            "coords": coords,
        }
    )
    return graph, size


def zipf_trace(queries: int, rings: int, ring_size: int, seed: int) -> np.ndarray:
    """Rank-weighted ring popularity, uniform member choice within a ring."""
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, rings + 1, dtype=np.float64)
    weights = ranks**-ZIPF_S
    weights /= weights.sum()
    popularity = rng.permutation(rings)  # which ring gets which rank
    chosen_rings = popularity[rng.choice(rings, size=queries, p=weights)]
    members = rng.integers(0, ring_size, size=queries)
    return (chosen_rings.astype(np.int64) * ring_size + members).astype(np.int64)


def _digest_result(hasher, query, result):
    if result is None:
        hasher.update(f"{query}:none\n".encode())
        return
    hasher.update(
        (
            f"{query}:{sorted(result.members)!r}:{result.circle.radius!r}:"
            f"{result.circle.center.x!r}:{result.circle.center.y!r}\n"
        ).encode()
    )


def run_child(store: str, trace_path: str, budget: int) -> int:
    """One serving process: replay the trace at one budget, report JSON."""
    from repro.engine import QueryEngine
    from repro.service import SACService

    trace = np.load(trace_path)
    base_rss = peak_rss_mb() or 0.0
    engine = QueryEngine.from_store(store, max_resident_bytes=budget or None)
    service = SACService(engine=engine, use_cache=False)
    hasher = hashlib.sha256()
    peak_resident = 0
    start = time.perf_counter()
    for begin in range(0, trace.size, BATCH):
        batch = [int(v) for v in trace[begin : begin + BATCH]]
        results = service.submit_batch(
            batch, K, algorithm=ALGORITHM, epsilon_f=EPSILON_F
        ).results
        for query in batch:
            _digest_result(hasher, query, results.get(query))
        peak_resident = max(peak_resident, engine.stats.resident_bytes)
    elapsed = time.perf_counter() - start
    report = {
        "budget_bytes": budget,
        "elapsed_s": elapsed,
        "qps": trace.size / elapsed if elapsed > 0 else float("inf"),
        "digest": hasher.hexdigest(),
        "materialised": engine.stats.bundles_materialised,
        "evicted": engine.stats.bundles_evicted,
        "resident_bytes_final": engine.stats.resident_bytes,
        "resident_bytes_peak": peak_resident,
        "base_rss_mb": base_rss,
        "peak_rss_mb": peak_rss_mb() or 0.0,
    }
    print(json.dumps(report))
    return 0


def _spawn_child(store: Path, trace_path: Path, budget: int) -> dict:
    env = dict(os.environ)
    src = str(_here.parent / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--child",
            "--store",
            str(store),
            "--trace",
            str(trace_path),
            "--budget",
            str(budget),
        ],
        env=env,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"child (budget={budget}) failed:\n{proc.stdout}\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_benchmark(*, vertices: int, rings: int, queries: int, seed: int, quick: bool):
    """Snapshot once, replay at three budgets, enforce the layer's claims."""
    from repro.engine import QueryEngine
    from repro.store import ArtifactStore

    rows = []
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        build_start = time.perf_counter()
        graph, ring_size = build_ring_lattice(vertices, rings, seed)
        engine = QueryEngine(graph)
        for component in range(engine.prepare(K)):
            engine.component_artifacts(K, component)
        store = Path(tmp) / "snapshot"
        ArtifactStore.save(store, engine)
        build_s = time.perf_counter() - build_start
        print(
            f"built + snapshotted {graph.num_vertices} vertices / {rings} rings "
            f"in {build_s:.1f}s ({ArtifactStore.open(store).nbytes() / MIB:.1f} MiB pack)"
        )
        del engine, graph

        trace_path = Path(tmp) / "trace.npy"
        np.save(trace_path, zipf_trace(queries, rings, ring_size, seed + 1))

        unlimited = _spawn_child(store, trace_path, 0)
        working_set = unlimited["resident_bytes_final"]
        overhead_mb = max(
            0.0,
            (unlimited["peak_rss_mb"] - unlimited["base_rss_mb"])
            - working_set / MIB,
        )
        print(
            f"unlimited: {unlimited['qps']:.0f} q/s, working set "
            f"{working_set / MIB:.1f} MiB, measured overhead {overhead_mb:.1f} MiB"
        )

        reports = {"unlimited": unlimited}
        for label, fraction in (("25%", 0.25), ("5%", 0.05)):
            budget = max(1, int(working_set * fraction))
            reports[label] = _spawn_child(store, trace_path, budget)

        for label, report in reports.items():
            budget = report["budget_bytes"]
            growth = report["peak_rss_mb"] - report["base_rss_mb"]
            identical = report["digest"] == unlimited["digest"]
            if not identical:
                problems.append(f"{label}: answers diverged from unlimited run")
            if budget:
                allowance = budget / MIB + overhead_mb + SLACK_MB
                if growth > allowance:
                    problems.append(
                        f"{label}: RSS growth {growth:.1f} MiB exceeds budget "
                        f"allowance {allowance:.1f} MiB"
                    )
            rows.append(
                {
                    "budget": label,
                    "budget_mb": round(budget / MIB, 1) if budget else 0.0,
                    "qps": round(report["qps"], 1),
                    "vs_unlimited": round(report["qps"] / unlimited["qps"], 3),
                    "materialised": report["materialised"],
                    "evicted": report["evicted"],
                    "resident_peak_mb": round(report["resident_bytes_peak"] / MIB, 2),
                    "rss_growth_mb": round(growth, 1),
                    "identical": identical,
                }
            )

        floor = 0.3 if quick else 0.8
        ratio = reports["5%"]["qps"] / unlimited["qps"]
        if ratio < floor:
            problems.append(
                f"5% budget throughput is {ratio:.2f}x unlimited, below the "
                f"{floor:.1f}x floor"
            )
        extra = {
            "vertices": vertices,
            "rings": rings,
            "queries": queries,
            "zipf_s": ZIPF_S,
            "working_set_mb": round(working_set / MIB, 1),
            "overhead_mb": round(overhead_mb, 1),
            "slack_mb": SLACK_MB,
        }
    return rows, extra, problems


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small CI smoke workload")
    parser.add_argument("--vertices", type=int, default=None)
    parser.add_argument("--rings", type=int, default=None)
    parser.add_argument("--queries", type=int, default=None)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--store", help=argparse.SUPPRESS)
    parser.add_argument("--trace", help=argparse.SUPPRESS)
    parser.add_argument("--budget", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        return run_child(args.store, args.trace, args.budget)

    vertices = args.vertices or (20_000 if args.quick else 1_000_000)
    rings = args.rings or (16 if args.quick else 64)
    queries = args.queries or (256 if args.quick else 2048)
    print(
        f"residency benchmark: {vertices} vertices in {rings} rings, "
        f"{queries} Zipf queries, k={K} {ALGORITHM}"
    )
    rows, extra, problems = run_benchmark(
        vertices=vertices,
        rings=rings,
        queries=queries,
        seed=args.seed,
        quick=args.quick,
    )
    write_result(
        "residency_budgets",
        "Zipf replay under resident-byte budgets (per-budget subprocesses)",
        rows,
        extra,
    )
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    print(
        "overall: answers byte-identical across budgets; 5% budget keeps "
        f"{rows[-1]['vs_unlimited']:.2f}x of unlimited throughput"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
