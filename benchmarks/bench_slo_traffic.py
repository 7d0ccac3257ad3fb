"""Closed-loop SLO traffic benchmark: deadline ladder vs a static rung.

Models the ROADMAP's online serving scenario under realistic load against a
live :class:`repro.server.SACServer`:

* **Zipfian vertex popularity** — query vertices are drawn rank-weighted
  (``rank^-s``, ``s = 1.1``) from the k-ĉore-eligible population, the
  classic skew of per-user community lookups;
* **burst phases** — open-loop Poisson arrivals whose rate alternates
  between a base and a burst phase, so queueing pressure comes and goes;
* **mutation mix** — a fraction of events are ``/checkin`` location updates
  riding the write barrier, forcing micro-batch flushes and invalidation
  exactly as live traffic would.

The identical pre-generated trace is replayed twice, each against a fresh
server over a private graph copy (answer cache off in both, so the contrast
is about *algorithm choice*, not cache warmth):

* **static** — every query runs the paper's ``Exact+`` rung explicitly, no
  deadline: the fixed-quality configuration an operator would naively pick;
* **slo** — every query carries ``deadline_ms`` and the server's calibrated
  cost model walks the ladder (``exact+`` ceiling) to the best rung that
  fits the remaining budget.

Reported per pass: client-observed p50/p95/p99 latency and the
**deadline-hit-rate** (static answers are judged against the same budget
client-side).  The headline claim — SLO mode holds ≥ 95 % hit-rate on a
trace where static ``Exact+`` drops below 70 % — is enforced in full mode
(exit non-zero) and reported in ``--quick`` CI smoke mode.  Results land in
``BENCH_bench_slo_traffic.json`` (baseline under ``benchmarks/baselines``,
diffed by ``tools/compare_bench.py``).

Run standalone::

    python benchmarks/bench_slo_traffic.py            # full, enforces targets
    python benchmarks/bench_slo_traffic.py --quick    # CI smoke
    python benchmarks/bench_slo_traffic.py --deadline-ms 50 --duration 6
"""

from __future__ import annotations

import argparse
import sys
import threading
import time
from pathlib import Path

import numpy as np

_here = Path(__file__).resolve().parent
sys.path.insert(0, str(_here))
sys.path.insert(1, str(_here.parent / "src"))  # uninstalled checkout fallback

from bench_common import write_result
from repro.datasets.registry import load_dataset
from repro.engine import IncrementalEngine, QueryEngine
from repro.server import SACClient, SACServer, ServerConfig, start_in_thread
from repro.service import SACService

ZIPF_S = 1.1


def generate_trace(
    graph,
    *,
    k,
    duration_s,
    base_rate,
    burst_rate,
    phase_s,
    mutation_mix,
    seed,
):
    """One reproducible open-loop trace: ``(at_s, kind, payload)`` events.

    Arrivals are Poisson with a rate that alternates every ``phase_s`` seconds
    between ``base_rate`` and ``burst_rate``; queries pick their vertex
    Zipf-weighted over the k-ĉore-eligible population; ``mutation_mix`` of
    the events are check-ins of a uniformly random vertex instead.
    """
    rng = np.random.default_rng(seed)
    cores = QueryEngine(graph).core_numbers()
    eligible = np.flatnonzero(cores >= k)
    if eligible.size == 0:
        raise SystemExit(f"no vertices with core number >= {k}; lower --k")
    ranks = np.arange(1, eligible.size + 1, dtype=float)
    weights = ranks ** -ZIPF_S
    weights /= weights.sum()
    popularity = rng.permutation(eligible)  # which vertex gets which rank

    events = []
    at = 0.0
    while True:
        phase = int(at // phase_s)
        rate = burst_rate if phase % 2 else base_rate
        at += float(rng.exponential(1.0 / rate))
        if at >= duration_s:
            break
        if rng.random() < mutation_mix:
            vertex = int(rng.choice(eligible))
            x, y = (float(c) for c in rng.uniform(0.0, 1.0, size=2))
            events.append((at, "checkin", (graph.label_of(vertex), x, y)))
        else:
            vertex = int(popularity[rng.choice(eligible.size, p=weights)])
            events.append((at, "query", graph.label_of(vertex)))
    return events


def replay(address, events, *, k, deadline_ms, slo, timeout_s):
    """Fire the trace open-loop; returns per-query latencies and hit flags.

    Open-loop means every event is dispatched at its scheduled time on its
    own thread regardless of how far behind earlier responses are — exactly
    the arrival process an overloaded server experiences.  In ``slo`` mode
    each query carries ``deadline_ms`` and the server's own
    ``deadline_missed`` verdict is trusted; in static mode queries run
    ``exact+`` explicitly and are judged client-side against the same
    budget.
    """
    lock = threading.Lock()
    latencies_ms = []
    hits = []
    rungs = {}
    errors = []

    def fire(kind, payload):
        try:
            with SACClient(address[0], address[1], timeout=timeout_s) as client:
                began = time.perf_counter()
                if kind == "checkin":
                    client.checkin(*payload)
                    return
                if slo:
                    response = client.query(payload, k, deadline_ms=deadline_ms)
                    hit = not response["deadline_missed"]
                else:
                    response = client.query(
                        payload, k, algorithm="exact+", params={"epsilon_a": 0.5}
                    )
                    hit = (time.perf_counter() - began) * 1000.0 <= deadline_ms
                elapsed_ms = (time.perf_counter() - began) * 1000.0
                rung = response["algorithm_used"]
            with lock:
                latencies_ms.append(elapsed_ms)
                hits.append(hit)
                rungs[rung] = rungs.get(rung, 0) + 1
        except Exception as error:  # noqa: BLE001 - reported in the row
            with lock:
                errors.append(f"{kind}: {error}")

    threads = []
    start = time.perf_counter()
    for at, kind, payload in events:
        delay = at - (time.perf_counter() - start)
        if delay > 0:
            time.sleep(delay)
        thread = threading.Thread(target=fire, args=(kind, payload))
        thread.start()
        threads.append(thread)
    for thread in threads:
        thread.join(timeout=timeout_s)
    return latencies_ms, hits, rungs, errors


def _serve(graph, *, k, slo):
    """A fresh daemon over a private mutable copy, cache off, huge lanes."""
    service = SACService(
        engine=IncrementalEngine(graph.mutable_copy()), use_cache=False
    )
    service.warm(k)
    config = ServerConfig(
        port=0,
        warm_ks=(k,),
        slo_enabled=slo,
        # Depth far beyond the trace so admission control never rejects:
        # this benchmark measures the ladder, not load shedding.
        max_queue_depth=1_000_000,
    )
    return start_in_thread(SACServer(service, config))


def _row(mode, events, latencies_ms, hits, errors):
    """One result row; floats rounded for the compare_bench 20x band.

    The per-rung answer breakdown is machine-timing-dependent, so it rides
    in the section's ``extra`` payload (which ``compare_bench`` ignores),
    never in a row cell (which it compares exactly for strings).
    """
    queries = len(latencies_ms)
    mutations = sum(1 for _at, kind, _payload in events if kind == "checkin")
    percentiles = (
        np.percentile(latencies_ms, (50, 95, 99)) if latencies_ms else (0.0,) * 3
    )
    return {
        "mode": mode,
        "queries": queries,
        "mutations": mutations,
        "errors": len(errors),
        "p50_ms": round(float(percentiles[0]), 2),
        "p95_ms": round(float(percentiles[1]), 2),
        "p99_ms": round(float(percentiles[2]), 2),
        "deadline_hit_rate": round(sum(hits) / queries, 4) if queries else 0.0,
    }


def run_benchmark(
    *, dataset, scale, k, deadline_ms, duration_s, base_rate, burst_rate, phase_s, mutation_mix, seed, timeout_s
):
    """Replay one trace statically and under SLO; returns the two rows."""
    graph = load_dataset(dataset, scale=scale)
    events = generate_trace(
        graph,
        k=k,
        duration_s=duration_s,
        base_rate=base_rate,
        burst_rate=burst_rate,
        phase_s=phase_s,
        mutation_mix=mutation_mix,
        seed=seed,
    )
    queries = sum(1 for _at, kind, _payload in events if kind == "query")
    print(
        f"trace: {len(events)} events ({queries} queries) over {duration_s}s, "
        f"rates {base_rate}/{burst_rate} Hz, deadline {deadline_ms}ms, "
        f"graph n={graph.num_vertices}"
    )

    rows = []
    rungs_by_mode = {}
    for mode, slo in (("static-exact+", False), ("slo-ladder", True)):
        handle = _serve(graph, k=k, slo=slo)
        try:
            latencies_ms, hits, rungs, errors = replay(
                (handle.host, handle.port),
                events,
                k=k,
                deadline_ms=deadline_ms,
                slo=slo,
                timeout_s=timeout_s,
            )
        finally:
            handle.stop()
        for message in errors[:3]:
            print(f"  {mode} error: {message}")
        print(f"  {mode} rungs: {rungs}")
        rungs_by_mode[mode] = rungs
        rows.append(_row(mode, events, latencies_ms, hits, errors))
    return rows, rungs_by_mode


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small CI smoke workload (targets reported, not enforced)")
    parser.add_argument("--dataset", default="brightkite", help="registry dataset name")
    parser.add_argument("--scale", type=float, default=0.02, help="dataset scale multiplier")
    parser.add_argument("--k", type=int, default=4)
    parser.add_argument("--deadline-ms", type=float, default=100.0, help="per-query budget")
    parser.add_argument("--duration", type=float, default=None, help="trace length in seconds")
    parser.add_argument("--base-rate", type=float, default=None, help="calm-phase arrivals per second")
    parser.add_argument("--burst-rate", type=float, default=None, help="burst-phase arrivals per second")
    parser.add_argument("--phase", type=float, default=1.0, help="phase length in seconds")
    parser.add_argument("--mutation-mix", type=float, default=0.05, help="fraction of events that are check-ins")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--timeout", type=float, default=180.0, help="client timeout in seconds")
    args = parser.parse_args(argv)

    duration = args.duration if args.duration is not None else (2.0 if args.quick else 4.0)
    base_rate = args.base_rate if args.base_rate is not None else (10.0 if args.quick else 15.0)
    burst_rate = args.burst_rate if args.burst_rate is not None else (40.0 if args.quick else 60.0)

    rows, rungs_by_mode = run_benchmark(
        dataset=args.dataset,
        scale=args.scale,
        k=args.k,
        deadline_ms=args.deadline_ms,
        duration_s=duration,
        base_rate=base_rate,
        burst_rate=burst_rate,
        phase_s=args.phase,
        mutation_mix=args.mutation_mix,
        seed=args.seed,
        timeout_s=args.timeout,
    )
    write_result(
        "slo_traffic",
        f"SLO ladder vs static Exact+ under burst traffic (deadline {args.deadline_ms}ms)",
        rows,
        extra={
            "deadline_ms": args.deadline_ms,
            "duration_s": duration,
            "base_rate": base_rate,
            "burst_rate": burst_rate,
            "mutation_mix": args.mutation_mix,
            "zipf_s": ZIPF_S,
            "seed": args.seed,
            "rungs": rungs_by_mode,
        },
    )

    static_hit = next(r["deadline_hit_rate"] for r in rows if r["mode"] == "static-exact+")
    slo_hit = next(r["deadline_hit_rate"] for r in rows if r["mode"] == "slo-ladder")
    failures = sum(r["errors"] for r in rows)
    print(
        f"deadline-hit-rate: static-exact+ {static_hit:.1%}, slo-ladder {slo_hit:.1%} "
        f"(targets: static < 70%, slo >= 95%)"
    )
    if failures:
        print(f"FAIL: {failures} requests errored")
        return 1
    if not args.quick:
        if slo_hit < 0.95 or static_hit >= 0.70:
            print("FAIL: SLO contrast targets not met")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
