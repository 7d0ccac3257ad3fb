"""Incremental dynamic replay benchmark: one engine vs. rebuild-per-check-in.

Replays the Figure-13 workload — a synthetic check-in stream over the
Brightkite stand-in, re-querying the most mobile users' communities at each
of their check-ins — two ways:

* **incremental**: :class:`repro.dynamic.SACTracker`, where one
  :class:`repro.engine.IncrementalEngine` absorbs every check-in in place;
  the core decomposition, k-ĉore labelling, and per-component artifacts are
  built once and patched as locations move;
* **rebuild**: :func:`repro.testing.oracle.oracle_timelines`, where every
  tracked check-in materialises a coordinate snapshot and rebuilds all
  per-graph state from scratch (the pre-incremental behaviour).

Verifies the two paths produce bit-identical timelines (same member sets,
same MCC radii and centres, same timestamps) and that the incremental path
replays the stream at least ``--min-speedup`` times faster.

Run standalone::

    python benchmarks/bench_incremental_dynamic.py            # full workload
    python benchmarks/bench_incremental_dynamic.py --quick    # CI smoke

Exits non-zero when the timelines diverge or the speedup floor is missed.
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
from repro.datasets.geosocial import CheckinGenerator, TravelProfile, brightkite_like
from repro.dynamic.evaluation import select_mobile_queries
from repro.dynamic.stream import LocationStream
from repro.dynamic.tracker import SACTracker
from repro.testing.oracle import oracle_timelines


def _timelines_identical(first, second) -> bool:
    """Bit-exact comparison of two tracker timeline dicts."""
    if set(first) != set(second):
        return False
    for user in first:
        if len(first[user]) != len(second[user]):
            return False
        for a, b in zip(first[user], second[user]):
            if (
                a.timestamp != b.timestamp
                or a.members != b.members
                or a.circle.radius != b.circle.radius
                or a.circle.center.x != b.circle.center.x
                or a.circle.center.y != b.circle.center.y
            ):
                return False
    return True


def run_benchmark(
    *,
    vertices: int,
    emitters: int,
    checkins_per_user: int,
    tracked: int,
    k: int,
    epsilon_f: float,
    repeats: int,
) -> tuple[list[dict], bool, float]:
    """Replay the Fig-13 workload both ways; returns (rows, identical, speedup)."""
    graph = brightkite_like(vertices, average_degree=8.0, seed=21)
    generator = CheckinGenerator(
        graph,
        TravelProfile(local_std=0.01, move_probability=0.1, move_distance_mean=0.25),
        seed=13,
    )
    emitting_users = list(range(min(graph.num_vertices, emitters)))
    checkins = generator.generate(
        emitting_users, checkins_per_user=checkins_per_user, duration_days=40.0
    )
    travel = generator.total_travel_distance(checkins)
    queries = select_mobile_queries(graph, checkins, travel, count=tracked, min_friends=8)

    def replay(incremental: bool):
        best = float("inf")
        timelines = None
        for _ in range(repeats):
            stream = LocationStream(graph, checkins)
            if incremental:
                tracker = SACTracker(
                    stream, k, algorithm="appfast", algorithm_params={"epsilon_f": epsilon_f}
                )
                start = time.perf_counter()
                timelines = tracker.track(queries)
            else:
                start = time.perf_counter()
                timelines = oracle_timelines(
                    stream, queries, k, algorithm="appfast", epsilon_f=epsilon_f
                )
            best = min(best, time.perf_counter() - start)
        return timelines, best

    incremental_timelines, incremental_seconds = replay(True)
    rebuild_timelines, rebuild_seconds = replay(False)

    identical = _timelines_identical(incremental_timelines, rebuild_timelines)
    speedup = rebuild_seconds / incremental_seconds
    total_queries = sum(len(snapshots) for snapshots in incremental_timelines.values())
    rows = [
        {
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
            "checkins": len(checkins),
            "tracked_users": len(queries),
            "tracked_queries": total_queries,
            "incremental_checkins_per_s": round(len(checkins) / incremental_seconds, 1),
            "rebuild_checkins_per_s": round(len(checkins) / rebuild_seconds, 1),
            "speedup": round(speedup, 2),
            "identical": identical,
        }
    ]
    return rows, identical, speedup


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small CI smoke workload (~20 s)"
    )
    parser.add_argument("--vertices", type=int, default=None, help="graph size")
    parser.add_argument(
        "--emitters", type=int, default=None, help="users emitting check-ins"
    )
    parser.add_argument(
        "--checkins-per-user", type=int, default=None, help="check-ins per emitter"
    )
    parser.add_argument("--tracked", type=int, default=None, help="tracked query users")
    parser.add_argument("--k", type=int, default=4)
    parser.add_argument("--epsilon-f", type=float, default=0.5)
    parser.add_argument("--repeats", type=int, default=None, help="timing repeats (best-of)")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail below this incremental/rebuild throughput ratio "
        "(default: 3.0 full, 1.2 quick — smoke runs only sanity-check the gap)",
    )
    args = parser.parse_args(argv)

    vertices = args.vertices if args.vertices is not None else (4000 if args.quick else 12000)
    emitters = args.emitters if args.emitters is not None else (400 if args.quick else 600)
    per_user = args.checkins_per_user if args.checkins_per_user is not None else 8
    tracked = args.tracked if args.tracked is not None else (8 if args.quick else 12)
    repeats = args.repeats if args.repeats is not None else (1 if args.quick else 2)
    min_speedup = args.min_speedup if args.min_speedup is not None else (1.2 if args.quick else 3.0)

    print(
        f"incremental dynamic benchmark: vertices={vertices} emitters={emitters} "
        f"checkins/user={per_user} tracked={tracked} k={args.k}"
    )
    rows, identical, speedup = run_benchmark(
        vertices=vertices,
        emitters=emitters,
        checkins_per_user=per_user,
        tracked=tracked,
        k=args.k,
        epsilon_f=args.epsilon_f,
        repeats=repeats,
    )
    write_result(
        "incremental_dynamic",
        "Incremental engine vs rebuild-per-check-in on the Fig-13 replay",
        rows,
    )
    if not identical:
        print("FAIL: incremental timelines diverge from rebuild-per-check-in", file=sys.stderr)
        return 1
    print(f"replay speedup: {speedup:.2f}x (timelines identical)")
    if speedup < min_speedup:
        print(
            f"FAIL: speedup {speedup:.2f}x below the {min_speedup:.1f}x floor",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
