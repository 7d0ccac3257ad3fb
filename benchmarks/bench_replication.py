"""Replicated serving tier benchmark: bit-identity and bounded staleness.

Boots the full replication tier in-process — one WAL-writing
:class:`repro.server.SACServer`, two :class:`repro.replication.ReplicaServer`
daemons warm-started from the same snapshot, and a
:class:`repro.replication.Coordinator` routing reads round-robin — then
drives interleaved query/mutation traffic through the coordinator and holds
it to the tier's two contracts:

* **bit-identity** (``max_staleness_lsn = 0``): every answer served by any
  backend must equal, member-for-member, what a single-writer serial replay
  of the same mutation trace produces.  The oracle is a private
  :class:`repro.service.SACService` applying the identical records in order.
* **bounded staleness** (``max_staleness_lsn = k``): with mutations fired
  without waiting for replica catch-up, the ``X-Staleness-LSN`` header on
  every proxied read must never exceed ``k`` — lagging replicas are skipped
  or the read falls back to the writer, but a stale answer never escapes
  the bound.

Queries use the ``appfast`` rung (``epsilon_f = 0.5``) over core-eligible
vertices; the exact rung's post-mutation blow-ups would swamp the
measurement without exercising any extra replication machinery.

Both contracts are *enforced*: any mismatch or bound violation exits
non-zero, in ``--quick`` CI mode and in the full run alike.  Results land
in ``BENCH_bench_replication.json`` (baseline under ``benchmarks/baselines``,
diffed by ``tools/compare_bench.py``).

Run standalone::

    python benchmarks/bench_replication.py            # full trace
    python benchmarks/bench_replication.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path

_here = Path(__file__).resolve().parent
sys.path.insert(0, str(_here))
sys.path.insert(1, str(_here.parent / "src"))  # uninstalled checkout fallback

from bench_common import write_result
from repro.datasets.geosocial import brightkite_like
from repro.engine import IncrementalEngine
from repro.server import SACClient
from repro.service import SACService
from repro.testing.serverharness import Tier, wait_applied

K = 4
EPS = {"epsilon_f": 0.5}
NUM_REPLICAS = 2
#: Deterministic check-in destinations, cycled over the mutation trace.
COORDS = ((0.99, 0.99), (0.02, 0.98), (0.5, 0.5), (0.97, 0.03), (0.25, 0.75))


def _build_snapshot(root: Path) -> tuple[str, list[int]]:
    """Materialise the shared snapshot; return its path and eligible labels."""
    graph = brightkite_like(num_vertices=300, seed=7)
    builder = SACService(engine=IncrementalEngine(graph.mutable_copy()))
    cores = builder.engine.core_numbers()
    eligible = [
        graph.label_of(v) for v in range(graph.num_vertices) if cores[v] >= K
    ]
    store = root / "store"
    builder.save(str(store))
    return str(store), eligible


def _tier(store: str, wal_dir: str, max_staleness_lsn: int) -> Tier:
    """Writer + replicas + coordinator over one snapshot, context-managed."""
    return Tier(
        store,
        wal_dir,
        replicas=NUM_REPLICAS,
        coordinator=True,
        max_staleness_lsn=max_staleness_lsn,
        poll_interval_ms=5.0,
    )


class _Oracle:
    """Single-writer serial replay of the same trace — the ground truth."""

    def __init__(self, store: str):
        self.service = SACService.open(str(store))

    def apply(self, record: dict) -> None:
        self.service.apply_record(dict(record))

    def answer(self, vertex: int) -> dict:
        try:
            result = self.service.search(vertex, K, algorithm="appfast", **EPS)
        except Exception:
            return {"found": False}
        return {
            "found": True,
            "members": sorted(result.members),
            "radius": result.circle.radius,
        }


def _mutation_trace(eligible: list[int], count: int) -> list[dict]:
    """``count`` check-ins cycling the eligible vertices over fixed coords."""
    return [
        {
            "op": "checkin",
            "user": eligible[i % len(eligible)],
            "x": COORDS[i % len(COORDS)][0],
            "y": COORDS[i % len(COORDS)][1],
        }
        for i in range(count)
    ]


def _query_once(client: SACClient, vertex: int) -> tuple[dict, int, float]:
    start = time.perf_counter()
    payload = client.query(vertex, k=K, params=EPS)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    staleness = int(client.last_headers.get("x-staleness-lsn", "0"))
    return payload, staleness, elapsed_ms


def _matches(payload: dict, expected: dict) -> bool:
    if payload.get("found") != expected["found"]:
        return False
    if not expected["found"]:
        return True
    return (
        sorted(payload.get("members", ())) == expected["members"]
        and payload.get("radius") == expected["radius"]
    )


def run_bit_identity(
    store: str, eligible: list[int], mutations: int, queries_per_step: int
) -> dict:
    """Interleaved trace at bound 0: every answer equals the serial replay."""
    trace = _mutation_trace(eligible, mutations)
    probes = eligible[:queries_per_step]
    oracle = _Oracle(store)
    latencies: list[float] = []
    mismatches = 0
    reads = 0
    with tempfile.TemporaryDirectory(prefix="bench-repl-") as scratch:
        with _tier(store, str(Path(scratch) / "wal"), 0) as tier, tier.client() as client:
            started = time.perf_counter()
            for step, record in enumerate(trace):
                sent = client.checkin(record["user"], record["x"], record["y"])
                assert sent["lsn"] == step + 1, sent
                oracle.apply(record)
                for vertex in probes:
                    payload, staleness, elapsed_ms = _query_once(client, vertex)
                    latencies.append(elapsed_ms)
                    reads += 1
                    if staleness != 0 or not _matches(
                        payload, oracle.answer(vertex)
                    ):
                        mismatches += 1
            trace_seconds = time.perf_counter() - started
            routing = client.stats()["routing"]
    return {
        "mutations": mutations,
        "reads": reads,
        "mismatches": mismatches,
        "bit_identical": mismatches == 0,
        "p50_query_ms": statistics.median(latencies),
        "trace_seconds": trace_seconds,
        "routing": routing,
    }


def run_staleness_bound(
    store: str,
    eligible: list[int],
    bound: int,
    mutations: int,
    queries_per_step: int,
) -> dict:
    """Fire mutations without waiting; observed staleness must stay ≤ bound."""
    trace = _mutation_trace(eligible, mutations)
    probes = eligible[:queries_per_step]
    observed_max = 0
    violations = 0
    reads = 0
    with tempfile.TemporaryDirectory(prefix="bench-repl-") as scratch:
        with _tier(store, str(Path(scratch) / "wal"), bound) as tier, tier.client() as client:
            for step, record in enumerate(trace):
                client.checkin(record["user"], record["x"], record["y"])
                # No wait_applied here: replicas are deliberately allowed to
                # lag so the coordinator's bound check is what's under test.
                for vertex in probes[: max(1, queries_per_step // 2)]:
                    _, staleness, _ = _query_once(client, vertex)
                    reads += 1
                    observed_max = max(observed_max, staleness)
                    if staleness > bound:
                        violations += 1
            catchup_started = time.perf_counter()
            for replica in tier.replicas:
                wait_applied(replica, len(trace), timeout=30.0)
            catchup_seconds = time.perf_counter() - catchup_started
            routing = client.stats()["routing"]
    return {
        "max_staleness_lsn": bound,
        "reads": reads,
        "violations": violations,
        "within_bound": violations == 0,
        "catchup_seconds": max(catchup_seconds, 1e-6),
        "observed_max": observed_max,
        "routing": routing,
    }


#: Keys of :func:`run_staleness_bound`'s outcome that are measurement noise
#: (already-caught-up replicas make catch-up a no-op) — reported in the
#: section's ``extra`` payload, never in baseline-diffed rows.
_STALENESS_EXTRA_KEYS = ("catchup_seconds", "observed_max", "routing")


def main(argv=None) -> int:
    """Run both sections; exit non-zero on any contract violation."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke scale (fewer mutations per section)",
    )
    args = parser.parse_args(argv)

    mutations = 6 if args.quick else 24
    queries_per_step = 4 if args.quick else 6

    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="bench-repl-store-") as root:
        store, eligible = _build_snapshot(Path(root))

        identity = run_bit_identity(
            store, eligible, mutations, queries_per_step
        )
        routing = identity.pop("routing")
        write_result(
            "replication_bit_identity",
            "Replicated tier vs serial replay (max_staleness_lsn = 0)",
            [identity],
            extra={"routing": routing},
        )
        if not identity["bit_identical"]:
            failures.append(
                f"bit-identity: {identity['mismatches']} mismatching answers"
            )

        rows = []
        extras = {}
        for bound in (2, 8):
            outcome = run_staleness_bound(
                store, eligible, bound, mutations, queries_per_step
            )
            extras[f"bound_{bound}"] = {
                key: outcome.pop(key) for key in _STALENESS_EXTRA_KEYS
            }
            rows.append(outcome)
            if not outcome["within_bound"]:
                failures.append(
                    f"staleness bound {bound}: "
                    f"{outcome['violations']} reads over the bound"
                )
        write_result(
            "replication_staleness",
            "Observed read staleness under un-awaited mutations",
            rows,
            extra=extras,
        )

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
