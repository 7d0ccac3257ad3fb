"""The four workloads: their inputs, their traffic, and their correctness gates.

The inputs are fixed (``inputs.py``); ``--seed`` changes only the
generated traffic here: vertex sequences, check-in stream, edge pairs,
query order.

Each ``run_*`` function spawns the real daemon as a separate process with
production defaults (linger 5 ms, max batch 32, answer cache on, serial
execution), drives it in a closed loop, checks the answers, and returns an
:class:`Outcome`.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from harness import Op, Sample, Server, closed_loop
from inputs import EXACT_PARAMS, K, RING_SIZE, RINGS, Inputs, payload_key, result_key

ZIPF_S = 1.1
#: Seeds the choices that belong to the inputs rather than the traffic.
FIXED_SEED = 2017
#: Extra server spawns per run, on top of the measured ones, for ``setup_s``.
SETUP_SPAWNS = 2

# read-zipf: gowalla x1, one 4 929-member 4-core.
# batch-cold: 8 rings x 4 members per /batch; the residency budget is 5 % of the working set.
BATCH_RINGS, PER_RING, RESIDENT_SHARE = 8, 4, 0.05
# write-mix: brightkite x1; op shares per block of 50; every POLL_EVERY-th op polls a subscription.
SUBSCRIPTIONS, POLL_EVERY = 8, 25
WRITE_MIX_BLOCK = {"query": 39, "checkin": 10, "edge": 1}
# deadline-exact: phase A asks for exact+ on every vertex of the fixed set
# once; phase B serves deadline traffic.
DEADLINE_MS = 100.0
DEADLINE_BLOCK = {"query": 19, "checkin": 1}


# --------------------------------------------------------------- traffic
def zipf_vertices(population: Sequence[int], seed: int, conn: int) -> Iterator[int]:
    """Zipf(``ZIPF_S``) draws over ``population``.

    Which vertex has which popularity rank is a fixed property of the
    population, like the dataset itself, so the cost of the hot vertices
    does not change with the seed; the seed drives the draws.
    """
    ranks = np.arange(1, len(population) + 1, dtype=np.float64) ** -ZIPF_S
    weights = ranks / ranks.sum()
    by_rank = np.random.default_rng(FIXED_SEED).permutation(np.asarray(population))
    rng = np.random.default_rng([seed, conn])
    while True:
        yield from by_rank[rng.choice(len(population), size=1024, p=weights)].tolist()


def query_op(vertex: int, **extra) -> Op:
    """A ``/query`` at the benchmark's k."""
    return Op("query", "/query", {"vertex": vertex, "k": K, **extra})


def read_zipf_stream(population: Sequence[int], seed: int, conn: int) -> Iterator[Op]:
    """read-zipf: Zipf appfast queries, nothing else."""
    for vertex in zipf_vertices(population, seed, conn):
        yield query_op(vertex, algorithm="appfast")


def batch_cold_stream(seed: int, conn: int) -> Iterator[Op]:
    """``/batch`` of ``BATCH_RINGS`` uniform rings x ``PER_RING`` distinct members."""
    rng = np.random.default_rng([seed, conn])
    while True:
        rings = rng.choice(RINGS, BATCH_RINGS, replace=False)
        vertices = [
            int(ring) * RING_SIZE + int(member)
            for ring in rings
            for member in rng.choice(RING_SIZE, PER_RING, replace=False)
        ]
        yield Op("batch", "/batch", {"vertices": vertices, "k": K, "algorithm": "appfast"})


def checkin_ops(graph, seed: int, conn: int) -> Iterator[Op]:
    """Check-ins of the Fig-13 travel profile, cycled."""
    from repro.datasets.geosocial import CheckinGenerator, TravelProfile

    rng = np.random.default_rng([seed, conn, 1])
    users = rng.choice(graph.num_vertices, min(200, graph.num_vertices), replace=False).tolist()
    generator = CheckinGenerator(graph, TravelProfile(), seed=int(rng.integers(1 << 31)))
    records = generator.generate(users, checkins_per_user=10, duration_days=60.0)
    while True:
        for record in records:
            yield Op("checkin", "/checkin", {"user": record.user, "x": record.x, "y": record.y})


def edge_ops(graph, population: Sequence[int], seed: int, conn: int, conns: int) -> Iterator[Op]:
    """Insert-then-delete of non-adjacent pairs from this connection's own vertex pool."""
    rng = np.random.default_rng([seed, conn, 2])
    pool = [v for v in population if v % conns == conn]
    while True:
        u, v = (int(x) for x in rng.choice(pool, 2, replace=False))
        if graph.has_edge(u, v):
            continue
        yield Op("edge", "/edge", {"u": u, "v": v, "op": "insert"})
        yield Op("edge", "/edge", {"u": u, "v": v, "op": "delete"})


def mixed(rng, block: Dict[str, int]) -> Iterator[str]:
    """Op kinds in shuffled blocks holding exactly ``block[kind]`` of each.

    Every block has the mix's exact shares, so the number of costly ops a
    run sees does not vary with the seed; only their order does.
    """
    kinds = [kind for kind, count in block.items() for _ in range(count)]
    while True:
        yield from rng.permutation(kinds).tolist()


def write_mix_stream(graph, population, sub_ids, seed: int, conn: int, conns: int) -> Iterator[Op]:
    """78 % Zipf queries, 20 % check-ins, 2 % edge updates; every 25th op a poll."""
    vertices = zipf_vertices(population, seed, conn)
    sources = {
        "query": (query_op(v, algorithm="appfast") for v in vertices),
        "checkin": checkin_ops(graph, seed, conn),
        "edge": edge_ops(graph, population, seed, conn, conns),
    }
    kinds = mixed(np.random.default_rng([seed, conn, 3]), WRITE_MIX_BLOCK)
    for index in itertools.count():
        if index % POLL_EVERY == POLL_EVERY - 1:
            sub_id = sub_ids[(index // POLL_EVERY) % len(sub_ids)]
            yield Op("poll", f"/subscribe?id={sub_id}&timeout_ms=0", method="GET")
        else:
            yield next(sources[next(kinds)])


def exact_stream(exact_set: Dict[str, List[int]], seed: int) -> Iterator[Op]:
    """Phase A: every vertex of the fixed set once, k=4 then k=5, seeded order."""
    rng = np.random.default_rng([seed, 4])
    for k, vertices in sorted(exact_set.items(), key=lambda item: int(item[0])):
        for vertex in rng.permutation(vertices).tolist():
            body = {"vertex": vertex, "k": int(k), "algorithm": "exact+", "params": EXACT_PARAMS}
            yield Op("exact", "/query", body)


def deadline_stream(graph, population, seed: int, conn: int) -> Iterator[Op]:
    """Phase B: 95 % Zipf deadline queries (ceiling exact+), 5 % check-ins."""
    vertices = zipf_vertices(population, seed, conn)
    sources = {
        "query": (query_op(v, deadline_ms=DEADLINE_MS) for v in vertices),
        "checkin": checkin_ops(graph, seed, conn),
    }
    for kind in mixed(np.random.default_rng([seed, conn, 5]), DEADLINE_BLOCK):
        yield next(sources[kind])


# -------------------------------------------------------------- outcomes
@dataclass
class Outcome:
    """Everything one workload run measured."""

    samples: List[Sample] = field(default_factory=list)
    windows: List[Tuple[float, float]] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    mismatches: List[str] = field(default_factory=list)
    hygiene: List[str] = field(default_factory=list)
    evictions: int = 0
    traces: List[tuple] = field(default_factory=list)


def _spawn(
    args: Sequence[str], outcome: Outcome, workdir: Path, *, traced: bool, wal: bool
) -> Server:
    tag = f"{time.monotonic_ns()}"
    wal_dir = workdir / f"wal-{tag}" if wal else None
    extra = ["--role", "writer", "--wal-dir", str(wal_dir)] if wal else []
    dump = workdir / f"spans-{tag}.json" if traced else None
    server = Server([*args, *extra], workdir, dump=dump, wal_dir=wal_dir)
    outcome.setup_s.append(server.setup_s)
    return server


def _time_setup(
    args: Sequence[str], outcome: Outcome, workdir: Path, *, wal: bool, spawns: int
) -> None:
    """Spawn-to-ready timings of fresh servers that serve nothing."""
    for _ in range(spawns):
        server = _spawn(args, outcome, workdir, traced=False, wal=wal)
        outcome.hygiene += server.stop()


def _serve(
    args: Sequence[str],
    outcome: Outcome,
    workdir: Path,
    streams: Callable[[Server], Sequence[Iterator[Op]]],
    seconds: Optional[float],
    *,
    traced: bool,
    warmup_ops: int,
    wal: bool = False,
    check: Optional[Callable[[Server, List[Sample]], List[str]]] = None,
) -> float:
    """One measured server: warm it, drive it, read ``/stats`` and peak RSS, check, drain."""
    server = _spawn(args, outcome, workdir, traced=traced, wal=wal)
    try:
        loop = closed_loop(
            server.host, server.port, streams(server), seconds, warmup_ops=warmup_ops
        )
        outcome.samples += loop.samples
        outcome.windows.append(loop.window)
        outcome.peak_rss_mb = max(outcome.peak_rss_mb, server.peak_rss_mb())
        stats = server.json("GET", "/stats")
        outcome.evictions += int(stats["residency"].get("bundles_evicted", 0))
        outcome.hygiene += [
            f"warm-up request failed: {s.body[:200]!r}" for s in loop.warmup if not s.ok
        ]
        if check is not None:
            outcome.mismatches += check(server, loop.warmup + loop.samples)
    finally:
        outcome.hygiene += server.stop()
    if traced:
        outcome.traces.append((json.loads(server.dump.read_text()), loop.per_conn))
        server.dump.unlink()
    return loop.window[1] - loop.window[0]


def _responses(samples: Sequence[Sample], kind: str):
    for sample in samples:
        if sample.ok and sample.op.kind == kind:
            yield sample, json.loads(sample.body)


def _compare(label: str, got: Optional[list], want: Optional[list]) -> Optional[str]:
    if got == want:
        return None
    return f"{label}: served {got} but the in-process engine answers {want}"


# ------------------------------------------------------------- workloads
def run_read_zipf(
    inputs: Inputs, seed: int, seconds: float, workdir: Path, traced: bool, setup_spawns: int
) -> Outcome:
    """read-zipf; every distinct answer must equal the gowalla reference."""
    outcome = Outcome()
    args = ["--store", inputs.store("gowalla"), "--port", "0", "--warm-ks", str(K)]
    population = inputs.population("gowalla")
    reference = inputs.reference("gowalla")

    def check(server, samples):
        seen, problems = set(), []
        for sample, payload in _responses(samples, "query"):
            vertex = sample.op.body["vertex"]
            if (vertex, sample.body) in seen:
                continue
            seen.add((vertex, sample.body))
            problem = _compare(f"vertex {vertex}", payload_key(payload), reference[str(vertex)])
            if problem:
                problems.append(problem)
        return problems

    _time_setup(args, outcome, workdir, wal=False, spawns=setup_spawns)
    _serve(
        args, outcome, workdir,
        lambda server: [read_zipf_stream(population, seed, conn) for conn in range(2)],
        seconds, traced=traced, warmup_ops=200, check=check,
    )
    return outcome


def run_batch_cold(
    inputs: Inputs, seed: int, seconds: float, workdir: Path, traced: bool, setup_spawns: int
) -> Outcome:
    """batch-cold; every answer must equal its ring's reference."""
    outcome = Outcome()
    budget_mb = RESIDENT_SHARE * inputs.manifest["rings_working_set_bytes"] / (1024 * 1024)
    args = [
        "--store", inputs.store("rings"), "--port", "0", "--warm-ks", str(K),
        "--max-resident-mb", f"{budget_mb:.4f}",
    ]
    reference = inputs.reference("rings")

    def check(server, samples):
        problems = []
        for sample, payload in _responses(samples, "batch"):
            vertices = sample.op.body["vertices"]
            answered = len(payload["results"])
            if payload["failed"] or payload["errors"] or answered != len(set(vertices)):
                problems.append(f"batch of {len(vertices)} answered only {answered}")
            for label, answer in payload["results"].items():
                ring = int(label) // RING_SIZE
                problem = _compare(f"vertex {label}", payload_key(answer), reference[str(ring)])
                if problem:
                    problems.append(problem)
        return problems

    _time_setup(args, outcome, workdir, wal=False, spawns=setup_spawns)
    _serve(
        args, outcome, workdir,
        lambda server: [batch_cold_stream(seed, conn) for conn in range(2)],
        seconds, traced=traced, warmup_ops=10, check=check,
    )
    return outcome


def _record(op: Op) -> dict:
    """The WAL record a mutation op is applied as (labels are vertex indices)."""
    body = op.body
    if op.kind == "checkin":
        return {"op": "checkin", "user": body["user"], "x": body["x"], "y": body["y"]}
    return {"op": "edge", "u": body["u"], "v": body["v"], "action": body["op"]}


def run_write_mix(
    inputs: Inputs, seed: int, seconds: float, workdir: Path, traced: bool, setup_spawns: int
) -> Outcome:
    """write-mix; acknowledged mutations replayed in LSN order must give the served answers."""
    from repro.engine import IncrementalEngine
    from repro.exceptions import NoCommunityError
    from repro.store import ArtifactStore

    outcome = Outcome()
    store = inputs.store("brightkite")
    args = ["--store", store, "--port", "0", "--warm-ks", str(K)]
    population = inputs.population("brightkite")
    graph = ArtifactStore.open(store).graph()
    # Every mutation re-evaluates every subscription, so which vertices are
    # subscribed is fixed: their cost would otherwise vary with the seed.
    subscribed = np.random.default_rng(FIXED_SEED).choice(population, SUBSCRIPTIONS, replace=False)
    rng = np.random.default_rng([seed, 6])

    def streams(server):
        bodies = [{"vertex": int(v), "k": K, "algorithm": "appfast"} for v in subscribed]
        sub_ids = [server.json("POST", "/subscribe", body)["id"] for body in bodies]
        return [write_mix_stream(graph, population, sub_ids, seed, conn, 2) for conn in range(2)]

    def check(server, samples):
        acked = sorted(
            (payload["lsn"], sample.op)
            for kind in ("checkin", "edge")
            for sample, payload in _responses(samples, kind)
        )
        lsns = [lsn for lsn, _op in acked]
        if lsns != list(range(1, len(lsns) + 1)):
            return [f"acknowledged LSNs are not 1..{len(lsns)}: {lsns[:10]}..."]
        oracle = IncrementalEngine.from_store(store)
        for _lsn, op in acked:
            oracle.apply_record(_record(op))
        problems = []
        for vertex in rng.choice(population, 50, replace=False).tolist():
            try:
                want = result_key(oracle.search(vertex, K, algorithm="appfast"))
            except NoCommunityError:
                want = None
            body = {"vertex": vertex, "k": K, "algorithm": "appfast"}
            got = payload_key(server.json("POST", "/query", body))
            problem = _compare(f"vertex {vertex} after {len(acked)} mutations", got, want)
            if problem:
                problems.append(problem)
        return problems

    _time_setup(args, outcome, workdir, wal=True, spawns=setup_spawns)
    _serve(
        args, outcome, workdir, streams, seconds,
        traced=traced, warmup_ops=25, wal=True, check=check,
    )
    return outcome


def run_deadline_exact(
    inputs: Inputs, seed: int, seconds: float, workdir: Path, traced: bool, setup_spawns: int
) -> Outcome:
    """deadline-exact: phase A (Exact+ on the fixed set), then phase B (deadline traffic).

    Phase A's answers must equal the in-process Exact+ references; every
    phase-B answer must carry the bound of the rung that answered it.
    """
    from repro.service.slo import approximation_bound
    from repro.store import ArtifactStore

    outcome = Outcome()
    store = inputs.store("small")
    args = ["--store", store, "--port", "0", "--warm-ks", "4,5", "--slo"]
    population = inputs.population("small")
    graph = ArtifactStore.open(store).graph()
    reference = inputs.reference("exact")

    def check_exact(server, samples):
        problems = []
        for sample, payload in _responses(samples, "exact"):
            body = sample.op.body
            label = f"{body['k']}:{body['vertex']}"
            problem = _compare(f"exact+ {label}", payload_key(payload), reference[label])
            if problem:
                problems.append(problem)
        return problems

    def check_bounds(server, samples):
        problems = []
        for _sample, payload in _responses(samples, "query"):
            used = payload["algorithm_used"]
            if used is not None and payload["bound"] != approximation_bound(used, {}):
                problems.append(f"{used} answered with bound {payload['bound']}")
        return problems

    # Phase A's server is the third set-up sample.
    _time_setup(args, outcome, workdir, wal=False, spawns=max(0, setup_spawns - 1))
    phase_a = _serve(
        args, outcome, workdir,
        lambda server: [exact_stream(inputs.manifest["exact_set"], seed)],
        None, traced=traced, warmup_ops=0, check=check_exact,
    )
    _serve(
        args, outcome, workdir,
        lambda server: [deadline_stream(graph, population, seed, conn) for conn in range(2)],
        max(seconds - phase_a, seconds / 3), traced=traced, warmup_ops=25, check=check_bounds,
    )
    return outcome


@dataclass(frozen=True)
class Workload:
    """A workload's runner and what its requests count as answered queries."""

    run: Callable[..., Outcome]
    #: Request kinds that count as answered queries, and how many each answers.
    answers: Dict[str, Callable[[Op], int]]


def _one(op: Op) -> int:
    return 1


WORKLOADS: Dict[str, Workload] = {
    "read-zipf": Workload(run_read_zipf, {"query": _one}),
    "batch-cold": Workload(run_batch_cold, {"batch": lambda op: len(op.body["vertices"])}),
    "write-mix": Workload(run_write_mix, {"query": _one}),
    "deadline-exact": Workload(run_deadline_exact, {"query": _one, "exact": _one}),
}
