"""Command-line interface for the SAC search library.

Seven subcommands cover the common workflows of a downstream user:

``generate``
    Create a synthetic spatial graph (power-law or geo-social) and save it as
    an ``.npz`` file.

``query``
    Load a graph (``.npz``) and run one SAC query with any of the algorithms,
    printing the member list and the covering circle.

``batch``
    Run many SAC queries as one batch through
    :meth:`repro.service.SACService.submit_batch`, sharing the per-graph
    preprocessing, for ``--rounds`` rounds over one answer cache (rounds
    after the first are cache hits).  Prints each round's throughput,
    every answer, and cache/engine statistics.

``track``
    Replay a check-in stream (from a file, or synthesised on the fly) and
    re-run SAC search for tracked users at each of their check-ins — the
    paper's dynamic scenario (Figure 13).  One
    :class:`repro.engine.IncrementalEngine` absorbs every check-in in place.

``snapshot``
    Build every per-graph artifact (core decomposition, k-ĉore labellings,
    per-component bundles) for the requested ``k`` values and persist the
    lot as an :class:`repro.store.ArtifactStore` directory.  ``batch``
    and ``track`` accept the snapshot via ``--store`` and warm-start
    memory-mapped instead of paying the cold build.

``serve``
    Run the long-lived online serving daemon (:class:`repro.server.SACServer`):
    JSON over HTTP with micro-batched ``/query``, explicit ``/batch``,
    serialised ``/checkin``/``/edge`` mutations, ``/stats``, and
    ``/healthz``.  Warm-starts from ``--store``, snapshots to
    ``--snapshot-to`` on ``SIGUSR1`` and on shutdown, and drains gracefully
    on ``SIGTERM``/``SIGINT``.  ``--role writer|replica|coordinator`` runs
    the same daemon as one member of the replicated tier
    (:mod:`repro.replication`): the writer appends mutations to ``--wal-dir``,
    replicas tail it and serve reads, the coordinator routes between them.

``stats``
    Print the Table-4 style summary of a graph file.

Examples
--------
::

    python -m repro.cli generate --kind geosocial --vertices 5000 --out graph.npz
    python -m repro.cli query graph.npz --vertex 42 --k 4 --algorithm exact+
    python -m repro.cli batch graph.npz --count 64 --k 4 --algorithm appfast
    python -m repro.cli snapshot graph.npz --out graph.store --ks 4
    python -m repro.cli batch --store graph.store --count 64 --k 4 --rounds 2
    python -m repro.cli serve --store graph.store --port 8080
    python -m repro.cli track --store graph.store --track-count 8 --k 4
    python -m repro.cli stats graph.npz

See ``docs/cli.md`` for the full manual.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.core.searcher import ALGORITHMS, SACSearcher
from repro.datasets.geosocial import brightkite_like
from repro.datasets.synthetic import powerlaw_spatial_graph
from repro.engine import IncrementalEngine, QueryEngine
from repro.exceptions import InvalidParameterError, ReproError
from repro.graph.io import load_graph_npz, save_graph_npz
from repro.graph.stats import summarize


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Spatial-aware community (SAC) search over spatial graphs",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a synthetic spatial graph")
    generate.add_argument("--kind", choices=("powerlaw", "geosocial"), default="geosocial")
    generate.add_argument("--vertices", type=int, default=5000)
    generate.add_argument("--average-degree", type=float, default=8.0)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True, help="output .npz path")

    query = subparsers.add_parser("query", help="run one SAC query against a graph file")
    query.add_argument("graph", help="graph .npz file produced by `generate`")
    query.add_argument("--vertex", type=int, required=True, help="query vertex label")
    query.add_argument("--k", type=int, default=4, help="minimum degree threshold")
    query.add_argument(
        "--algorithm", choices=sorted(ALGORITHMS), default="appfast", help="SAC algorithm"
    )
    query.add_argument("--epsilon-f", type=float, default=0.5, help="AppFast slack")
    query.add_argument("--epsilon-a", type=float, default=0.5, help="AppAcc / Exact+ accuracy")

    snapshot = subparsers.add_parser(
        "snapshot",
        help="precompute engine artifacts and persist them as a store directory",
    )
    snapshot.add_argument("graph", help="graph .npz file produced by `generate`")
    snapshot.add_argument("--out", required=True, help="output store directory")
    snapshot.add_argument(
        "--ks",
        default="4",
        help="comma-separated degree thresholds to precompute (default: 4)",
    )

    batch = subparsers.add_parser(
        "batch",
        help="run many SAC queries as batches through the planned, answer-cached service",
    )
    batch.add_argument(
        "graph", nargs="?", help="graph .npz file produced by `generate`"
    )
    batch.add_argument(
        "--store",
        help="warm-start from a snapshot directory produced by `snapshot` "
        "instead of a graph file",
    )
    batch.add_argument(
        "--vertices",
        help="comma-separated query vertex labels (default: sample --count eligible vertices)",
    )
    batch.add_argument(
        "--count", type=int, default=32, help="number of random eligible query vertices"
    )
    batch.add_argument("--seed", type=int, default=0, help="sampling seed for --count")
    batch.add_argument("--k", type=int, default=4, help="minimum degree threshold")
    batch.add_argument(
        "--algorithm", choices=sorted(ALGORITHMS), default="appfast", help="SAC algorithm"
    )
    batch.add_argument("--epsilon-f", type=float, default=0.5, help="AppFast slack")
    batch.add_argument("--epsilon-a", type=float, default=0.5, help="AppAcc / Exact+ accuracy")
    batch.add_argument(
        "--rounds",
        type=int,
        default=1,
        help="times the batch is submitted; rounds after the first exercise the cache",
    )
    batch.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-round deadline budget: answer each batch through the SLO "
        "algorithm ladder, --algorithm becoming the quality ceiling",
    )
    _add_resident_budget_argument(batch)

    daemon = subparsers.add_parser(
        "serve",
        help="run the long-lived online serving daemon (JSON over HTTP, micro-batched)",
    )
    daemon.add_argument(
        "graph", nargs="?", help="graph .npz file produced by `generate`"
    )
    daemon.add_argument(
        "--store",
        help="warm-start from a snapshot directory produced by `snapshot` "
        "instead of a graph file",
    )
    daemon.add_argument("--host", default="127.0.0.1", help="listen address")
    daemon.add_argument(
        "--port", type=int, default=8080, help="listen port (0 binds an ephemeral port)"
    )
    daemon.add_argument(
        "--max-batch",
        type=int,
        default=32,
        help="micro-batch flush threshold: coalesce at most this many queries "
        "that arrive while the writer is busy",
    )
    daemon.add_argument(
        "--warm-ks",
        default="",
        help="comma-separated degree thresholds to prepare before accepting traffic",
    )
    daemon.add_argument(
        "--snapshot-to",
        help="store directory written on SIGUSR1 and on shutdown (disabled when omitted)",
    )
    daemon.add_argument(
        "--max-body-bytes",
        type=int,
        default=1 << 20,
        help="largest accepted request body (larger requests get HTTP 413)",
    )
    daemon.add_argument(
        "--max-batch-queries",
        type=int,
        default=1024,
        help="largest accepted explicit /batch (larger batches get HTTP 413)",
    )
    daemon.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the answer cache (every query recomputes)",
    )
    daemon.add_argument(
        "--static",
        action="store_true",
        help="serve a read-only QueryEngine (mutation endpoints answer 400)",
    )
    daemon.add_argument(
        "--slo",
        action="store_true",
        help="calibrate the SLO cost model at start-up for every --warm-ks "
        "threshold, so the first deadline-carrying request pays no probes",
    )
    daemon.add_argument(
        "--default-deadline-ms",
        type=float,
        default=None,
        help="deadline applied to /query and /batch requests that carry no "
        "deadline_ms of their own (default: best-effort, no deadline)",
    )
    daemon.add_argument(
        "--max-queue-depth",
        type=int,
        default=1024,
        help="admission limit per lane: queued queries beyond this are "
        "refused with HTTP 429 + Retry-After",
    )
    daemon.add_argument(
        "--retry-after-seconds",
        type=float,
        default=1.0,
        help="the Retry-After backoff advertised on 429 responses "
        "(integer-valued per RFC 9110: sub-second values advertise 1)",
    )
    daemon.add_argument(
        "--poll-timeout-ms",
        type=float,
        default=30000.0,
        help="longest a GET /subscribe long-poll parks before answering empty",
    )
    daemon.add_argument(
        "--subscription-backlog",
        type=int,
        default=64,
        help="per-subscription pending-delta bound; a consumer that falls "
        "further behind gets one full-snapshot resync instead",
    )
    daemon.add_argument(
        "--subscription-idle-seconds",
        type=float,
        default=300.0,
        help="expire subscriptions with no poll contact for this long "
        "(0 disables idle GC)",
    )
    daemon.add_argument(
        "--role",
        choices=("writer", "replica", "coordinator"),
        default=None,
        help="replication role: 'writer' appends every mutation to --wal-dir, "
        "'replica' tails --wal-dir read-only and refuses mutations, "
        "'coordinator' proxies traffic across --writer-addr/--replicas "
        "(default: standalone, no replication)",
    )
    daemon.add_argument(
        "--wal-dir",
        help="write-ahead log directory shared by the writer and its replicas "
        "(required for --role writer and --role replica)",
    )
    daemon.add_argument(
        "--wal-fsync",
        action="store_true",
        help="fsync the WAL after every append (machine-crash durability at "
        "a heavy per-mutation cost)",
    )
    daemon.add_argument(
        "--writer-url",
        help="the writer's base URL, advertised in a replica's 403 mutation "
        "refusals (replica role only)",
    )
    daemon.add_argument(
        "--poll-interval-ms",
        type=float,
        default=25.0,
        help="how often a replica polls the WAL for new records (replica role only)",
    )
    daemon.add_argument(
        "--writer-addr",
        help="the writer backend as host:port (coordinator role only)",
    )
    daemon.add_argument(
        "--replicas",
        default="",
        help="comma-separated replica backends as host:port (coordinator role only)",
    )
    daemon.add_argument(
        "--max-staleness-lsn",
        type=int,
        default=0,
        help="bounded staleness: a replica may serve reads while at most this "
        "many WAL records behind the writer (coordinator role only)",
    )
    daemon.add_argument(
        "--health-interval-ms",
        type=float,
        default=200.0,
        help="backend /healthz probe period, the failover detection latency "
        "(coordinator role only)",
    )
    _add_resident_budget_argument(daemon)

    track = subparsers.add_parser(
        "track", help="replay a check-in stream and track users' communities"
    )
    track.add_argument(
        "graph", nargs="?", help="graph .npz file produced by `generate`"
    )
    track.add_argument(
        "--store",
        help="warm-start the incremental engine from a snapshot directory "
        "produced by `snapshot` instead of a graph file",
    )
    track.add_argument(
        "--checkins",
        help="check-in file (`user timestamp x y` per line); synthesised when omitted",
    )
    track.add_argument(
        "--users",
        help="comma-separated labels of users to track (default: the --track-count most mobile)",
    )
    track.add_argument(
        "--track-count", type=int, default=8, help="number of most-mobile users to track"
    )
    track.add_argument(
        "--min-friends", type=int, default=8, help="degree floor for auto-selected users"
    )
    track.add_argument("--k", type=int, default=4, help="minimum degree threshold")
    track.add_argument(
        "--algorithm", choices=sorted(ALGORITHMS), default="appfast", help="SAC algorithm"
    )
    track.add_argument("--epsilon-f", type=float, default=0.5, help="AppFast slack")
    track.add_argument("--epsilon-a", type=float, default=0.5, help="AppAcc / Exact+ accuracy")
    track.add_argument(
        "--generate-users",
        type=int,
        default=500,
        help="users emitting synthetic check-ins when no --checkins file is given",
    )
    track.add_argument(
        "--checkins-per-user", type=int, default=8, help="synthetic check-ins per user"
    )
    track.add_argument(
        "--duration-days", type=float, default=40.0, help="synthetic stream duration"
    )
    track.add_argument("--seed", type=int, default=13, help="synthetic stream seed")
    _add_resident_budget_argument(track)

    stats = subparsers.add_parser("stats", help="print summary statistics of a graph file")
    stats.add_argument("graph", help="graph .npz file")

    return parser


def _command_generate(args: argparse.Namespace) -> int:
    if args.kind == "powerlaw":
        graph = powerlaw_spatial_graph(
            args.vertices, average_degree=args.average_degree, seed=args.seed
        )
    else:
        graph = brightkite_like(
            args.vertices, average_degree=args.average_degree, seed=args.seed
        )
    save_graph_npz(graph, args.out)
    summary = summarize(graph)
    print(
        f"wrote {args.out}: {summary.num_vertices} vertices, "
        f"{summary.num_edges} edges, avg degree {summary.average_degree:.2f}"
    )
    return 0


def _add_resident_budget_argument(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--max-resident-mb`` residency-budget flag."""
    parser.add_argument(
        "--max-resident-mb",
        type=float,
        default=None,
        help="byte budget (in MiB) for resident artifact bundles: with "
        "--store, bundles materialise lazily from the mmap'd snapshot and "
        "an LRU evicts cold ones back to it; without a budget every "
        "touched bundle stays resident",
    )


def _resident_budget_bytes(args: argparse.Namespace) -> "int | None":
    """``--max-resident-mb`` converted to bytes (``None`` when unset)."""
    budget_mb = getattr(args, "max_resident_mb", None)
    if budget_mb is None:
        return None
    if budget_mb <= 0:
        raise InvalidParameterError(
            f"--max-resident-mb must be positive, got {budget_mb!r}"
        )
    return int(budget_mb * 1024 * 1024)


def _load_engine(args: argparse.Namespace, engine_cls):
    """Build the engine of a graph-or-store subcommand.

    ``--store`` warm-starts ``engine_cls`` memory-mapped from a snapshot;
    otherwise the positional graph file is loaded and a cold engine built.
    Exactly one of the two sources must be given.  ``--max-resident-mb``
    (when the subcommand has it) bounds the engine's resident bundle set.
    """
    budget = _resident_budget_bytes(args)
    if args.store is not None:
        if args.graph is not None:
            raise InvalidParameterError(
                "pass either a graph file or --store, not both"
            )
        return engine_cls.from_store(args.store, max_resident_bytes=budget)
    if args.graph is None:
        raise InvalidParameterError(
            "pass a graph .npz file or --store SNAPSHOT_DIR"
        )
    return engine_cls(load_graph_npz(args.graph), max_resident_bytes=budget)


def _command_snapshot(args: argparse.Namespace) -> int:
    from repro.store import ArtifactStore

    graph = load_graph_npz(args.graph)
    try:
        ks = sorted({int(part) for part in args.ks.split(",") if part.strip()})
    except ValueError:
        raise InvalidParameterError(
            f"--ks must be comma-separated integers, got {args.ks!r}"
        ) from None
    if not ks:
        raise InvalidParameterError("--ks named no degree thresholds")
    engine = QueryEngine(graph)
    for k in ks:
        count = engine.prepare(k)
        for component in range(count):
            engine.component_artifacts(k, component)
    store = ArtifactStore.save(args.out, engine)
    info = store.describe()
    print(
        f"wrote {info['path']}: {info['vertices']} vertices, "
        f"{info['edges']} edges, k={','.join(str(k) for k in ks)}, "
        f"{info['bundles']} bundles, {info['bytes'] / 1e6:.2f} MB"
    )
    return 0


def _algorithm_params(args: argparse.Namespace) -> dict:
    if args.algorithm == "appfast":
        return {"epsilon_f": args.epsilon_f}
    if args.algorithm in ("appacc", "exact+"):
        return {"epsilon_a": args.epsilon_a}
    return {}


def _command_query(args: argparse.Namespace) -> int:
    graph = load_graph_npz(args.graph)
    searcher = SACSearcher(graph, default_algorithm=args.algorithm)
    params = _algorithm_params(args)
    result = searcher.search(args.vertex, args.k, algorithm=args.algorithm, **params)
    if result is None:
        print(f"no community with minimum degree {args.k} contains vertex {args.vertex}")
        return 1
    members = ", ".join(map(str, searcher.member_labels(result)))
    print(f"algorithm : {result.algorithm}")
    print(f"members   : {members}")
    print(f"size      : {result.size}")
    print(f"radius    : {result.radius:.6f}")
    print(f"center    : ({result.circle.center.x:.6f}, {result.circle.center.y:.6f})")
    return 0


def _batch_queries(args: argparse.Namespace, graph) -> list:
    """Resolve the query vertices of ``batch``.

    Explicit ``--vertices`` labels win; otherwise ``--count`` eligible
    vertices are sampled with ``--seed``.
    """
    if args.vertices:
        labels = dict.fromkeys(_parse_label(part) for part in args.vertices.split(","))
        return [graph.index_of(label) for label in labels]
    from repro.experiments.queries import select_query_vertices

    queries = select_query_vertices(
        graph, count=args.count, min_core=args.k, seed=args.seed
    )
    if not queries:
        raise InvalidParameterError(
            f"graph has no vertices with core number >= {args.k}"
        )
    return queries


def _command_batch(args: argparse.Namespace) -> int:
    import time

    from repro.service import SACService

    if args.rounds < 1:
        raise InvalidParameterError(f"--rounds must be at least 1, got {args.rounds}")
    if args.deadline_ms is not None and not args.deadline_ms > 0:
        raise InvalidParameterError(
            f"--deadline-ms must be positive, got {args.deadline_ms}"
        )
    engine = _load_engine(args, QueryEngine)
    graph = engine.graph
    service = SACService(engine=engine)
    queries = _batch_queries(args, graph)
    params = _algorithm_params(args)

    role = "quality ceiling" if args.deadline_ms is not None else "algorithm"
    print(f"algorithm      : {args.algorithm} ({role}; k={args.k}, answer cache on)")
    if args.deadline_ms is not None:
        print(f"deadline       : {args.deadline_ms:g} ms per round (SLO ladder on)")
    print(f"queries        : {len(queries)} per round, {args.rounds} round(s)")
    for round_index in range(args.rounds):
        start = time.perf_counter()
        batch = service.submit_batch(
            queries,
            args.k,
            algorithm=args.algorithm,
            deadline_ms=args.deadline_ms,
            **params,
        )
        elapsed = time.perf_counter() - start
        rate = batch.answered / elapsed if elapsed > 0 else float("inf")
        print(
            f"  round {round_index + 1}: {batch.answered} answered, "
            f"{len(batch.failed)} without community, {len(batch.errors)} errors, "
            f"{batch.cache_hits} cache hits, {elapsed:.4f}s ({rate:.1f} q/s)"
        )
        if args.deadline_ms is not None:
            rungs: dict = {}
            for rung in batch.algorithm_used.values():
                rungs[rung] = rungs.get(rung, 0) + 1
            missed = sum(1 for late in batch.deadline_missed.values() if late)
            print(
                f"    slo: rungs {rungs}, {missed} answers past the deadline"
            )
        for query, message in sorted(batch.errors.items()):
            print(f"    error vertex {query}: {message}", file=sys.stderr)
    for query in sorted(batch.results):
        result = batch.results[query]
        print(
            f"  vertex {graph.label_of(query)!s:>8}: {result.size} members, "
            f"radius {result.radius:.6f}"
        )
    stats = service.stats()
    print(
        f"cache          : {stats.cache.hits} hits, {stats.cache.misses} misses, "
        f"{stats.cache.invalidations} invalidations, {stats.cache.evictions} evictions"
    )
    print(
        f"engine         : {stats.engine.components_materialised} bundles built, "
        f"{stats.engine.core_decompositions} core decomposition(s)"
    )
    residency = engine.residency_info()
    budget = residency["max_resident_bytes"]
    budget_text = f"{budget / (1024 * 1024):g} MiB budget" if budget else "no budget"
    print(
        f"residency      : {residency['resident_bundles']} resident "
        f"({residency['resident_bytes'] / (1024 * 1024):.1f} MiB, {budget_text}), "
        f"{stats.engine.bundles_materialised} store-materialised, "
        f"{stats.engine.bundles_evicted} evicted, "
        f"{residency['pinned_dirty']} pinned dirty"
    )
    print(
        f"plan           : {stats.engine.batches_planned} batches planned, "
        f"{stats.engine.plan_groups} groups, "
        f"{stats.engine.queries_deduped} deduped, "
        f"{stats.engine.queries_factorised} factorised"
    )
    return 0 if batch.answered else 1


def _coordinator_server(args: argparse.Namespace):
    """``serve --role coordinator``: the tier's router and its start line."""
    from repro.replication import Coordinator, CoordinatorConfig

    if not args.writer_addr:
        raise InvalidParameterError(
            "--role coordinator requires --writer-addr HOST:PORT"
        )
    replicas = tuple(part.strip() for part in args.replicas.split(",") if part.strip())
    if args.max_staleness_lsn < 0:
        raise InvalidParameterError(
            f"--max-staleness-lsn must be non-negative, got {args.max_staleness_lsn}"
        )
    config = CoordinatorConfig(
        host=args.host,
        port=args.port,
        writer=args.writer_addr,
        replicas=replicas,
        max_staleness_lsn=args.max_staleness_lsn,
        health_interval_ms=args.health_interval_ms,
        max_body_bytes=args.max_body_bytes,
    )
    coordinator = Coordinator(config)
    return coordinator, lambda: (
        f"coordinating on {coordinator.url}: writer {config.writer}, "
        f"{len(replicas)} replica(s), max staleness {config.max_staleness_lsn} "
        f"LSN(s)"
    )


def _daemon_server(args: argparse.Namespace):
    """``serve --role single|writer|replica``: the daemon and its start line."""
    from repro.server import SACServer, ServerConfig
    from repro.service import SACService

    if args.role in ("writer", "replica") and not args.wal_dir:
        raise InvalidParameterError(f"--role {args.role} requires --wal-dir")
    if args.role == "replica" and args.static:
        raise InvalidParameterError(
            "--role replica needs an incremental engine to replay the WAL; "
            "drop --static"
        )

    engine_cls = QueryEngine if args.static else IncrementalEngine
    engine = _load_engine(args, engine_cls)
    service = SACService(engine=engine, use_cache=not args.no_cache)
    if args.store is not None:
        service.store_path = str(args.store)
    try:
        warm_ks = sorted({int(part) for part in args.warm_ks.split(",") if part.strip()})
    except ValueError:
        raise InvalidParameterError(
            f"--warm-ks must be comma-separated integers, got {args.warm_ks!r}"
        ) from None
    # A snapshot records the last WAL LSN folded into it; starting the log
    # (writer) or the replay cursor (replica) just past it is what makes
    # cold-start O(snapshot) instead of O(history).
    snapshot_lsn = 0
    if args.role in ("writer", "replica") and args.store is not None:
        from repro.store import ArtifactStore

        snapshot_lsn = ArtifactStore.open(args.store).lsn
    config = ServerConfig(
        host=args.host,
        port=args.port,
        max_batch_size=args.max_batch,
        max_body_bytes=args.max_body_bytes,
        max_batch_queries=args.max_batch_queries,
        warm_ks=warm_ks,
        snapshot_path=args.snapshot_to,
        slo_enabled=args.slo,
        default_deadline_ms=args.default_deadline_ms,
        max_queue_depth=args.max_queue_depth,
        retry_after_seconds=args.retry_after_seconds,
        wal_dir=args.wal_dir if args.role in ("writer", "replica") else None,
        wal_fsync=args.wal_fsync,
        snapshot_lsn=snapshot_lsn,
        poll_timeout_ms=args.poll_timeout_ms,
        subscription_backlog=args.subscription_backlog,
        # Only 0 means "no idle GC"; the config refuses other unusable values.
        subscription_idle_seconds=(
            None if args.subscription_idle_seconds == 0 else args.subscription_idle_seconds
        ),
    )
    if args.role == "replica":
        from repro.replication import ReplicaServer

        server = ReplicaServer(
            service,
            config,
            writer_url=args.writer_url,
            poll_interval_ms=args.poll_interval_ms,
        )
    else:
        server = SACServer(service, config)
    role = f", role {server.role}" if server.role != "single" else ""
    return server, lambda: (
        f"serving {engine.graph.num_vertices} vertices on {server.url} "
        f"(micro-batch <= {config.max_batch_size}{role})"
    )


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio

    if args.role == "coordinator":
        server, start_line = _coordinator_server(args)
    else:
        server, start_line = _daemon_server(args)

    async def _run() -> None:
        await server.start()
        print(start_line(), flush=True)
        await server.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - signal path exercised in CI
        pass
    print("server stopped", flush=True)
    return 0


def _command_track(args: argparse.Namespace) -> int:
    import time

    from repro.datasets.geosocial import CheckinGenerator, TravelProfile
    from repro.dynamic.evaluation import select_mobile_queries
    from repro.dynamic.stream import LocationStream
    from repro.dynamic.tracker import SACTracker
    from repro.graph.io import Checkin, read_checkins

    engine = _load_engine(args, IncrementalEngine) if args.store else None
    if engine is not None:
        graph = engine.graph
    else:
        graph = load_graph_npz(args.graph) if args.graph else None
        if graph is None:
            raise InvalidParameterError(
                "pass a graph .npz file or --store SNAPSHOT_DIR"
            )
    generator = CheckinGenerator(graph, TravelProfile(), seed=args.seed)
    if args.checkins:
        # Check-in files identify users by their graph label (like every
        # other CLI surface); the stream machinery addresses vertices by
        # internal index, so translate here.  Unknown labels exit 2.
        checkins = [
            Checkin(
                user=graph.index_of(record.user),
                timestamp=record.timestamp,
                x=record.x,
                y=record.y,
            )
            for record in read_checkins(args.checkins)
        ]
    else:
        emitters = list(range(min(graph.num_vertices, args.generate_users)))
        checkins = generator.generate(
            emitters,
            checkins_per_user=args.checkins_per_user,
            duration_days=args.duration_days,
        )
    if not checkins:
        raise InvalidParameterError("the check-in stream is empty")

    if args.users:
        labels = dict.fromkeys(_parse_label(part) for part in args.users.split(","))
        tracked = [graph.index_of(label) for label in labels]
    else:
        travel = generator.total_travel_distance(checkins)
        tracked = select_mobile_queries(
            graph, checkins, travel, count=args.track_count, min_friends=args.min_friends
        )
        if not tracked:
            raise InvalidParameterError(
                f"no check-in users with at least {args.min_friends} friends; "
                "lower --min-friends or pass --users"
            )

    tracker = SACTracker(
        LocationStream(graph, checkins),
        args.k,
        algorithm=args.algorithm,
        algorithm_params=_algorithm_params(args),
        engine=engine,
    )
    start = time.perf_counter()
    timelines = tracker.track(tracked)
    elapsed = time.perf_counter() - start

    total_queries = sum(len(snapshots) for snapshots in timelines.values())
    print(f"algorithm      : {args.algorithm} (k={args.k}, incremental)")
    print(f"check-ins      : {len(checkins)} replayed, {total_queries} tracked queries")
    print(f"total time     : {elapsed:.4f}s")
    if elapsed > 0:
        print(f"replay rate    : {len(checkins) / elapsed:.1f} check-ins/s")
    stats = tracker.last_engine.stats
    print(
        f"engine         : {stats.bundles_patched} bundle patches, "
        f"{stats.components_materialised} bundles built, "
        f"{stats.core_decompositions} core decomposition(s)"
    )
    for user in sorted(timelines):
        snapshots = timelines[user]
        found = [snap for snap in snapshots if snap.found]
        sizes = ", ".join(str(len(snap.members)) for snap in snapshots) or "-"
        print(
            f"  user {graph.label_of(user)!s:>8}: {len(snapshots)} check-ins, "
            f"{len(found)} with a community (sizes: {sizes})"
        )
    return 0 if total_queries else 1


def _parse_label(text: str):
    """Interpret a CLI vertex label: integer when possible, else the raw string."""
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        return text


def _command_stats(args: argparse.Namespace) -> int:
    graph = load_graph_npz(args.graph)
    summary = summarize(graph)
    for key, value in summary.as_row().items():
        print(f"{key:12s}: {value}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _command_generate,
        "query": _command_query,
        "batch": _command_batch,
        "snapshot": _command_snapshot,
        "serve": _command_serve,
        "track": _command_track,
        "stats": _command_stats,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in examples
    sys.exit(main())
