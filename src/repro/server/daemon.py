"""The long-lived SAC serving daemon: micro-batched queries over one service.

:class:`SACServer` turns the :class:`repro.service.SACService` facade into a
network server.  These ideas organise it:

* **Micro-batching** — concurrent ``POST /query`` requests are not executed
  one by one: each query joins a pending group keyed by
  ``(k, algorithm, params)``, and the group is dispatched as ONE
  :meth:`~repro.service.SACService.submit_batch` call as soon as the writer
  is free — at once when it is idle, else right after the job in flight —
  or when it reaches ``max_batch_size``.  As in a group commit, the
  writer's busy time is the batching window: no query waits on a timer,
  and queries coalesce exactly when work queues.  The batch then flows
  through the serving layer unchanged (artifact sharing, the batch plan,
  the answer cache), exactly as it serves library callers.
* **A single writer** — every piece of engine work (batch execution *and*
  :class:`~repro.engine.IncrementalEngine` mutations) funnels through one
  FIFO job queue drained by one task onto one engine thread.  Mutations
  first flush the pending micro-batches, so the daemon's answers are
  bit-identical to applying the same request sequence serially in arrival
  order: queries received before a check-in are answered against the
  pre-mutation graph, queries received after against the post-mutation
  graph, and the engine's component-version counters invalidate exactly
  the cached answers the mutation could have changed.
* **Cache hits on the event loop** — while no job that can change an
  answer (anything but a read batch) is queued or running, a best-effort
  ``/query`` whose answer the cache holds fresh is answered on the event
  loop with no engine job, so a hit never waits behind a miss.  A hit that
  arrives behind a mutation takes the engine path and sees it.
* **SLO serving** — a request carrying ``deadline_ms`` (or a server-wide
  ``--default-deadline-ms``) rides the **deadline lane**: its micro-batch
  group jumps ahead of queued best-effort batches (never ahead of
  mutations — the write barrier stays a fence, so bit-identity to
  arrival-order replay is preserved: reads commute with reads), and the
  service answers it through the calibrated algorithm ladder
  (:mod:`repro.service.slo`), shedding to faster rungs as the budget
  drains.  Every answer reports ``algorithm_used``, its approximation
  ``bound``, and ``deadline_missed``.  **Admission control** backs the
  lanes: each lane admits at most ``max_queue_depth`` unanswered queries
  and refuses the rest with ``429`` + ``Retry-After`` — so overload sheds
  quality first (the ladder), then admission, and never latency-by-hanging.
* **Standing queries** — ``POST /subscribe`` registers a continuous query
  ``(vertex, k, algorithm, params)`` with the
  :class:`repro.service.subscriptions.SubscriptionRegistry`; after every
  mutation clears the write barrier the registry re-evaluates exactly the
  subscriptions whose component version moved and queues a delta per
  changed answer.  Clients collect deltas by long-polling
  ``GET /subscribe`` (a poll parks up to ``poll_timeout_ms``), with bounded
  per-subscription backlogs that overflow to a full-snapshot resync
  instead of dropping updates silently.
* **Operability** — warm start from an :class:`repro.store.ArtifactStore`
  snapshot (``SACService.open``), snapshot-to-store on ``SIGUSR1`` and on
  shutdown, graceful drain (pending queries are flushed and answered, the
  queue runs dry) on ``SIGTERM``/``SIGINT``, and per-endpoint
  latency/throughput counters surfaced by ``GET /stats``.

The wire protocol is plain JSON over HTTP/1.1 (:mod:`repro.server.http`);
``repro-sac serve`` is the CLI front end and
:class:`repro.server.client.SACClient` the stdlib client.  See
``docs/serving.md`` for the operator guide.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import signal
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Awaitable, Callable, Dict, List, Optional, Sequence, Tuple, Union
from urllib.parse import parse_qs

from repro.core.searcher import ALGORITHMS
from repro.engine import IncrementalEngine
from repro.exceptions import InvalidParameterError, ReproError
from repro.server.http import (
    ConnectionClosed,
    HttpError,
    Request,
    error_payload,
    read_request,
    write_response,
)
from repro.service import SACService
from repro.service.subscriptions import SubscriptionRegistry
from repro.service.results import BatchResult
from repro.store.wal import WalCursor, WriteAheadLog
from repro.service.slo import (
    DEFAULT_CEILING,
    algorithm_parameter_names as _algorithm_parameter_names,
    approximation_bound,
    ladder_from,
    params_for,
)

#: The two admission lanes: deadline-carrying traffic vs best-effort.
LANE_DEADLINE = "deadline"
LANE_BESTEFFORT = "besteffort"

#: Pending micro-batch group key: (k, algorithm, canonicalised params, lane).
#: Deadline traffic never coalesces with best-effort traffic — the lanes
#: have different flush urgency and different ``submit_batch`` arguments.
BatchKey = Tuple[int, str, Tuple[Tuple[str, float], ...], str]

#: A handler returns (HTTP status, JSON payload).
Handler = Callable[[Request], Awaitable[Tuple[int, dict]]]


def _is_finite(value: object) -> bool:
    """Whether ``value`` is a finite int or float (``bool`` excluded)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an int beyond float range
            return math.isfinite(value)
    return False


def _finite_number(value: object, name: str) -> float:
    """``value`` as a finite float, or a 400 naming the request field.

    Python's JSON decoder accepts ``NaN`` and ``Infinity``; a non-finite
    number would corrupt engine state or echo back into a response body
    that is not valid JSON, so every numeric request field passes here.
    """
    if _is_finite(value):
        return float(value)
    raise HttpError(400, f"{name!r} must be a finite number, got {value!r}")


@dataclass
class ServerConfig:
    """Tunables of one :class:`SACServer`.

    Attributes
    ----------
    host / port:
        Listen address.  ``port=0`` binds an ephemeral port (the bound port
        is available as :attr:`SACServer.port` after :meth:`SACServer.start`
        — how the tests and the benchmark run without port collisions).
    max_batch_size:
        Micro-batch flush threshold: a pending group reaching this many
        queries is dispatched immediately, even while the writer is busy.
    max_body_bytes:
        Request bodies larger than this are refused with ``413``.
    max_batch_queries:
        ``POST /batch`` requests naming more vertices than this are refused
        with ``413`` (one oversized batch would monopolise the writer).
    warm_ks:
        Degree thresholds whose labellings are prepared at start-up, so the
        first query does not pay the cold labelling.
    snapshot_path:
        Where ``SIGUSR1`` and shutdown snapshot the engine
        (:meth:`repro.service.SACService.save`); ``None`` disables both.
    drain_timeout_seconds:
        How long :meth:`SACServer.stop` waits for in-flight requests to
        complete before closing their connections anyway.
    slo_enabled:
        Calibrate the service's SLO cost model at start-up for every warmed
        ``k`` (the CLI's ``--slo``), so the first deadline-carrying request
        never pays for probe queries.  Per-request ``deadline_ms`` is
        honoured either way — this knob only moves the calibration cost.
    default_deadline_ms:
        Deadline applied to ``/query`` and ``/batch`` requests that do not
        carry their own ``deadline_ms``; ``None`` (the default) leaves such
        requests on the best-effort explicit-algorithm path.
    max_queue_depth:
        Admission limit per lane: at most this many admitted-but-unanswered
        queries may be queued per lane before further requests are refused
        with ``429`` + ``Retry-After``.  One request needing more than this
        many slots (a large ``/batch``) is refused with ``413``.
    retry_after_seconds:
        The ``Retry-After`` delay advertised on 429 responses.  HTTP's
        ``Retry-After`` header is integer-valued (RFC 9110 §10.2.3), so the
        advertised delay is ``ceil`` of this value with a floor of one
        second — a sub-second configuration still advertises ``1``.  The
        JSON payload's ``retry_after`` field always equals the header.
    wal_dir:
        Directory of the mutation write-ahead log
        (:class:`repro.store.WriteAheadLog`).  Setting it makes this daemon
        the replication tier's **writer**: every applied ``checkin``/``edge``
        is appended as one WAL record (its LSN is returned in the mutation
        response), snapshots are stamped with the covered LSN, and
        ``POST /compact`` rolls the log into a fresh snapshot.  ``None``
        (the default) serves standalone with no log.
    wal_fsync:
        ``fsync`` the WAL after every append (machine-crash durability) at
        a heavy per-mutation cost; the default flushes to the OS only.
    snapshot_lsn:
        The WAL LSN the serving engine's state already covers — the opened
        snapshot's :attr:`repro.store.ArtifactStore.lsn`.  On start the
        writer replays any retained WAL records beyond it before accepting
        traffic, so a restart resumes exactly at the last durable LSN.
    poll_timeout_ms:
        Upper bound on how long one ``GET /subscribe`` long-poll parks
        before answering with an empty delta list (a request may ask for
        less via ``timeout_ms``, never more).
    subscription_backlog:
        Per-subscription delta-queue bound.  A consumer that falls further
        behind has its queue dropped and receives one full-snapshot
        ``resync`` message on its next poll instead (overflow-to-resync).
    subscription_idle_seconds:
        Subscriptions with no poll contact for this long are expired
        at the next mutation.  Keep it above ``poll_timeout_ms`` (a parked
        poller only counts as contact when its poll arrives); ``None``
        disables idle GC, and any other value must be finite and above 0.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    max_batch_size: int = 32
    max_body_bytes: int = 1 << 20
    max_batch_queries: int = 1024
    warm_ks: Sequence[int] = ()
    snapshot_path: Optional[str] = None
    drain_timeout_seconds: float = 10.0
    slo_enabled: bool = False
    default_deadline_ms: Optional[float] = None
    max_queue_depth: int = 1024
    retry_after_seconds: float = 1.0
    wal_dir: Optional[str] = None
    wal_fsync: bool = False
    snapshot_lsn: int = 0
    poll_timeout_ms: float = 30000.0
    subscription_backlog: int = 64
    subscription_idle_seconds: Optional[float] = 300.0

    def __post_init__(self) -> None:
        """Refuse settings that would turn all traffic away or crash a start.

        Counts and byte limits must be integers of at least 1, the waits
        finite and non-negative, and a default deadline or a subscription
        idle limit, when set, finite and positive.
        """
        for name in (
            "max_batch_size",
            "max_batch_queries",
            "max_queue_depth",
            "max_body_bytes",
            "subscription_backlog",
        ):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise InvalidParameterError(
                    f"{name} must be an integer of at least 1, got {value!r}"
                )
        for name in ("poll_timeout_ms", "retry_after_seconds", "drain_timeout_seconds"):
            value = getattr(self, name)
            if not (_is_finite(value) and value >= 0):
                raise InvalidParameterError(
                    f"{name} must be a finite number of at least 0, got {value!r}"
                )
        for name in ("default_deadline_ms", "subscription_idle_seconds"):
            value = getattr(self, name)
            if value is not None and not (_is_finite(value) and value > 0):
                raise InvalidParameterError(
                    f"{name} must be None or a finite number above 0, got {value!r}"
                )


@dataclass
class EndpointStats:
    """Latency/throughput counters of one endpoint.

    ``seconds_total / requests`` is the mean handler latency (micro-batched
    queries include their wait for the writer, so the mean reflects what
    the client experienced, not just compute).
    """

    requests: int = 0
    errors: int = 0
    seconds_total: float = 0.0
    seconds_max: float = 0.0

    def record(self, seconds: float, *, error: bool) -> None:
        """Fold one handled request into the counters."""
        self.requests += 1
        if error:
            self.errors += 1
        self.seconds_total += seconds
        self.seconds_max = max(self.seconds_max, seconds)

    def as_dict(self) -> dict:
        """JSON view with derived mean latency."""
        mean_ms = 1000.0 * self.seconds_total / self.requests if self.requests else 0.0
        return {
            "requests": self.requests,
            "errors": self.errors,
            "mean_latency_ms": round(mean_ms, 3),
            "max_latency_ms": round(self.seconds_max * 1000.0, 3),
        }


@dataclass
class BatcherStats:
    """Micro-batching effectiveness counters.

    ``queries_coalesced / batches_dispatched`` is the realised mean batch
    size — the amortisation factor the micro-batcher achieved.  The
    ``flushes_*`` split says *why* batches closed: ``size`` flushes mean the
    server is saturated (raise ``max_batch_size``), ``idle`` flushes count
    groups sent because the writer was free (on arrival, or right after the
    job in flight), ``mutation`` flushes count write-barrier flushes, and
    ``drain`` flushes happen only at shutdown.  ``queries_deduped`` counts
    coalesced queries that repeated a vertex already pending in the same
    group — the occurrences the batch plan answers by fan-out instead of
    recomputation (the engine-side twin is
    ``EngineStats.queries_deduped``).  ``cache_hits_on_loop`` counts
    best-effort queries answered from the answer cache on the event loop;
    they join no group, take no admission slot, and are counted in no other
    field here.
    """

    queries_coalesced: int = 0
    batches_dispatched: int = 0
    largest_batch: int = 0
    queries_deduped: int = 0
    flushes_size: int = 0
    flushes_idle: int = 0
    flushes_mutation: int = 0
    flushes_drain: int = 0
    queries_deadline: int = 0
    queries_besteffort: int = 0
    rejected_deadline: int = 0
    rejected_besteffort: int = 0
    cache_hits_on_loop: int = 0


@dataclass
class _PendingQuery:
    """One in-flight ``/query`` waiting for its micro-batch to execute."""

    vertex: int
    future: "asyncio.Future[BatchResult]"
    deadline_ms: Optional[float] = None
    arrived: float = 0.0


@dataclass
class _Job:
    """One unit of engine work in the writer queue."""

    kind: str  # "batch" | "mutate" | "snapshot"
    run: Callable[[], object]
    entries: List[_PendingQuery] = field(default_factory=list)
    future: Optional["asyncio.Future[object]"] = None
    urgent: bool = False


class _JobQueue:
    """Single-consumer FIFO job queue with a deadline fast lane and fences.

    Drop-in for the ``asyncio.Queue`` subset the writer uses
    (``put_nowait`` / ``get`` / ``task_done`` / ``join``), plus ``idle``,
    ``fenced`` and one twist: a job enqueued with ``urgent=True`` is
    inserted ahead of the queued **best-effort batch** jobs but never ahead
    of another urgent job (deadline traffic stays FIFO among itself) and
    never ahead of a ``mutate`` / ``snapshot`` job.  Every job that is not a
    read batch is a fence: reads may be reordered among reads between two
    fences without changing any answer (they don't mutate the graph), so the
    daemon's bit-identity-to-arrival-order guarantee survives the fast lane
    — and survives a cache hit answered on the event loop while no fence is
    queued or running (:meth:`fenced`).
    """

    def __init__(self) -> None:
        from collections import deque

        self._jobs: "deque[_Job]" = deque()
        self._not_empty = asyncio.Event()
        self._all_done = asyncio.Event()
        self._all_done.set()
        self._unfinished = 0
        # Fences queued or running: +1 at enqueue, -1 once the writer has
        # finished the job, whatever became of the request that asked.
        self._fences = 0

    def put_nowait(self, job: _Job, *, urgent: bool = False) -> None:
        """Enqueue ``job``; ``urgent`` jobs overtake queued best-effort batches."""
        job.urgent = bool(urgent)
        if job.urgent:
            index = len(self._jobs)
            while index > 0:
                ahead = self._jobs[index - 1]
                if ahead.kind == "batch" and not ahead.urgent:
                    index -= 1
                else:
                    break
            self._jobs.insert(index, job)
        else:
            self._jobs.append(job)
        if job.kind != "batch":
            self._fences += 1
        self._unfinished += 1
        self._all_done.clear()
        self._not_empty.set()

    async def get(self) -> _Job:
        """Dequeue the next job (single consumer)."""
        while not self._jobs:
            self._not_empty.clear()
            await self._not_empty.wait()
        return self._jobs.popleft()

    def task_done(self, job: _Job) -> None:
        """Mark dequeued ``job`` finished (for :meth:`join`), lifting its fence."""
        if job.kind != "batch":
            self._fences -= 1
        self._unfinished -= 1
        if self._unfinished <= 0:
            self._all_done.set()

    async def join(self) -> None:
        """Wait until every enqueued job has been marked done."""
        await self._all_done.wait()

    def idle(self) -> bool:
        """Whether no job is queued or running (every job marked done)."""
        return self._unfinished == 0

    def fenced(self) -> bool:
        """Whether a job that can change an answer is queued or running."""
        return self._fences > 0


class HttpServer:
    """The listener every server here runs on: bind, keep-alive loop, signals, stop.

    A subclass answers requests in :meth:`_dispatch`, prepares its own
    state in :meth:`start` before calling ``super().start()`` (which binds
    the listen socket), and finishes its in-flight work in :meth:`_drain`.
    :class:`SACServer`, :class:`repro.replication.ReplicaServer` and
    :class:`repro.replication.Coordinator` all run on it, so
    :func:`start_in_thread` and ``repro-sac serve`` run any of them.

    ``config`` needs ``host``, ``port`` and ``max_body_bytes``.  Every
    asyncio primitive is created in :meth:`start`, so a server can be built
    outside the event loop that later runs it.
    """

    def __init__(self, config) -> None:
        self.config = config
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        self._draining = False
        self._stopped: Optional[asyncio.Event] = None

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._server is None:
            return self.config.port
        return self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        """Base URL of the listening server."""
        return f"http://{self.config.host}:{self.port}"

    async def start(self) -> None:
        """Bind the listen socket."""
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connection, host=self.config.host, port=self.config.port
        )

    def _signal_actions(self) -> List[Tuple[int, Callable[[], Awaitable[object]]]]:
        """The ``(signal, coroutine function)`` pairs :meth:`serve_forever` installs."""
        return [(signal.SIGTERM, self.stop), (signal.SIGINT, self.stop)]

    async def serve_forever(self) -> None:
        """Run until :meth:`stop` — the CLI entry point installs signals here.

        ``SIGTERM``/``SIGINT`` trigger a graceful drain-and-stop; subclasses
        add signals through :meth:`_signal_actions`.
        """
        if self._server is None:
            await self.start()
        loop = asyncio.get_running_loop()
        for signum, action in self._signal_actions():
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(
                    signum, lambda action=action: loop.create_task(action())
                )
        await self._stopped.wait()

    async def stop(self) -> None:
        """Stop accepting, let :meth:`_drain` finish the work, close connections."""
        if self._draining:
            await self._stopped.wait()
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._drain()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._stopped.set()

    async def _drain(self) -> None:
        """Finish in-flight work after the listener closed (subclass hook)."""

    async def wait_stopped(self) -> None:
        """Block until :meth:`stop` has completed."""
        await self._stopped.wait()

    async def _dispatch(self, request: Request) -> Tuple[int, Union[dict, bytes], Dict[str, str]]:
        """Answer one request: ``(status, payload, extra response headers)``.

        ``payload`` is a JSON object, or a ``bytes`` body that is already
        JSON.  Exceptions must not escape: the connection outlives them.
        """
        raise NotImplementedError

    def _unencodable(self, request: Request, status: int) -> None:
        """Note that the ``status`` answer to ``request`` became a 500 (subclass hook).

        Called by the connection loop when ``json`` refuses the payload
        :meth:`_dispatch` returned, so the failure path alone pays for it.
        """

    async def _on_connection(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            await self._connection_loop(reader, writer)
        except asyncio.CancelledError:
            pass
        except (ConnectionError, TimeoutError):
            pass
        finally:
            self._connections.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _connection_loop(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        """Serve one keep-alive connection until EOF, error, or drain.

        ``read_request`` and ``write_response`` are looked up as this
        module's globals on every call, so a tracer that rebinds them sees
        every request of every server kind.
        """
        while True:
            try:
                request = await read_request(reader, max_body_bytes=self.config.max_body_bytes)
            except ConnectionClosed:
                return
            except HttpError as error:
                # Framing is broken (or the body was refused): answer and
                # close — the stream position can no longer be trusted.
                with contextlib.suppress(ConnectionError):
                    await write_response(
                        writer, *error_payload(error.status, error.message), keep_alive=False
                    )
                return
            status, payload, headers = await self._dispatch(request)
            if not isinstance(payload, bytes):
                # Encoded before writing: a payload json refuses (a label it
                # cannot encode) is answered with a 500, and the connection
                # lives on.
                try:
                    payload = json.dumps(payload).encode("utf-8")
                except (TypeError, ValueError) as error:
                    print(
                        f"server: cannot encode the response to {request.method} "
                        f"{request.path}: {error!r}",
                        file=sys.stderr,
                    )
                    self._unencodable(request, status)
                    status, payload = error_payload(500, "internal server error")
                    headers = {}
            keep_alive = request.keep_alive and not self._draining
            try:
                await write_response(
                    writer,
                    status,
                    payload,
                    keep_alive=keep_alive,
                    extra_headers=headers or None,
                )
            except ConnectionError:
                return
            if not keep_alive:
                return


class SACServer(HttpServer):
    """Serve SAC queries, batches, and mutations over asyncio streams.

    Parameters
    ----------
    service:
        The :class:`~repro.service.SACService` to serve.  Bind it to an
        :class:`~repro.engine.IncrementalEngine` (the default of
        ``SACService.open``) for ``/checkin`` and ``/edge`` to work; a
        static engine serves queries and answers mutations with ``400``.
    config:
        A :class:`ServerConfig`; defaults throughout.
    clock:
        The **monotonic** time source (seconds, arbitrary epoch) every
        deadline, arrival stamp, latency counter, and uptime figure is
        measured on; defaults to :func:`time.perf_counter`.  The daemon
        never consults the wall clock — an NTP step cannot flag in-flight
        queries late (or launder genuinely late ones).  Tests inject a
        stepped fake clock here.

    Examples
    --------
    >>> server = SACServer(SACService(engine=engine), ServerConfig(port=0))  # doctest: +SKIP
    >>> await server.start()                                                 # doctest: +SKIP
    >>> print(server.port)                                                   # doctest: +SKIP
    """

    def __init__(
        self,
        service: SACService,
        config: Optional[ServerConfig] = None,
        *,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        super().__init__(config or ServerConfig())
        self.service = service
        self.endpoint_stats: Dict[str, EndpointStats] = {}
        self.batcher_stats = BatcherStats()
        # All timing below runs on this one monotonic clock — deadlines,
        # arrival stamps, latencies, uptime.  time.time() is deliberately
        # absent from this module: wall-clock steps must not move deadlines.
        self._clock: Callable[[], float] = clock or time.perf_counter
        self._monotonic_start = self._clock()
        self._wal: Optional[WriteAheadLog] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        # The asyncio primitives are created inside start() so construction
        # never touches an event loop (Python 3.9 binds them at creation).
        self._jobs: Optional[_JobQueue] = None
        self._writer_task: Optional[asyncio.Task] = None
        self._pending: Dict[BatchKey, List[_PendingQuery]] = {}
        # Admitted-but-unanswered query occurrences per lane — the depth the
        # admission controller compares against max_queue_depth.
        self._lane_pending: Dict[str, int] = {LANE_DEADLINE: 0, LANE_BESTEFFORT: 0}
        self._inflight = 0
        self._idle: Optional[asyncio.Event] = None
        self._engine_thread = None  # created lazily inside the loop
        # Standing queries: the registry re-evaluates on the engine thread
        # (inside the write barrier); pollers park on per-subscription
        # events and are woken via call_soon_threadsafe.
        self.subscriptions = SubscriptionRegistry(
            service,
            backlog=self.config.subscription_backlog,
            idle_seconds=self.config.subscription_idle_seconds,
            clock=self._clock,
        )
        self._sub_events: Dict[str, asyncio.Event] = {}
        self._parked = 0
        self._routes: Dict[Tuple[str, str], Handler] = {
            ("POST", "/query"): self._handle_query,
            ("POST", "/batch"): self._handle_batch,
            ("POST", "/checkin"): self._handle_checkin,
            ("POST", "/edge"): self._handle_edge,
            ("POST", "/compact"): self._handle_compact,
            ("POST", "/subscribe"): self._handle_subscribe,
            ("GET", "/subscribe"): self._handle_subscribe_poll,
            ("POST", "/unsubscribe"): self._handle_unsubscribe,
            ("GET", "/stats"): self._handle_stats,
            ("GET", "/healthz"): self._handle_healthz,
        }

    # --------------------------------------------------------------- replication
    @property
    def role(self) -> str:
        """This daemon's replication role: ``writer`` or ``single``.

        ``writer`` when a WAL is configured (mutations are logged for
        replicas to replay); ``single`` when serving standalone.
        :class:`repro.replication.ReplicaServer` overrides with ``replica``.
        """
        return "writer" if self.config.wal_dir is not None else "single"

    @property
    def durable_lsn(self) -> Optional[int]:
        """Last WAL LSN this daemon has made durable (``None`` without a WAL)."""
        return self._wal.last_lsn if self._wal is not None else None

    @property
    def applied_lsn(self) -> Optional[int]:
        """Last WAL LSN applied to the serving engine.

        On the writer this equals :attr:`durable_lsn` (a mutation is logged
        in the same serialised job that applies it); replicas lag it by
        their replay position.
        """
        return self.durable_lsn

    @property
    def _state_lsn(self) -> Optional[int]:
        """LSN the engine's state reflects right now (read on the engine thread).

        Stamps subscription deltas.  Equal to :attr:`applied_lsn` on the
        writer; a replica publishes :attr:`applied_lsn` only after the
        replay job that reached this LSN has re-evaluated its subscriptions.
        """
        return self.applied_lsn

    def _wal_append(self, record: dict) -> Optional[int]:
        """Append one mutation record to the WAL; its LSN, or None without a WAL.

        Called on the engine thread inside the same serialised job that
        applied the mutation, so WAL order is exactly apply order.
        """
        if self._wal is None:
            return None
        return self._wal.append(record)

    # ---------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Start the writer task, warm the engine, then bind the listen socket."""
        from concurrent.futures import ThreadPoolExecutor

        self._loop = asyncio.get_running_loop()
        self._jobs = _JobQueue()
        self._idle = asyncio.Event()
        self._idle.set()
        # ONE engine thread: every submit_batch/mutation/snapshot runs here,
        # serialised by the writer task, so the engine and its caches change
        # on this thread only.  The event loop reads them too, between
        # fences, to answer cache hits (_handle_query); the answer cache is
        # locked for that.
        self._engine_thread = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="sac-engine"
        )
        if self.config.wal_dir is not None and self.role == "writer":
            # Writer recovery: reopen the log (truncating any torn tail),
            # then replay every retained record beyond the snapshot the
            # engine was warm-started from — a restarted writer resumes at
            # the last durable LSN with state identical to never crashing.
            # (ReplicaServer overrides role: replicas tail the same wal_dir
            # with a read-only cursor and never open the append handle.)
            self._wal = WriteAheadLog(
                self.config.wal_dir,
                start_lsn=self.config.snapshot_lsn + 1,
                fsync=self.config.wal_fsync,
            )
            cursor = WalCursor(self.config.wal_dir, start_lsn=self.config.snapshot_lsn + 1)
            replayed = await self._loop.run_in_executor(
                self._engine_thread, self._replay, cursor
            )
            if replayed:
                print(
                    f"server: replayed {replayed} WAL records "
                    f"(engine now at lsn {self._wal.last_lsn})",
                    file=sys.stderr,
                )
        for k in self.config.warm_ks:
            await self._loop.run_in_executor(self._engine_thread, self.service.warm, int(k))
            if self.config.slo_enabled:
                await self._loop.run_in_executor(
                    self._engine_thread, self.service.calibrate_slo, int(k)
                )
        self._writer_task = self._loop.create_task(self._writer_loop())
        await super().start()

    def _replay(self, cursor: WalCursor, records: Sequence[dict] = ()) -> int:
        """Apply ``records``, then every complete WAL record ``cursor`` can read now; the count.

        Runs on the engine thread, in LSN order.  The writer replays the
        log beyond its snapshot at start; a replica replays each poll's news
        (``records``, already read from ``cursor``) inside one write-barrier
        job.
        """
        replayed = 0
        while True:
            for record in records:
                self.service.apply_record(record)
            replayed += len(records)
            records = cursor.poll(max_records=256)
            if not records:
                return replayed

    def _signal_actions(self) -> List[Tuple[int, Callable[[], Awaitable[object]]]]:
        """Adds ``SIGUSR1``: snapshot to ``config.snapshot_path`` without stopping."""
        actions = super()._signal_actions()
        if hasattr(signal, "SIGUSR1"):
            actions.append((signal.SIGUSR1, self.request_snapshot))
        return actions

    async def request_snapshot(self) -> bool:
        """Enqueue a snapshot job (serialised with mutations); False if unconfigured."""
        if self.config.snapshot_path is None:
            print("server: SIGUSR1 received but no --snapshot-to path is configured", file=sys.stderr)
            return False
        future: "asyncio.Future[object]" = self._loop.create_future()
        path = self.config.snapshot_path
        self._jobs.put_nowait(
            _Job(kind="snapshot", run=lambda: self._save_snapshot(path), future=future)
        )
        await future
        return True

    def _save_snapshot(self, path: str) -> None:
        """Snapshot the engine, stamping the covered WAL LSN when logging.

        Runs on the engine thread inside a serialised job, so the WAL's
        ``last_lsn`` at this instant is exactly the set of applied mutations
        the snapshot captures.
        """
        lsn = self._wal.last_lsn if self._wal is not None else None
        self.service.save(path, lsn=lsn)

    async def _drain(self) -> None:
        """Answer everything in flight and release the engine.

        Runs between :meth:`stop` closing the listener and cancelling the
        connections still open: flush every pending micro-batch, let the
        writer queue run dry, wait (bounded) for open requests to finish,
        snapshot if configured, stop the engine thread.
        """
        # Wake every parked subscription poller first: they observe
        # _draining, answer with a final drain message, and release their
        # in-flight slot — otherwise the idle wait below would stall on
        # connections that are parked, not working.
        self._release_pollers()
        self._flush_all(reason="drain")
        await self._jobs.join()
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(self._idle.wait(), self.config.drain_timeout_seconds)
        if self.config.snapshot_path is not None:
            await self._loop.run_in_executor(
                self._engine_thread, self._save_snapshot, self.config.snapshot_path
            )
        if self._writer_task is not None:
            self._writer_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._writer_task
        self._engine_thread.shutdown(wait=True)
        if self._wal is not None:
            self._wal.close()

    # ----------------------------------------------------------------- routing
    async def _dispatch(self, request: Request) -> Tuple[int, dict, Dict[str, str]]:
        """Route one request, tracking per-endpoint latency and errors.

        Returns ``(status, payload, extra response headers)`` — the headers
        carry ``Retry-After`` on admission-control 429s.
        """
        headers: Dict[str, str] = {}
        handler = self._routes.get((request.method, request.path))
        if handler is None:
            if any(path == request.path for _, path in self._routes):
                return (
                    *error_payload(405, f"method {request.method} not allowed on {request.path}"),
                    headers,
                )
            return (*error_payload(404, f"no such endpoint: {request.path}"), headers)
        if self._draining and request.method != "GET":
            return (*error_payload(503, "server is draining"), headers)
        name = f"{request.method} {request.path}"
        stats = self.endpoint_stats.setdefault(name, EndpointStats())
        start = self._clock()
        self._inflight += 1
        self._idle.clear()
        try:
            status, payload = await handler(request)
        except HttpError as error:
            status, payload = error_payload(error.status, error.message)
            headers = dict(error.headers)
            if "Retry-After" in headers:
                # The header is the source of truth: HTTP Retry-After is
                # integer-valued, and the JSON payload must agree with what
                # the header actually advertised (not the raw float config).
                payload["retry_after"] = int(headers["Retry-After"])
        except ReproError as error:
            status, payload = error_payload(400, str(error))
        except Exception as error:  # noqa: BLE001 - the connection must survive
            print(f"server: internal error handling {name}: {error!r}", file=sys.stderr)
            status, payload = error_payload(500, "internal server error")
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()
        stats.record(self._clock() - start, error=status >= 400)
        return status, payload, headers

    def _unencodable(self, request: Request, status: int) -> None:
        """Count an answer the encoder refused as an error of its endpoint.

        :meth:`_dispatch` recorded the request before the connection loop
        encoded it, as a success when ``status`` was below 400.
        """
        stats = self.endpoint_stats.get(f"{request.method} {request.path}")
        if stats is not None and status < 400:
            stats.errors += 1

    # ------------------------------------------------------------ micro-batching
    def _flush(self, key: BatchKey, reason: str) -> None:
        """Dispatch one pending group to the writer queue (synchronous)."""
        entries = self._pending.pop(key, None)
        if not entries:
            return
        stats = self.batcher_stats
        stats.batches_dispatched += 1
        stats.queries_coalesced += len(entries)
        stats.largest_batch = max(stats.largest_batch, len(entries))
        stats.queries_deduped += len(entries) - len({entry.vertex for entry in entries})
        setattr(stats, f"flushes_{reason}", getattr(stats, f"flushes_{reason}") + 1)
        k, algorithm, params, lane = key
        deadlines = (
            [(entry.deadline_ms, entry.arrived) for entry in entries]
            if lane == LANE_DEADLINE
            else None
        )
        run = self._batch_job([entry.vertex for entry in entries], k, algorithm, params, deadlines)
        self._jobs.put_nowait(
            _Job(kind="batch", run=run, entries=entries), urgent=deadlines is not None
        )

    def _batch_job(
        self,
        vertices: List[int],
        k: int,
        algorithm: str,
        params: Tuple[Tuple[str, float], ...],
        deadlines: Optional[Sequence[Tuple[float, float]]],
    ) -> Callable[[], BatchResult]:
        """The engine job answering one batch, best-effort or under deadlines.

        ``deadlines`` holds one ``(deadline_ms, arrived)`` pair per request
        in the batch (``None`` on the best-effort lane); the batch runs
        under the tightest remaining budget.  That budget is measured when
        the job actually starts on the engine thread, so time spent queued
        behind other jobs automatically sheds the batch to faster rungs.
        """

        def run() -> BatchResult:
            deadline_ms = None
            if deadlines is not None:
                now = self._clock()
                deadline_ms = max(
                    0.0,
                    min(budget - (now - arrived) * 1000.0 for budget, arrived in deadlines),
                )
            return self.service.submit_batch(
                vertices, k, algorithm=algorithm, deadline_ms=deadline_ms, **dict(params)
            )

        return run

    def _flush_all(self, reason: str) -> None:
        """Flush every pending group — the write barrier and the drain path."""
        for key in list(self._pending):
            self._flush(key, reason)

    def _admit(self, lane: str, count: int = 1) -> None:
        """Admission control: claim ``count`` slots in ``lane`` or raise 429.

        Lanes are independent — a saturated best-effort lane never blocks
        deadline traffic (and vice versa).  The refusal carries
        ``Retry-After`` both as a header and in the JSON payload.  A request
        needing more slots than the lane holds could never be admitted, so
        it gets a ``413`` instead.  The caller owns releasing the slots via
        :meth:`_release`.
        """
        if count > self.config.max_queue_depth:
            raise HttpError(
                413,
                f"request of {count} queries exceeds the {lane} lane's "
                f"{self.config.max_queue_depth} query depth",
            )
        depth = self._lane_pending[lane]
        if depth + count > self.config.max_queue_depth:
            stats = self.batcher_stats
            if lane == LANE_DEADLINE:
                stats.rejected_deadline += count
            else:
                stats.rejected_besteffort += count
            retry_after = max(1, math.ceil(self.config.retry_after_seconds))
            raise HttpError(
                429,
                f"{lane} lane is full ({depth} queries queued, "
                f"limit {self.config.max_queue_depth}); retry after {retry_after}s",
                headers={"Retry-After": str(retry_after)},
            )
        self._lane_pending[lane] += count
        if lane == LANE_DEADLINE:
            self.batcher_stats.queries_deadline += count
        else:
            self.batcher_stats.queries_besteffort += count

    def _release(self, lane: str, count: int = 1) -> None:
        """Return ``count`` admission slots to ``lane`` (answer delivered)."""
        self._lane_pending[lane] = max(0, self._lane_pending[lane] - count)

    def _enqueue_query(
        self, vertex: int, key: BatchKey, deadline_ms: Optional[float] = None
    ) -> "asyncio.Future[BatchResult]":
        """Join ``vertex`` to its pending micro-batch group; returns its future."""
        future: "asyncio.Future[BatchResult]" = self._loop.create_future()
        entries = self._pending.setdefault(key, [])
        entries.append(
            _PendingQuery(
                vertex=vertex,
                future=future,
                deadline_ms=deadline_ms,
                arrived=self._clock(),
            )
        )
        if len(entries) >= self.config.max_batch_size:
            self._flush(key, reason="size")
        elif self._jobs.idle():
            self._flush(key, reason="idle")
        return future

    async def _writer_loop(self) -> None:
        """The single writer: drain the job queue onto the engine thread.

        Every job — micro-batch, explicit batch, mutation, snapshot — runs
        here in FIFO order, one at a time, so the daemon's observable
        behaviour equals applying the same operations serially in arrival
        order.
        """
        while True:
            job = await self._jobs.get()
            try:
                outcome = await self._loop.run_in_executor(self._engine_thread, job.run)
            except Exception as error:  # noqa: BLE001 - routed to the waiters
                for entry in job.entries:
                    if not entry.future.done():
                        entry.future.set_exception(error)
                if job.future is not None and not job.future.done():
                    job.future.set_exception(error)
                # The exception now belongs to the request futures; keep the
                # writer alive for the next job.
                if not job.entries and job.future is None:
                    print(f"server: writer job failed: {error!r}", file=sys.stderr)
            else:
                for entry in job.entries:
                    if not entry.future.done():
                        entry.future.set_result(outcome)
                if job.future is not None and not job.future.done():
                    job.future.set_result(outcome)
            finally:
                self._jobs.task_done(job)
            # Dispatch every group that coalesced while the job ran.
            # Unconditionally — even with more jobs queued — so a waiting
            # group is delayed by at most the jobs queued ahead of it now,
            # never starved by later arrivals.
            self._flush_all(reason="idle")

    async def _run_mutation(self, run: Callable[[], object]) -> object:
        """Write barrier: flush pending queries, then run ``run`` serialised.

        After ``run`` succeeds — still inside the same serialised job, on
        the engine thread — the subscription registry re-evaluates the
        standing queries the mutation may have touched, so every delta is
        computed against exactly the post-mutation state and no query can
        slip between the mutation and its notification.
        """
        self._flush_all(reason="mutation")

        def mutate_then_notify() -> object:
            outcome = run()
            self._notify_subscribers()
            return outcome

        future: "asyncio.Future[object]" = self._loop.create_future()
        self._jobs.put_nowait(_Job(kind="mutate", run=mutate_then_notify, future=future))
        return await future

    def _notify_subscribers(self) -> None:
        """Post-mutation half of the write barrier (engine thread).

        Expires idle subscriptions, re-evaluates the ones whose component
        version moved, and wakes the parked pollers of every subscription
        that now has a deliverable message.  Deltas are stamped with
        :attr:`_state_lsn`, read *after* the mutation ran in the same
        serialised job, so it names exactly the mutation the delta reflects
        (the writer's durable LSN, a replica's replay position).  Failures
        are contained — a broken evaluation must not fail the mutation that
        triggered it.
        """
        if not len(self.subscriptions):
            return
        try:
            expired = self.subscriptions.expire_idle()
            woken = self.subscriptions.evaluate(lsn=self._state_lsn)
        except Exception as error:  # noqa: BLE001 - never fail the mutation
            print(f"server: subscription evaluation failed: {error!r}", file=sys.stderr)
            return
        if woken or expired:
            self._loop.call_soon_threadsafe(
                lambda live=woken, dead=expired: self._wake_subscribers(live, drop=dead)
            )

    def _wake_subscribers(self, sub_ids: List[str], drop: Sequence[str] = ()) -> None:
        """Release parked pollers (event-loop thread).

        ``drop`` names subscriptions that no longer exist (expired or
        unsubscribed): their waiters are woken too — they observe the
        missing id and answer ``404`` — and their events are discarded.
        """
        for sub_id in sub_ids:
            event = self._sub_events.get(sub_id)
            if event is not None:
                event.set()
        for sub_id in drop:
            event = self._sub_events.pop(sub_id, None)
            if event is not None:
                event.set()

    def _release_pollers(self) -> None:
        """Wake every parked poller (drain: they answer and exit)."""
        for event in self._sub_events.values():
            event.set()

    # ------------------------------------------------------------ request parsing
    def _resolve_vertex(self, label: object, field_name: str) -> int:
        """Translate a user-facing label into an internal vertex index."""
        if isinstance(label, bool) or label is None or isinstance(label, (dict, list)):
            raise HttpError(400, f"{field_name!r} must be a vertex label")
        if isinstance(label, float) and label.is_integer():
            label = int(label)
        return self.service.graph.index_of(label)

    @staticmethod
    def _parse_k(body: dict) -> int:
        value = body.get("k", 4)
        if isinstance(value, bool) or not isinstance(value, int):
            raise HttpError(400, f"'k' must be an integer, got {value!r}")
        return value

    def _parse_deadline(self, body: dict) -> Optional[float]:
        """Extract the request's deadline budget (or the server default)."""
        value = body.get("deadline_ms", self.config.default_deadline_ms)
        if value is None:
            return None
        deadline_ms = _finite_number(value, "deadline_ms")
        if not deadline_ms > 0:
            raise HttpError(
                400, f"'deadline_ms' must be a positive number, got {value!r}"
            )
        return deadline_ms

    @staticmethod
    def _parse_params(
        body: dict, *, deadline: bool = False
    ) -> Tuple[str, Tuple[Tuple[str, float], ...]]:
        """Extract (algorithm, canonicalised params) from a request body.

        Under a deadline, ``algorithm`` defaults to the quality ceiling
        (``exact+``) instead of ``appfast``, and any parameter accepted by
        *some* rung at or below the ceiling is allowed — the ladder may
        answer at a different rung than the ceiling, and each rung receives
        only its own knobs (:func:`repro.service.slo.params_for`).
        """
        algorithm = body.get("algorithm", DEFAULT_CEILING if deadline else "appfast")
        if algorithm not in ALGORITHMS:
            raise HttpError(
                400, f"unknown algorithm {algorithm!r}; choose from {sorted(ALGORITHMS)}"
            )
        params = body.get("params", {})
        if not isinstance(params, dict):
            raise HttpError(400, "'params' must be a JSON object")
        params = dict(params)
        for convenience in ("epsilon_f", "epsilon_a"):
            if convenience in body:
                params[convenience] = body[convenience]
        if deadline:
            allowed = frozenset().union(
                *(_algorithm_parameter_names(rung) for rung in ladder_from(algorithm))
            )
        else:
            allowed = _algorithm_parameter_names(algorithm)
        for name in params:
            if name not in allowed:
                raise HttpError(
                    400,
                    f"algorithm {algorithm!r} takes no parameter {name!r}; "
                    f"accepted: {sorted(allowed)}",
                )
        return algorithm, tuple(
            sorted((str(n), _finite_number(v, n)) for n, v in params.items())
        )

    def _result_payload(
        self,
        vertex: int,
        batch: BatchResult,
        k: int,
        params: Tuple[Tuple[str, float], ...] = (),
        deadline_ms: Optional[float] = None,
        arrived: Optional[float] = None,
        label=None,
    ) -> Tuple[int, dict]:
        """Build one query's JSON answer out of its batch's outcome.

        ``members`` lists the member labels in ascending internal-index
        order, encoded from the result's member array in one
        :meth:`~repro.graph.SpatialGraph.labels_of` lookup.  ``label`` is
        the query vertex's label when the caller already has it.

        Every answer reports ``algorithm_used`` and its approximation
        ``bound`` (the deadline ladder may have answered below the requested
        ceiling); deadline-carrying requests additionally get
        ``deadline_ms`` / ``deadline_missed``, where "missed" is judged
        against the request's arrival stamp on the server's monotonic clock
        (``arrived``), not the cost model's opinion — a lying model can only
        mislabel rungs, never unflag a late answer — and never against the
        wall clock, which NTP may step mid-request.
        """
        graph = self.service.graph
        if label is None:
            label = graph.label_of(vertex)
        if vertex in batch.errors:
            return error_payload(400, batch.errors[vertex])
        result = batch.results.get(vertex)
        if result is None:
            payload = {
                "found": False,
                "query": label,
                "k": k,
                "algorithm_used": None,
                "bound": None,
            }
        else:
            payload = {
                "found": True,
                "query": label,
                "k": k,
                "algorithm": result.algorithm,
                "algorithm_used": result.algorithm,
                "bound": approximation_bound(
                    result.algorithm, params_for(result.algorithm, dict(params))
                ),
                "size": result.size,
                "radius": result.radius,
                "center": [result.circle.center.x, result.circle.center.y],
                "members": graph.labels_of(result.members.array),
            }
        if deadline_ms is not None:
            late = bool(batch.deadline_missed.get(vertex, False))
            if arrived is not None:
                late = late or (self._clock() - arrived) * 1000.0 > deadline_ms
            payload["deadline_ms"] = deadline_ms
            payload["deadline_missed"] = late
        return 200, payload

    # ----------------------------------------------------------------- handlers
    async def _handle_query(self, request: Request) -> Tuple[int, dict]:
        """``POST /query`` — one query, answered through a micro-batch.

        A best-effort query whose answer the cache holds fresh is answered
        here on the event loop, with no engine job, while no fence is
        queued or running: then every mutation that arrived before it has
        been applied and none after it has started, so the cached answer is
        the one the serial order gives.  Behind a fence it takes the engine
        path and sees the mutation.

        A ``deadline_ms`` (explicit or the server default) routes the query
        through the deadline lane: admission-checked, coalesced only with
        other deadline traffic, dispatched ahead of queued best-effort
        batches, and answered through the SLO ladder.
        """
        body = request.json()
        if "vertex" not in body:
            raise HttpError(400, "missing required field 'vertex'")
        vertex = self._resolve_vertex(body["vertex"], "vertex")
        k = self._parse_k(body)
        deadline_ms = self._parse_deadline(body)
        algorithm, params = self._parse_params(body, deadline=deadline_ms is not None)
        if deadline_ms is None and not self._jobs.fenced():
            result = self.service.cached(vertex, k, algorithm=algorithm, **dict(params))
            if result is not None:
                self.batcher_stats.cache_hits_on_loop += 1
                return self._result_payload(
                    vertex, BatchResult(results={vertex: result}), k, params
                )
        lane = LANE_DEADLINE if deadline_ms is not None else LANE_BESTEFFORT
        self._admit(lane)
        arrived = self._clock()
        try:
            batch = await self._enqueue_query(
                vertex, (k, algorithm, params, lane), deadline_ms
            )
        finally:
            self._release(lane)
        return self._result_payload(vertex, batch, k, params, deadline_ms, arrived)

    async def _handle_batch(self, request: Request) -> Tuple[int, dict]:
        """``POST /batch`` — an explicit batch, dispatched as one unit."""
        body = request.json()
        labels = body.get("vertices")
        if not isinstance(labels, list) or not labels:
            raise HttpError(400, "'vertices' must be a non-empty list of vertex labels")
        if len(labels) > self.config.max_batch_queries:
            raise HttpError(
                413,
                f"batch of {len(labels)} queries exceeds the "
                f"{self.config.max_batch_queries} query limit",
            )
        k = self._parse_k(body)
        deadline_ms = self._parse_deadline(body)
        algorithm, params = self._parse_params(body, deadline=deadline_ms is not None)
        graph = self.service.graph
        vertices = [self._resolve_vertex(label, "vertices") for label in labels]
        lane = LANE_DEADLINE if deadline_ms is not None else LANE_BESTEFFORT
        self._admit(lane, len(vertices))
        arrived = self._clock()
        try:
            future: "asyncio.Future[object]" = self._loop.create_future()
            deadlines = None if deadline_ms is None else [(deadline_ms, arrived)]
            run = self._batch_job(vertices, k, algorithm, params, deadlines)
            self._jobs.put_nowait(
                _Job(kind="batch", run=run, future=future), urgent=deadlines is not None
            )
            batch: BatchResult = await future
        finally:
            self._release(lane, len(vertices))
        results = {}
        algorithms_used: Dict[str, int] = {}
        answered = [vertex for vertex in dict.fromkeys(vertices) if vertex in batch.results]
        for vertex, label in zip(answered, graph.labels_of(answered)):
            _, payload = self._result_payload(
                vertex, batch, k, params, deadline_ms, arrived, label
            )
            results[str(label)] = payload
            rung = batch.results[vertex].algorithm
            algorithms_used[rung] = algorithms_used.get(rung, 0) + 1
        response = {
            "answered": batch.answered,
            "failed": graph.labels_of(batch.failed),
            "errors": dict(
                zip(map(str, graph.labels_of(list(batch.errors))), batch.errors.values())
            ),
            "cache_hits": batch.cache_hits,
            "elapsed_seconds": batch.elapsed_seconds,
            "algorithms_used": algorithms_used,
            "results": results,
        }
        if deadline_ms is not None:
            response["deadline_ms"] = deadline_ms
            response["deadline_missed"] = sum(
                1
                for payload in results.values()
                if payload.get("deadline_missed", False)
            )
        return 200, response

    async def _handle_checkin(self, request: Request) -> Tuple[int, dict]:
        """``POST /checkin`` — one location update through the write barrier."""
        body = request.json()
        for name in ("user", "x", "y"):
            if name not in body:
                raise HttpError(400, f"missing required field {name!r}")
        user = self._resolve_vertex(body["user"], "user")
        x, y = _finite_number(body["x"], "x"), _finite_number(body["y"], "y")

        def run(user=user, x=x, y=y):
            self.service.apply_checkin(user, x, y)
            # Logged only after the apply succeeded, in the same serialised
            # job — the WAL holds exactly the applied mutations, in order.
            return self._wal_append({"op": "checkin", "user": user, "x": x, "y": y})

        lsn = await self._run_mutation(run)
        return 200, {
            "applied": True,
            "user": self.service.graph.label_of(user),
            "location_updates": self.service.engine.stats.location_updates,
            "lsn": lsn,
        }

    async def _handle_edge(self, request: Request) -> Tuple[int, dict]:
        """``POST /edge`` — one edge insert/delete through the write barrier."""
        body = request.json()
        for name in ("u", "v"):
            if name not in body:
                raise HttpError(400, f"missing required field {name!r}")
        u = self._resolve_vertex(body["u"], "u")
        v = self._resolve_vertex(body["v"], "v")
        op = body.get("op", "insert")
        if op not in ("insert", "delete"):
            raise HttpError(400, f"'op' must be 'insert' or 'delete', got {op!r}")
        def run(u=u, v=v, op=op):
            changed = self.service.apply_edge(u, v, op)
            lsn = self._wal_append({"op": "edge", "u": u, "v": v, "action": op})
            return changed, lsn

        changed, lsn = await self._run_mutation(run)
        graph = self.service.graph
        return 200, {
            "applied": True,
            "op": op,
            "u": graph.label_of(u),
            "v": graph.label_of(v),
            "cores_changed": graph.labels_of(changed),
            "lsn": lsn,
        }

    async def _handle_compact(self, request: Request) -> Tuple[int, dict]:
        """``POST /compact`` — roll the WAL into a fresh LSN-stamped snapshot.

        Writer-only (requires both ``wal_dir`` and ``snapshot_path``).  The
        engine is snapshotted with the last durable LSN stamped into the
        manifest, then the log rotates to a fresh segment and drops the
        records the snapshot now covers — replica cold-start stays
        O(snapshot) instead of O(full mutation history).  Replicas that had
        not reached the compaction point resync from this snapshot (see
        :class:`repro.replication.ReplicaServer`).
        """
        if self._wal is None:
            raise HttpError(400, "this server has no WAL to compact (no --wal-dir)")
        if self.config.snapshot_path is None:
            raise HttpError(400, "compaction needs a snapshot path (no --snapshot-to)")
        path = self.config.snapshot_path

        def run(path=path):
            lsn = self._wal.last_lsn
            self.service.save(path, lsn=lsn)
            first = self._wal.rotate()
            return {"compacted": True, "snapshot_lsn": lsn, "wal_starts_at": first,
                    "snapshot_path": path}

        future: "asyncio.Future[object]" = self._loop.create_future()
        self._jobs.put_nowait(_Job(kind="snapshot", run=run, future=future))
        return 200, await future

    # ------------------------------------------------------------ subscriptions
    async def _handle_subscribe(self, request: Request) -> Tuple[int, dict]:
        """``POST /subscribe`` — register a standing query.

        The initial community state is computed through a serialised
        engine job (the same barrier mutations use), so the returned
        snapshot and the subscription's version stamp are consistent: no
        mutation can land between "compute the answer" and "start watching
        its version".
        """
        body = request.json()
        if "vertex" not in body:
            raise HttpError(400, "missing required field 'vertex'")
        vertex = self._resolve_vertex(body["vertex"], "vertex")
        k = self._parse_k(body)
        algorithm, params = self._parse_params(body)

        def run(vertex=vertex, k=k, algorithm=algorithm, params=params):
            _sub, snapshot = self.subscriptions.register(
                vertex, k, algorithm=algorithm, params=dict(params)
            )
            return snapshot

        snapshot = await self._run_mutation(run)
        snapshot["poll_timeout_ms"] = self.config.poll_timeout_ms
        snapshot["backlog"] = self.subscriptions.backlog
        return 200, snapshot

    async def _handle_unsubscribe(self, request: Request) -> Tuple[int, dict]:
        """``POST /unsubscribe`` — drop a standing query, waking its pollers."""
        body = request.json()
        sub_id = body.get("id")
        if not isinstance(sub_id, str) or not sub_id:
            raise HttpError(400, "'id' must be a subscription id string")
        if not self.subscriptions.unsubscribe(sub_id):
            raise HttpError(404, f"no such subscription: {sub_id}")
        # Parked pollers wake, observe the missing id, and answer 404.
        self._wake_subscribers([], drop=[sub_id])
        return 200, {"unsubscribed": True, "id": sub_id}

    async def _handle_subscribe_poll(self, request: Request) -> Tuple[int, dict]:
        """``GET /subscribe?id=...`` — long-poll one subscription for deltas.

        Drains and returns the subscription's pending messages immediately
        when there are any, otherwise parks up to ``timeout_ms`` (capped by
        the server's ``poll_timeout_ms``) and answers with whatever arrived
        — possibly an empty list.  A draining server answers a final
        ``drain`` message.  A ``stream`` parameter that asks for chunked
        streaming is a 400: long-poll is the one delivery mode.
        """
        args = parse_qs(request.query)
        if (args.get("stream") or ["0"])[0].lower() not in ("0", "false", "no"):
            raise HttpError(
                400,
                "streaming is not supported: long-poll GET /subscribe?id=... "
                "(with an optional timeout_ms) instead",
            )
        sub_id = (args.get("id") or [""])[0]
        if not sub_id:
            raise HttpError(400, "missing required query parameter 'id'")
        raw_timeout = (args.get("timeout_ms") or [None])[0]
        if raw_timeout is None:
            timeout_ms = self.config.poll_timeout_ms
        else:
            with contextlib.suppress(ValueError):
                raw_timeout = float(raw_timeout)
            timeout_ms = _finite_number(raw_timeout, "timeout_ms")
            if timeout_ms < 0:
                raise HttpError(400, "'timeout_ms' must be non-negative")
            timeout_ms = min(timeout_ms, self.config.poll_timeout_ms)
        deadline = self._clock() + timeout_ms / 1000.0
        while True:
            try:
                messages = self.subscriptions.poll(sub_id)
            except KeyError:
                raise HttpError(404, f"no such subscription: {sub_id}") from None
            if messages:
                return 200, {"id": sub_id, "messages": messages, "draining": self._draining}
            if self._draining:
                return 200, {
                    "id": sub_id,
                    "messages": [{"type": "drain", "id": sub_id}],
                    "draining": True,
                }
            remaining = deadline - self._clock()
            if remaining <= 0:
                return 200, {"id": sub_id, "messages": [], "draining": False}
            event = self._sub_events.setdefault(sub_id, asyncio.Event())
            event.clear()
            self._parked += 1
            try:
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(event.wait(), timeout=remaining)
            finally:
                self._parked -= 1

    async def _handle_stats(self, request: Request) -> Tuple[int, dict]:
        """``GET /stats`` — endpoint, batcher, plan, and service counters."""
        service_stats = self.service.stats()
        engine_stats = service_stats.engine
        return 200, {
            "uptime_seconds": round(self._clock() - self._monotonic_start, 3),
            "replication": {
                "role": self.role,
                "lsn": self.durable_lsn,
                "applied_lsn": self.applied_lsn,
                "wal_dir": self.config.wal_dir,
            },
            "endpoints": {
                name: stats.as_dict() for name, stats in sorted(self.endpoint_stats.items())
            },
            "batcher": asdict(self.batcher_stats),
            "plan": {
                "batches_planned": engine_stats.batches_planned,
                "groups": engine_stats.plan_groups,
                "queries_deduped": engine_stats.queries_deduped,
                "queries_factorised": engine_stats.queries_factorised,
            },
            "engine": asdict(service_stats.engine),
            "subscriptions": {
                **self.subscriptions.stats_dict(),
                "parked_pollers": self._parked,
                "poll_timeout_ms": self.config.poll_timeout_ms,
                "idle_seconds": self.config.subscription_idle_seconds,
            },
            "residency": self.service.engine.residency_info(),
            "cache": asdict(service_stats.cache) if service_stats.cache is not None else None,
            "slo": {
                "enabled": self.config.slo_enabled,
                "default_deadline_ms": self.config.default_deadline_ms,
                "lanes": {
                    LANE_DEADLINE: {
                        "pending": self._lane_pending[LANE_DEADLINE],
                        "admitted": self.batcher_stats.queries_deadline,
                        "rejected": self.batcher_stats.rejected_deadline,
                    },
                    LANE_BESTEFFORT: {
                        "pending": self._lane_pending[LANE_BESTEFFORT],
                        "admitted": self.batcher_stats.queries_besteffort,
                        "rejected": self.batcher_stats.rejected_besteffort,
                    },
                },
                "service": asdict(service_stats.slo)
                if service_stats.slo is not None
                else None,
                "cost_model": {
                    algorithm: asdict(coefficients)
                    for algorithm, coefficients in sorted(
                        self.service.slo_model.rungs.items()
                    )
                },
                "calibration_probes": [
                    {"algorithm": algorithm, "component_size": size, "ms": round(ms, 3)}
                    for algorithm, size, ms in self.service.slo_model.calibration_probes
                ],
            },
            "config": {
                "max_batch_size": self.config.max_batch_size,
                "max_batch_queries": self.config.max_batch_queries,
                "max_queue_depth": self.config.max_queue_depth,
                "retry_after_seconds": self.config.retry_after_seconds,
                "max_resident_bytes": self.service.engine.max_resident_bytes,
            },
        }

    async def _handle_healthz(self, request: Request) -> Tuple[int, dict]:
        """``GET /healthz`` — liveness plus the serving surface's shape."""
        from repro import __version__

        graph = self.service.graph
        return 200, {
            "status": "draining" if self._draining else "ok",
            "version": __version__,
            "uptime_seconds": round(self._clock() - self._monotonic_start, 3),
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
            "incremental": isinstance(self.service.engine, IncrementalEngine),
            "role": self.role,
            "lsn": self.durable_lsn,
            "applied_lsn": self.applied_lsn,
        }


class ServerHandle:
    """Thread-safe handle to a server running in a background thread."""

    def __init__(self, server: HttpServer, loop: asyncio.AbstractEventLoop, thread: threading.Thread) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def host(self) -> str:
        """Listen host of the running server."""
        return self.server.config.host

    @property
    def port(self) -> int:
        """Bound port of the running server."""
        return self.server.port

    def stop(self, timeout: float = 30.0) -> None:
        """Drain and stop the server, then join its thread."""
        if self._thread.is_alive():
            asyncio.run_coroutine_threadsafe(self.server.stop(), self._loop).result(timeout)
        self._thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_in_thread(server: HttpServer) -> ServerHandle:
    """Start ``server`` in a daemon thread; returns when it is listening.

    ``server`` is any server not started yet — a :class:`SACServer`, a
    :class:`repro.replication.ReplicaServer` or a
    :class:`repro.replication.Coordinator` — configured with ``port=0``
    unless a fixed port is wanted.  The in-process harness the tests and
    benchmarks use: no subprocess, deterministic shutdown via
    :meth:`ServerHandle.stop`.  Signal handlers are NOT installed (they only
    work on the main thread); the handle's ``stop`` is the only shutdown
    path.
    """
    started = threading.Event()
    box: dict = {}

    async def _run() -> None:
        await server.start()
        box["loop"] = asyncio.get_running_loop()
        started.set()
        await server.wait_stopped()

    def _runner() -> None:
        try:
            asyncio.run(_run())
        except Exception as error:  # noqa: BLE001 - surfaced via started timeout
            box["error"] = error
            started.set()

    thread = threading.Thread(target=_runner, name="sac-server", daemon=True)
    thread.start()
    started.wait(timeout=30.0)
    if "error" in box:
        raise box["error"]
    if "loop" not in box:
        raise RuntimeError("server failed to start within 30s")
    return ServerHandle(server, box["loop"], thread)
