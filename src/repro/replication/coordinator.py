"""The replication tier's front door: route reads, serialise writes.

A :class:`Coordinator` is a thin asyncio proxy over one writer and N
replicas (:mod:`repro.replication`), running on the daemon's listener
(:class:`repro.server.HttpServer`).  It holds no graph, no engine, and no
cache — only routing state: which backends are alive (``/healthz``
probes), each replica's ``applied_lsn``, and the writer's last durable LSN
(tracked from mutation responses, refreshed by the prober).  Three rules
decide every request:

* **mutations** (``/checkin``, ``/edge``, ``/compact``) always go to the
  writer — there is exactly one serialisation point in the tier;
* **reads** (``/query``, ``/batch``) go round-robin over healthy replicas
  whose replay lag ``writer_lsn - applied_lsn`` is within
  ``max_staleness_lsn``; a replica that looks too stale gets one on-demand
  health refresh before being skipped, and when every replica lags the
  read lands on the writer (bounded staleness never waits, it redirects);
* **failover**: a backend that refuses a connection mid-request is marked
  dead and the read retries on the next candidate; the health prober
  readmits it when ``/healthz`` answers again.

Every proxied response carries ``X-Served-By`` (the backend address) and,
for reads, ``X-Staleness-LSN`` (the routed replica's lag at decision time)
— the benchmark's measured-staleness evidence comes straight from these.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import sys
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Optional, Tuple, Union

from repro.server.daemon import HttpServer
from repro.server.http import (
    ConnectionClosed,
    HttpError,
    Request,
    encode_request,
    error_payload,
    read_response,
)

#: What routing answers: (status, own JSON payload or proxied body, headers).
Answer = Tuple[int, Union[dict, bytes], Dict[str, str]]

#: Paths that mutate engine state — always routed to the writer.
WRITE_PATHS = frozenset({"/checkin", "/edge", "/compact"})

#: Paths served by replicas (or the writer as staleness fallback).
READ_PATHS = frozenset({"/query", "/batch"})


@dataclass
class CoordinatorConfig:
    """Tunables of one :class:`Coordinator`.

    Attributes
    ----------
    host / port:
        Listen address (``port=0`` binds an ephemeral port, like the
        daemon).
    writer:
        The writer daemon's address as ``host:port``.
    replicas:
        Replica daemon addresses as ``host:port`` each; order is the
        round-robin order.
    max_staleness_lsn:
        Bounded-staleness knob: a replica may serve a read only while its
        replay lag (in WAL records) is at most this; ``0`` demands replicas
        be fully caught up with every acknowledged mutation.
    health_interval_ms:
        Background ``/healthz`` probe period — the failover detection (and
        readmission) latency.
    max_body_bytes:
        Request/response bodies beyond this are refused, as in the daemon.
    connect_timeout_seconds / request_timeout_seconds:
        Backend dial and full-request bounds; a backend that exceeds them
        counts as failed for that request.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    writer: str = "127.0.0.1:8081"
    replicas: Tuple[str, ...] = ()
    max_staleness_lsn: int = 0
    health_interval_ms: float = 200.0
    max_body_bytes: int = 1 << 20
    connect_timeout_seconds: float = 2.0
    request_timeout_seconds: float = 30.0


@dataclass
class BackendState:
    """The coordinator's live view of one backend daemon."""

    address: str
    healthy: bool = True
    applied_lsn: int = 0
    reads_served: int = 0
    failures: int = 0

    def host_port(self) -> Tuple[str, int]:
        """Split ``host:port`` for dialing."""
        host, _, port = self.address.rpartition(":")
        return host, int(port)


@dataclass
class CoordinatorStats:
    """Routing counters surfaced by the coordinator's ``GET /stats``."""

    reads_proxied: int = 0
    reads_to_writer: int = 0
    reads_stale_skips: int = 0
    mutations_proxied: int = 0
    failovers: int = 0
    health_probes: int = 0
    max_staleness_observed: int = 0
    served_by: Dict[str, int] = field(default_factory=dict)


class _BackendError(Exception):
    """One backend failed to take (or finish) a proxied request."""


class Coordinator(HttpServer):
    """Route client traffic across the writer and its replicas."""

    def __init__(self, config: Optional[CoordinatorConfig] = None) -> None:
        super().__init__(config or CoordinatorConfig())
        self.writer = BackendState(address=self.config.writer)
        self.replicas: List[BackendState] = [
            BackendState(address=address) for address in self.config.replicas
        ]
        self.stats = CoordinatorStats()
        #: The writer's last durable LSN as this coordinator knows it —
        #: advanced by every acknowledged mutation and by health probes, so
        #: with all mutations flowing through here it is never behind the
        #: log (mutations are acknowledged only after the append).
        self.writer_lsn = 0
        self._rr_next = 0
        self._health_task: Optional[asyncio.Task] = None

    # -------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Start the health prober, then bind the listen socket."""
        self._health_task = asyncio.create_task(self._health_loop())
        await super().start()

    def _signal_actions(self) -> List[Tuple[int, Callable[[], Awaitable[object]]]]:
        """Adds ``SIGUSR1``, which ``serve`` documents as "snapshot": logged, then ignored."""
        actions = super()._signal_actions()
        if hasattr(signal, "SIGUSR1"):
            actions.append((signal.SIGUSR1, self._decline_snapshot))
        return actions

    async def _decline_snapshot(self) -> None:
        """A coordinator holds no engine, so ``SIGUSR1`` has nothing to snapshot."""
        print(
            "coordinator: SIGUSR1 received; a coordinator has nothing to snapshot",
            file=sys.stderr,
        )

    async def _drain(self) -> None:
        """Cancel the health prober (connections are closed by :meth:`stop`)."""
        if self._health_task is not None:
            self._health_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._health_task

    # -------------------------------------------------------------- backends
    async def _backend_roundtrip(
        self, backend: BackendState, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One full request/response against a backend, bounded in time."""
        host, port = backend.host_port()
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port),
                self.config.connect_timeout_seconds,
            )
        except (OSError, asyncio.TimeoutError) as error:
            raise _BackendError(f"{backend.address}: connect failed: {error}") from None
        try:
            writer.write(
                encode_request(
                    method, path, body, host=backend.address, keep_alive=False
                )
            )
            await writer.drain()
            status, headers, payload = await asyncio.wait_for(
                read_response(reader, max_body_bytes=self.config.max_body_bytes),
                self.config.request_timeout_seconds,
            )
        except (
            OSError,
            asyncio.TimeoutError,
            ConnectionClosed,
            HttpError,
            ConnectionError,
        ) as error:
            raise _BackendError(f"{backend.address}: request failed: {error}") from None
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
        return status, headers, payload

    async def _probe(self, backend: BackendState, *, is_writer: bool) -> bool:
        """Refresh one backend's health and LSN view from its ``/healthz``."""
        self.stats.health_probes += 1
        try:
            status, _, body = await self._backend_roundtrip(
                backend, "GET", "/healthz", b""
            )
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (_BackendError, ValueError):
            backend.healthy = False
            return False
        backend.healthy = status == 200
        if not backend.healthy:
            return False
        if is_writer:
            lsn = payload.get("lsn")
            if isinstance(lsn, int):
                self.writer_lsn = max(self.writer_lsn, lsn)
        else:
            applied = payload.get("applied_lsn")
            if isinstance(applied, int):
                backend.applied_lsn = max(backend.applied_lsn, applied)
        return True

    async def _health_loop(self) -> None:
        """Probe every backend on a fixed period; eject and readmit replicas.

        Stops at the drain flag as well as on cancellation: before Python
        3.12, ``asyncio.wait_for`` drops a cancel that lands just as its
        inner future finishes, so a probe can swallow :meth:`stop`'s cancel.
        """
        interval = self.config.health_interval_ms / 1000.0
        while not self._draining:
            for replica in self.replicas:
                await self._probe(replica, is_writer=False)
            await self._probe(self.writer, is_writer=True)
            await asyncio.sleep(interval)

    def _staleness(self, replica: BackendState) -> int:
        """Current replay lag of ``replica`` behind the known writer LSN."""
        return max(0, self.writer_lsn - replica.applied_lsn)

    async def _pick_replica(self) -> Optional[Tuple[BackendState, int]]:
        """Next healthy, fresh-enough replica (round-robin), with its lag.

        A replica whose *cached* lag exceeds the bound gets one on-demand
        ``/healthz`` refresh before being skipped — the cached view ages a
        full health interval, which would otherwise bounce fresh replicas'
        reads to the writer after every mutation.
        """
        count = len(self.replicas)
        bound = self.config.max_staleness_lsn
        for step in range(count):
            replica = self.replicas[(self._rr_next + step) % count]
            if not replica.healthy:
                continue
            if self._staleness(replica) > bound:
                await self._probe(replica, is_writer=False)
            if replica.healthy and self._staleness(replica) <= bound:
                self._rr_next = (self._rr_next + step + 1) % count
                return replica, self._staleness(replica)
            self.stats.reads_stale_skips += 1
        return None

    # -------------------------------------------------------------- routing
    async def _dispatch(self, request: Request) -> Answer:
        """Decide and execute one request: ``(status, payload, headers)``.

        A proxied reply's ``payload`` is the backend's body as ``bytes``
        (already JSON), passed through untouched so proxying never
        re-interprets payloads; the coordinator's own answers are dicts.
        """
        try:
            if request.method == "GET" and request.path == "/healthz":
                return 200, self._healthz_payload(), {}
            if request.method == "GET" and request.path == "/stats":
                return 200, self._stats_payload(), {}
            if request.method == "POST" and request.path in WRITE_PATHS:
                return await self._route_mutation(request)
            if request.method == "POST" and request.path in READ_PATHS:
                return await self._route_read(request)
        except Exception as error:  # noqa: BLE001 - the proxy must survive
            print(f"coordinator: routing error: {error!r}", file=sys.stderr)
            return (*error_payload(500, "internal coordinator error"), {})
        return (
            *error_payload(404, f"coordinator does not route {request.method} {request.path}"),
            {},
        )

    async def _route_mutation(self, request: Request) -> Answer:
        """Proxy a mutation to the writer; track its acknowledged LSN."""
        try:
            status, _, body = await self._backend_roundtrip(
                self.writer, request.method, request.path, request.body
            )
        except _BackendError as error:
            self.writer.failures += 1
            self.writer.healthy = False
            return (*error_payload(502, f"writer unavailable: {error}"), {})
        self.writer.healthy = True
        self.stats.mutations_proxied += 1
        if status == 200:
            with contextlib.suppress(ValueError, AttributeError):
                lsn = json.loads(body.decode("utf-8")).get("lsn")
                if isinstance(lsn, int):
                    self.writer_lsn = max(self.writer_lsn, lsn)
        return status, body, {"X-Served-By": self.writer.address}

    async def _route_read(self, request: Request) -> Answer:
        """Serve a read from a fresh replica, failing over, else the writer."""
        attempts = len(self.replicas)
        for _ in range(attempts):
            picked = await self._pick_replica()
            if picked is None:
                break
            replica, staleness = picked
            try:
                status, _, body = await self._backend_roundtrip(
                    replica, request.method, request.path, request.body
                )
            except _BackendError:
                # Dead mid-request: eject and retry on the next candidate.
                replica.healthy = False
                replica.failures += 1
                self.stats.failovers += 1
                continue
            replica.reads_served += 1
            self.stats.reads_proxied += 1
            self.stats.served_by[replica.address] = (
                self.stats.served_by.get(replica.address, 0) + 1
            )
            self.stats.max_staleness_observed = max(
                self.stats.max_staleness_observed, staleness
            )
            headers = {
                "X-Served-By": replica.address,
                "X-Staleness-LSN": str(staleness),
            }
            return status, body, headers

        # No replica is fresh and alive — bounded staleness redirects the
        # read to the writer rather than waiting out the lag.
        try:
            status, _, body = await self._backend_roundtrip(
                self.writer, request.method, request.path, request.body
            )
        except _BackendError as error:
            self.writer.failures += 1
            self.writer.healthy = False
            return (
                *error_payload(
                    502, f"no fresh replica and the writer is unavailable: {error}"
                ),
                {},
            )
        self.stats.reads_proxied += 1
        self.stats.reads_to_writer += 1
        self.stats.served_by[self.writer.address] = (
            self.stats.served_by.get(self.writer.address, 0) + 1
        )
        headers = {"X-Served-By": self.writer.address, "X-Staleness-LSN": "0"}
        return status, body, headers

    # ------------------------------------------------------------ own payloads
    def _healthz_payload(self) -> dict:
        """The coordinator's own liveness + tier view."""
        return {
            "status": "draining" if self._draining else "ok",
            "role": "coordinator",
            "writer": {
                "address": self.writer.address,
                "healthy": self.writer.healthy,
                "lsn": self.writer_lsn,
            },
            "replicas": [
                {
                    "address": replica.address,
                    "healthy": replica.healthy,
                    "applied_lsn": replica.applied_lsn,
                    "staleness_lsn": self._staleness(replica),
                }
                for replica in self.replicas
            ],
            "max_staleness_lsn": self.config.max_staleness_lsn,
        }

    def _stats_payload(self) -> dict:
        """Routing counters plus the tier view."""
        return {
            "role": "coordinator",
            "routing": {
                "reads_proxied": self.stats.reads_proxied,
                "reads_to_writer": self.stats.reads_to_writer,
                "reads_stale_skips": self.stats.reads_stale_skips,
                "mutations_proxied": self.stats.mutations_proxied,
                "failovers": self.stats.failovers,
                "health_probes": self.stats.health_probes,
                "max_staleness_observed": self.stats.max_staleness_observed,
                "served_by": dict(self.stats.served_by),
            },
            "tier": self._healthz_payload(),
        }
