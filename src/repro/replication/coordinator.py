"""The replication tier's front door: route reads, serialise writes.

A :class:`Coordinator` is a thin asyncio proxy over one writer and N
replicas (:mod:`repro.replication`).  It holds no graph, no engine, and no
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
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.server.http import (
    ConnectionClosed,
    HttpError,
    Request,
    encode_request,
    encode_response,
    error_payload,
    read_request,
    read_response,
    write_response,
)

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


class Coordinator:
    """Route client traffic across the writer and its replicas."""

    def __init__(self, config: Optional[CoordinatorConfig] = None) -> None:
        self.config = config or CoordinatorConfig()
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
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._health_task: Optional[asyncio.Task] = None
        self._connections: set = set()
        self._draining = False
        self._stopped: Optional[asyncio.Event] = None

    # -------------------------------------------------------------- lifecycle
    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._server is None:
            return self.config.port
        return self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        """Base URL of the listening coordinator."""
        return f"http://{self.config.host}:{self.port}"

    async def start(self) -> None:
        """Bind the listen socket and start the health prober."""
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self._health_task = self._loop.create_task(self._health_loop())
        self._server = await asyncio.start_server(
            self._on_connection, host=self.config.host, port=self.config.port
        )

    async def serve_forever(self) -> None:
        """Run until :meth:`stop`; installs SIGTERM/SIGINT handlers."""
        if self._server is None:
            await self.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(signum, lambda: loop.create_task(self.stop()))
        await self._stopped.wait()

    async def stop(self) -> None:
        """Stop accepting, cancel the prober, close open connections."""
        if self._draining:
            await self._stopped.wait()
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._health_task is not None:
            self._health_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._health_task
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._stopped.set()

    async def wait_stopped(self) -> None:
        """Block until :meth:`stop` has completed."""
        await self._stopped.wait()

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
    async def _route(
        self, request: Request
    ) -> Tuple[int, dict, Dict[str, str], Optional[bytes]]:
        """Decide and execute one request; returns (status, payload, headers, raw).

        ``raw`` is the proxied backend body (already JSON bytes) when the
        request was proxied — passed through untouched so proxying never
        re-interprets payloads; ``payload`` is used when the coordinator
        answers from its own state (``raw`` is ``None``).
        """
        if request.method == "GET" and request.path == "/healthz":
            return 200, self._healthz_payload(), {}, None
        if request.method == "GET" and request.path == "/stats":
            return 200, self._stats_payload(), {}, None
        if request.method == "POST" and request.path in WRITE_PATHS:
            return await self._route_mutation(request)
        if request.method == "POST" and request.path in READ_PATHS:
            return await self._route_read(request)
        status, payload = error_payload(
            404, f"coordinator does not route {request.method} {request.path}"
        )
        return status, payload, {}, None

    async def _route_mutation(
        self, request: Request
    ) -> Tuple[int, dict, Dict[str, str], Optional[bytes]]:
        """Proxy a mutation to the writer; track its acknowledged LSN."""
        try:
            status, _, body = await self._backend_roundtrip(
                self.writer, request.method, request.path, request.body
            )
        except _BackendError as error:
            self.writer.failures += 1
            self.writer.healthy = False
            status, payload = error_payload(502, f"writer unavailable: {error}")
            return status, payload, {}, None
        self.writer.healthy = True
        self.stats.mutations_proxied += 1
        if status == 200:
            with contextlib.suppress(ValueError, AttributeError):
                lsn = json.loads(body.decode("utf-8")).get("lsn")
                if isinstance(lsn, int):
                    self.writer_lsn = max(self.writer_lsn, lsn)
        headers = {"X-Served-By": self.writer.address}
        return status, {}, headers, body

    async def _route_read(
        self, request: Request
    ) -> Tuple[int, dict, Dict[str, str], Optional[bytes]]:
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
            return status, {}, headers, body

        # No replica is fresh and alive — bounded staleness redirects the
        # read to the writer rather than waiting out the lag.
        try:
            status, _, body = await self._backend_roundtrip(
                self.writer, request.method, request.path, request.body
            )
        except _BackendError as error:
            self.writer.failures += 1
            self.writer.healthy = False
            status, payload = error_payload(
                502, f"no fresh replica and the writer is unavailable: {error}"
            )
            return status, payload, {}, None
        self.stats.reads_proxied += 1
        self.stats.reads_to_writer += 1
        self.stats.served_by[self.writer.address] = (
            self.stats.served_by.get(self.writer.address, 0) + 1
        )
        headers = {"X-Served-By": self.writer.address, "X-Staleness-LSN": "0"}
        return status, {}, headers, body

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

    # ------------------------------------------------------------ connections
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
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

    async def _connection_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one keep-alive client connection until EOF or drain."""
        while True:
            try:
                request = await read_request(
                    reader, max_body_bytes=self.config.max_body_bytes
                )
            except ConnectionClosed:
                return
            except HttpError as error:
                with contextlib.suppress(ConnectionError):
                    await write_response(
                        writer,
                        *error_payload(error.status, error.message),
                        keep_alive=False,
                    )
                return
            try:
                status, payload, headers, raw = await self._route(request)
            except Exception as error:  # noqa: BLE001 - the proxy must survive
                print(f"coordinator: routing error: {error!r}", file=sys.stderr)
                status, payload = error_payload(500, "internal coordinator error")
                headers, raw = {}, None
            keep_alive = request.keep_alive and not self._draining
            try:
                if raw is not None:
                    writer.write(_reframe(status, raw, headers, keep_alive=keep_alive))
                    await writer.drain()
                else:
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


def _reframe(
    status: int, body: bytes, headers: Dict[str, str], *, keep_alive: bool
) -> bytes:
    """Wrap a proxied backend body in a fresh response frame.

    The backend's JSON body is passed through byte-for-byte; only the
    framing (status line, lengths, connection policy) and the coordinator's
    routing headers are new.
    """
    from repro.server.http import REASONS

    lines = [
        f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in headers.items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


class CoordinatorHandle:
    """Thread-safe handle to a coordinator running in a background thread."""

    def __init__(
        self,
        coordinator: Coordinator,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ) -> None:
        self.coordinator = coordinator
        self._loop = loop
        self._thread = thread

    @property
    def host(self) -> str:
        """Listen host of the running coordinator."""
        return self.coordinator.config.host

    @property
    def port(self) -> int:
        """Bound port of the running coordinator."""
        return self.coordinator.port

    def stop(self, timeout: float = 30.0) -> None:
        """Stop the coordinator and join its thread."""
        if self._thread.is_alive():
            asyncio.run_coroutine_threadsafe(
                self.coordinator.stop(), self._loop
            ).result(timeout)
        self._thread.join(timeout)

    def __enter__(self) -> "CoordinatorHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_coordinator_in_thread(
    config: Optional[CoordinatorConfig] = None,
) -> CoordinatorHandle:
    """Run a :class:`Coordinator` in a daemon thread; returns when listening.

    The in-process harness the replication tests and benchmark use —
    symmetric with :func:`repro.server.start_in_thread`.
    """
    config = config or CoordinatorConfig(port=0)
    started = threading.Event()
    box: dict = {}

    async def _run() -> None:
        coordinator = Coordinator(config)
        await coordinator.start()
        box["coordinator"] = coordinator
        box["loop"] = asyncio.get_running_loop()
        started.set()
        await coordinator.wait_stopped()

    def _runner() -> None:
        try:
            asyncio.run(_run())
        except Exception as error:  # noqa: BLE001 - surfaced via started timeout
            box["error"] = error
            started.set()

    thread = threading.Thread(target=_runner, name="sac-coordinator", daemon=True)
    thread.start()
    started.wait(timeout=30.0)
    if "error" in box:
        raise box["error"]
    if "coordinator" not in box:
        raise RuntimeError("coordinator failed to start within 30s")
    return CoordinatorHandle(box["coordinator"], box["loop"], thread)
