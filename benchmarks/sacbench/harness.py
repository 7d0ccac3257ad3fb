"""The daemon as a separate process, and the one client process that drives it.

:class:`Server` spawns ``python -m repro.cli serve`` (or the traced
launcher), times set-up to the first ``200`` from ``/healthz``, and on
shutdown checks hygiene: exit code 0 on SIGTERM, no leaked ``psm_``
shared-memory segments, temporary WAL directory removed.

:func:`closed_loop` drives it over a few keep-alive connections from one
asyncio loop: each connection sends its next request only after the reply
to the previous one has arrived.
"""

from __future__ import annotations

import asyncio
import http.client
import itertools
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from spans import CONN_MARKER, WINDOW_END, WINDOW_START

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SERVING_LINE = re.compile(r"serving \d+ vertices on http://([\d.]+):(\d+)")
SHM = Path("/dev/shm")
#: Longest a single request may take before it counts as failed.
REQUEST_TIMEOUT = 60.0


def shm_segments() -> set:
    """Names of the host's ``psm_`` shared-memory segments."""
    if not SHM.is_dir():
        return set()
    return {entry.name for entry in SHM.iterdir() if entry.name.startswith("psm_")}


class Server:
    """One daemon process: spawn, readiness, ``/stats``, peak RSS, drain.

    ``dump`` runs the traced launcher, which writes its spans there on exit.
    ``wal_dir`` is a temporary directory the server owns; it must be gone
    after :meth:`stop`.
    """

    def __init__(
        self,
        args: Sequence[str],
        workdir: Path,
        *,
        dump: Optional[Path] = None,
        wal_dir: Optional[Path] = None,
    ) -> None:
        self.dump = dump
        self.wal_dir = wal_dir
        self.log = workdir / f"serve-{os.getpid()}-{time.monotonic_ns()}.log"
        if dump is None:
            command = [sys.executable, "-m", "repro.cli", "serve", *args]
        else:
            command = [sys.executable, str(HERE / "traced_server.py"), str(dump), "serve", *args]
        env = dict(os.environ)
        paths = [str(ROOT / "src"), env.get("PYTHONPATH")]
        env["PYTHONPATH"] = os.pathsep.join(path for path in paths if path)
        self._shm_before = shm_segments()
        self._log_handle = open(self.log, "w+", encoding="utf-8")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=self._log_handle, stderr=subprocess.STDOUT
        )
        self.host, self.port = "127.0.0.1", 0
        self.setup_s = self._wait_ready()

    def _wait_ready(self, timeout: float = 120.0) -> float:
        deadline = self.started + timeout
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                break
            match = SERVING_LINE.search(self.log.read_text(encoding="utf-8", errors="replace"))
            if match is not None:
                self.host, self.port = match.group(1), int(match.group(2))
                status, _ = self.request("GET", "/healthz")
                if status == 200:
                    return time.perf_counter() - self.started
            time.sleep(0.002)
        self.kill()
        raise RuntimeError(f"server did not become ready:\n{self.log_text()}")

    def log_text(self) -> str:
        """The tail of the server's combined stdout and stderr."""
        return self.log.read_text(encoding="utf-8", errors="replace")[-4000:]

    def request(self, method: str, path: str, body: Optional[dict] = None) -> Tuple[int, bytes]:
        """One untimed request on a fresh connection (set-up, checks, ``/stats``)."""
        connection = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            payload = json.dumps(body).encode() if body is not None else None
            headers = {"Content-Type": "application/json"}
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def json(self, method: str, path: str, body: Optional[dict] = None) -> dict:
        """:meth:`request` decoded as JSON; anything but ``200`` raises."""
        status, raw = self.request(method, path, body)
        if status != 200:
            raise RuntimeError(f"{method} {path} -> {status}: {raw[:200]!r}")
        return json.loads(raw)

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM`` (peak resident set) in MiB."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        kilobytes = int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1))
        return kilobytes / 1024.0

    def stop(self, timeout: float = 60.0) -> List[str]:
        """SIGTERM, wait, and return every hygiene problem found."""
        problems: List[str] = []
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout)
            except subprocess.TimeoutExpired:
                problems.append(f"server did not exit within {timeout:g} s of SIGTERM")
                self.kill()
        if self.process.returncode != 0:
            problems.append(f"server exited with code {self.process.returncode}: {self.log_text()}")
        elif "server stopped" not in self.log_text():
            problems.append("server exited without logging 'server stopped'")
        leaked = shm_segments() - self._shm_before
        if leaked:
            problems.append(f"leaked shared-memory segments: {sorted(leaked)}")
        if self.wal_dir is not None:
            shutil.rmtree(self.wal_dir, ignore_errors=True)
            if self.wal_dir.exists():
                problems.append(f"WAL directory {self.wal_dir} could not be removed")
        self._log_handle.close()
        self.log.unlink(missing_ok=True)
        return problems

    def kill(self) -> None:
        """SIGKILL the server and reap it (the failure path only)."""
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()


# ------------------------------------------------------------------ client
@dataclass
class Op:
    """One request of a traffic stream."""

    kind: str
    path: str
    body: Optional[dict] = None
    method: str = "POST"


@dataclass
class Sample:
    """One completed request as the client saw it."""

    conn: int
    op: Op
    sent: float
    done: float
    status: int
    body: bytes

    @property
    def latency(self) -> float:
        """Seconds from send to the last byte of the reply."""
        return self.done - self.sent

    @property
    def ok(self) -> bool:
        """Whether the reply was a 2xx (transport errors are status 0)."""
        return 200 <= self.status < 300


class Connection:
    """One keep-alive HTTP/1.1 connection speaking JSON."""

    def __init__(
        self, host: str, port: int, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.host, self.port = host, port
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        """Dial ``host:port``."""
        reader, writer = await asyncio.open_connection(host, port)
        return cls(host, port, reader, writer)

    async def send(self, method: str, path: str, body: Optional[dict]) -> Tuple[int, bytes]:
        """Send one request and read its reply: ``(status, body)``."""
        payload = json.dumps(body).encode() if body is not None else b""
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: sacbench\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n\r\n"
        )
        self.writer.write(head.encode("latin-1") + payload)
        await self.writer.drain()
        status_line = await self.reader.readuntil(b"\r\n")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readuntil(b"\r\n")
            if line == b"\r\n":
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)

    async def close(self) -> None:
        """Close the socket and wait until it is closed."""
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


async def _marker(host: str, port: int, query: str) -> None:
    connection = await Connection.open(host, port)
    try:
        await connection.send("GET", f"/healthz?{query}", None)
    finally:
        await connection.close()


async def _send(connection: Connection, op: Op, conn: int, samples: List[Sample]) -> Connection:
    """One timed request; a broken connection is recorded as a failure and re-dialled."""
    sent = time.perf_counter()
    try:
        reply = connection.send(op.method, op.path, op.body)
        status, body = await asyncio.wait_for(reply, REQUEST_TIMEOUT)
    except (ConnectionError, asyncio.IncompleteReadError, asyncio.TimeoutError) as error:
        samples.append(Sample(conn, op, sent, time.perf_counter(), 0, repr(error).encode()))
        await connection.close()
        return await Connection.open(connection.host, connection.port)
    samples.append(Sample(conn, op, sent, time.perf_counter(), status, body))
    return connection


@dataclass
class Loop:
    """What one :func:`closed_loop` saw."""

    samples: List[Sample]
    warmup: List[Sample]
    window: Tuple[float, float]
    #: Per connection, ``(path, latency)`` in send order, marker request
    #: first: what the trace analysis aligns server spans with.
    per_conn: Dict[int, List[Tuple[str, float]]]


def closed_loop(
    host: str,
    port: int,
    streams: Sequence[Iterator[Op]],
    seconds: Optional[float],
    *,
    warmup_ops: int = 0,
) -> Loop:
    """Drive one connection per stream until ``seconds`` pass or the streams end.

    Each connection first sends ``warmup_ops`` requests of its stream,
    untimed; the measured window (first send to last reply) opens once
    every connection is done.
    """
    warmup: List[Sample] = []

    async def warm(connection: Connection, stream: Iterator[Op]) -> Connection:
        for op in itertools.islice(stream, warmup_ops):
            connection = await _send(connection, op, -1, warmup)
        return connection

    async def drive(conn, connection, stream, stop_at, samples, markers):
        sent = time.perf_counter()
        await connection.send("GET", f"/healthz?{CONN_MARKER}{conn}", None)
        markers[conn] = time.perf_counter() - sent
        for op in stream:
            if stop_at is not None and time.perf_counter() >= stop_at:
                break
            connection = await _send(connection, op, conn, samples)
        return connection

    async def run():
        connections = [await Connection.open(host, port) for _ in streams]
        try:
            connections = await asyncio.gather(*(warm(c, s) for c, s in zip(connections, streams)))
            await _marker(host, port, WINDOW_START)
            samples: List[Sample] = []
            markers: Dict[int, float] = {}
            start = time.perf_counter()
            stop_at = start + seconds if seconds is not None else None
            connections = await asyncio.gather(
                *(
                    drive(conn, connection, stream, stop_at, samples, markers)
                    for conn, (connection, stream) in enumerate(zip(connections, streams))
                )
            )
            end = max((s.done for s in samples), default=start)
            await _marker(host, port, WINDOW_END)
        finally:
            for connection in connections:
                await connection.close()
        return samples, (start, end), markers

    samples, window, markers = asyncio.run(run())
    per_conn = {conn: [("/healthz", latency)] for conn, latency in markers.items()}
    for sample in sorted(samples, key=lambda s: s.sent):
        per_conn[sample.conn].append((sample.op.path.split("?")[0], sample.latency))
    return Loop(samples, warmup, window, per_conn)
