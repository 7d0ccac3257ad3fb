"""Stdlib HTTP client for the SAC serving daemon.

A thin, dependency-free wrapper over :mod:`http.client` speaking the JSON
protocol of :class:`repro.server.daemon.SACServer`.  One
:class:`SACClient` holds one keep-alive connection; it is **not**
thread-safe — concurrent callers (like the benchmark's load threads) each
open their own client, exactly as concurrent network clients would.

Used by ``tests/test_server.py``, the benchmarks that drive a live daemon,
and the CI server-smoke job; it is also the reference for what any other
client (``curl``, a browser, a service mesh probe) should send — see
``docs/serving.md`` for the request/response schemas.
"""

from __future__ import annotations

import http.client
import json
from typing import Dict, List, Optional, Sequence
from urllib.parse import urlencode


class ServerError(Exception):
    """A non-2xx response from the daemon, carrying status and server message.

    ``retry_after`` is the parsed ``Retry-After`` header in seconds (set on
    admission-control 429s, ``None`` otherwise) — a well-behaved client
    backs off that long before resending.
    """

    def __init__(
        self, status: int, message: str, *, retry_after: Optional[float] = None
    ) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        self.retry_after = retry_after


class SACClient:
    """Talk JSON-over-HTTP to one running SAC serving daemon.

    Parameters
    ----------
    host / port:
        Address of the daemon (``repro-sac serve`` prints it at start-up).
    timeout:
        Socket timeout in seconds for connect and each request.

    Examples
    --------
    >>> client = SACClient("127.0.0.1", 8080)               # doctest: +SKIP
    >>> client.query(42, k=4)["found"]                      # doctest: +SKIP
    True
    >>> client.checkin(42, 0.31, 0.77)["applied"]           # doctest: +SKIP
    True
    >>> client.close()                                      # doctest: +SKIP
    """

    def __init__(self, host: str, port: int, *, timeout: float = 30.0) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self._connection: Optional[http.client.HTTPConnection] = None
        #: Response headers of the most recent request, lower-cased — how
        #: callers read the coordinator's ``X-Served-By`` /
        #: ``X-Staleness-LSN`` routing stamps (see ``docs/serving.md``).
        self.last_headers: Dict[str, str] = {}

    # -------------------------------------------------------------- transport
    def _request(self, method: str, path: str, body: Optional[dict] = None) -> dict:
        """Send one request, re-dialing once if the kept-alive socket died.

        The re-dial-and-resend is restricted to read-only requests: a
        mutation (``/checkin``, ``/edge``) whose connection dies after the
        send may already have been applied, and resending would apply it
        twice.  Mutations instead get a fresh dial *before* the send (so a
        server-closed idle keep-alive socket cannot fail them) and surface
        any later failure to the caller unretried.
        """
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        resend_safe = method == "GET" or path in ("/query", "/batch")
        if not resend_safe and self._connection is not None:
            self.close()
        for attempt in (1, 2):
            if self._connection is None:
                self._connection = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout
                )
            try:
                self._connection.request(method, path, body=payload, headers=headers)
                response = self._connection.getresponse()
                raw = response.read()
                break
            except (ConnectionError, http.client.HTTPException, OSError):
                # The server may have closed the idle keep-alive connection
                # (drain, restart); one fresh dial distinguishes that from a
                # dead server.
                self.close()
                if attempt == 2 or not resend_safe:
                    raise
        self.last_headers = {
            name.lower(): value for name, value in response.getheaders()
        }
        if response.getheader("Connection", "").lower() == "close":
            self.close()
        try:
            decoded = json.loads(raw) if raw else {}
        except json.JSONDecodeError:
            raise ServerError(response.status, f"non-JSON response: {raw[:120]!r}") from None
        if response.status >= 400:
            retry_after: Optional[float] = None
            header = response.getheader("Retry-After")
            if header is not None:
                try:
                    retry_after = float(header)
                except ValueError:
                    retry_after = None
            raise ServerError(
                response.status,
                decoded.get("error", raw.decode("utf-8", "replace")),
                retry_after=retry_after,
            )
        return decoded

    def close(self) -> None:
        """Close the underlying connection (reopened lazily on next use)."""
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "SACClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------- API
    def query(
        self,
        vertex: object,
        k: int = 4,
        *,
        algorithm: Optional[str] = None,
        deadline_ms: Optional[float] = None,
        params: Optional[Dict[str, float]] = None,
    ) -> dict:
        """``POST /query`` — answer one SAC query (label-addressed).

        ``deadline_ms`` opts the query into SLO serving: the daemon answers
        at the best ladder rung that fits the budget and reports
        ``algorithm_used`` / ``bound`` / ``deadline_missed``.  ``algorithm``
        defaults to the server's choice — ``appfast`` best-effort, the
        ``exact+`` quality ceiling under a deadline.
        """
        body: dict = {"vertex": vertex, "k": k}
        if algorithm is not None:
            body["algorithm"] = algorithm
        if deadline_ms is not None:
            body["deadline_ms"] = deadline_ms
        if params:
            body["params"] = dict(params)
        return self._request("POST", "/query", body)

    def batch(
        self,
        vertices: Sequence[object],
        k: int = 4,
        *,
        algorithm: Optional[str] = None,
        deadline_ms: Optional[float] = None,
        params: Optional[Dict[str, float]] = None,
    ) -> dict:
        """``POST /batch`` — answer an explicit batch as one unit.

        ``deadline_ms`` applies one budget to the whole batch (SLO mode);
        see :meth:`query` for the ``algorithm`` default.
        """
        body: dict = {"vertices": list(vertices), "k": k}
        if algorithm is not None:
            body["algorithm"] = algorithm
        if deadline_ms is not None:
            body["deadline_ms"] = deadline_ms
        if params:
            body["params"] = dict(params)
        return self._request("POST", "/batch", body)

    def checkin(self, user: object, x: float, y: float) -> dict:
        """``POST /checkin`` — move one user (incremental engines only)."""
        return self._request("POST", "/checkin", {"user": user, "x": x, "y": y})

    def edge(self, u: object, v: object, op: str = "insert") -> dict:
        """``POST /edge`` — insert or delete one friendship edge."""
        return self._request("POST", "/edge", {"u": u, "v": v, "op": op})

    def compact(self) -> dict:
        """``POST /compact`` — roll the writer's WAL into a fresh snapshot.

        Writer-role daemons only (replicas answer 403, unconfigured daemons
        400); see the Replication section of ``docs/serving.md``.
        """
        return self._request("POST", "/compact", {})

    # ---------------------------------------------------------- subscriptions
    def subscribe(
        self,
        vertex: object,
        k: int = 4,
        *,
        algorithm: Optional[str] = None,
        params: Optional[Dict[str, float]] = None,
    ) -> dict:
        """``POST /subscribe`` — register a standing query.

        Returns the initial community snapshot (``type: "snapshot"``) whose
        ``id`` addresses every later :meth:`poll` / :meth:`unsubscribe`
        call.
        """
        body: dict = {"vertex": vertex, "k": k}
        if algorithm is not None:
            body["algorithm"] = algorithm
        if params:
            body["params"] = dict(params)
        return self._request("POST", "/subscribe", body)

    def poll(self, sub_id: str, *, timeout_ms: Optional[float] = None) -> dict:
        """``GET /subscribe`` — long-poll one subscription for deltas.

        Returns ``{"id", "messages", "draining"}``; ``messages`` may be
        empty when the park timed out.  The HTTP socket timeout is widened
        past the requested park so a quiet subscription never reads as a
        dead server; a ``timeout_ms`` beyond the server's configured cap is
        silently capped server-side.
        """
        query = {"id": sub_id}
        if timeout_ms is not None:
            query["timeout_ms"] = repr(float(timeout_ms))
        path = f"/subscribe?{urlencode(query)}"
        budget = (30000.0 if timeout_ms is None else timeout_ms) / 1000.0 + 10.0
        if budget <= self.timeout:
            return self._request("GET", path)
        # A park longer than the client's socket timeout needs a dedicated
        # wider-timeout connection — the shared keep-alive one would abort
        # the poll early.
        connection = http.client.HTTPConnection(self.host, self.port, timeout=budget)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            raw = response.read()
        finally:
            connection.close()
        decoded = json.loads(raw) if raw else {}
        if response.status >= 400:
            raise ServerError(
                response.status, decoded.get("error", raw.decode("utf-8", "replace"))
            )
        return decoded

    def unsubscribe(self, sub_id: str) -> dict:
        """``POST /unsubscribe`` — drop a standing query."""
        return self._request("POST", "/unsubscribe", {"id": sub_id})

    def stats(self) -> dict:
        """``GET /stats`` — endpoint, batcher, engine, cache and SLO counters."""
        return self._request("GET", "/stats")

    def healthz(self) -> dict:
        """``GET /healthz`` — liveness and the serving surface's shape."""
        return self._request("GET", "/healthz")


def parallel_queries(
    address: tuple,
    jobs: Sequence[dict],
    *,
    threads: int = 8,
    timeout: float = 30.0,
) -> List[dict]:
    """Fire ``jobs`` (kwargs for :meth:`SACClient.query`) from many threads.

    Each thread owns its own connection, as independent network clients
    would, which is what lets the daemon coalesce the concurrent singles
    into micro-batches.  Results are returned in ``jobs`` order.  Shared by
    the benchmark and the server tests.
    """
    import threading

    results: List[Optional[dict]] = [None] * len(jobs)
    errors: List[BaseException] = []
    cursor = iter(range(len(jobs)))
    lock = threading.Lock()

    def worker() -> None:
        with SACClient(address[0], address[1], timeout=timeout) as client:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                try:
                    results[index] = client.query(**jobs[index])
                except BaseException as error:  # noqa: BLE001 - reported to caller
                    with lock:
                        errors.append(error)
                    return

    pool = [threading.Thread(target=worker) for _ in range(max(1, threads))]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    if errors:
        raise errors[0]
    return [result for result in results if result is not None]
