"""Minimal JSON-over-HTTP/1.1 framing for the SAC serving daemon.

The daemon (:mod:`repro.server.daemon`) speaks plain HTTP so any stock
client — ``curl``, ``http.client``, a load balancer's health prober — can
talk to it, but it deliberately implements only the slice of the protocol a
JSON API needs: request line + headers + ``Content-Length`` body in,
``application/json`` responses out, keep-alive connections.  Chunked
transfer encoding exists only on the *response* side, and only for the
subscription streaming endpoint (``GET /subscribe?stream=1`` — one JSON
message per chunk, see :func:`encode_stream_head` / :func:`encode_chunk`);
chunked request bodies, multipart, and TLS stay out of scope — a reverse
proxy owns those concerns in any real deployment (see ``docs/serving.md``).

Everything here is transport framing; routing and request semantics live in
the daemon.  Parsing failures raise :class:`HttpError` carrying the HTTP
status the connection handler should answer with, so malformed traffic is
always answered (400/413/431...), never dropped or allowed to wedge the
reader.
"""

from __future__ import annotations

import json
from asyncio import IncompleteReadError, LimitOverrunError, StreamReader, StreamWriter
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

#: Reason phrases for every status the daemon emits.
REASONS = {
    200: "OK",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Upper bound on one header line (and the request line); longer is a 431.
MAX_HEADER_LINE = 8192

#: Upper bound on the number of header lines in one request or response.
MAX_HEADER_COUNT = 100


class HttpError(Exception):
    """A protocol-level failure, carrying the HTTP status to answer with.

    ``headers`` (optional) are emitted verbatim on the error response — the
    admission controller uses this to attach ``Retry-After`` to its 429s.
    """

    def __init__(
        self, status: int, message: str, *, headers: Optional[Dict[str, str]] = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers: Dict[str, str] = dict(headers or {})


@dataclass
class Request:
    """One parsed HTTP request: method, path, query, headers, raw body.

    ``path`` never carries the query string — the daemon routes on the bare
    path — so handlers that take URL parameters (the subscription poll
    endpoint) read the raw ``query`` and parse it with
    :func:`urllib.parse.parse_qs`.
    """

    method: str
    path: str
    query: str = ""
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        """Whether the client asked to keep the connection open (HTTP/1.1 default)."""
        return self.headers.get("connection", "keep-alive").lower() != "close"

    def json(self) -> dict:
        """Decode the body as a JSON object; 400 on anything else.

        An empty body decodes as ``{}`` so bodyless POSTs to endpoints whose
        parameters are all optional still work.
        """
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body)
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise HttpError(400, f"request body is not valid JSON: {error}") from None
        if not isinstance(payload, dict):
            raise HttpError(400, "request body must be a JSON object")
        return payload


async def _read_line(reader: StreamReader) -> bytes:
    """Read one CRLF/LF-terminated line, bounding its length."""
    try:
        line = await reader.readuntil(b"\n")
    except IncompleteReadError as error:
        if not error.partial:
            raise ConnectionClosed() from None
        raise HttpError(400, "connection closed mid-request") from None
    except LimitOverrunError:
        raise HttpError(431, "header line too long") from None
    if len(line) > MAX_HEADER_LINE:
        raise HttpError(431, "header line too long")
    return line.rstrip(b"\r\n")


class ConnectionClosed(Exception):
    """The peer closed the connection cleanly between requests."""


async def _read_headers(
    reader: StreamReader, *, too_many: int, malformed: int, what: str
) -> Dict[str, str]:
    """Read header lines up to the blank line into a lower-cased dict.

    The bound counts lines, not distinct names.  Over :data:`MAX_HEADER_COUNT`
    lines fails with ``too_many``; a line without a colon, EOF, or a second
    ``Content-Length`` that disagrees with the first (RFC 9112 §6.3: ambiguous
    framing, the request-smuggling setup) with ``malformed``.
    """
    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADER_COUNT + 1):
        try:
            raw = await _read_line(reader)
        except ConnectionClosed:
            raise HttpError(malformed, f"connection closed inside {what} headers") from None
        if not raw:
            return headers
        name, sep, value = raw.partition(b":")
        if not sep:
            raise HttpError(malformed, f"malformed {what} header line: {raw[:120]!r}")
        key = name.decode("latin-1").strip().lower()
        text = value.decode("latin-1").strip(" \t")
        if key == "content-length" and headers.get(key, text) != text:
            raise HttpError(malformed, f"conflicting {what} Content-Length headers")
        headers[key] = text
    raise HttpError(too_many, f"too many {what} header lines")


def _content_length(headers: Dict[str, str], *, malformed: int) -> int:
    """The ``Content-Length`` header (``0`` when absent); ``malformed`` if not ASCII digits."""
    text = headers.get("content-length", "0")
    # ASCII digits only: int() would also take "+21", "2_1" and spaces.
    if not (text.isascii() and text.isdigit()):
        raise HttpError(malformed, f"invalid Content-Length {text!r}")
    return int(text)


async def read_request(reader: StreamReader, *, max_body_bytes: int) -> Request:
    """Parse one HTTP request off the stream.

    Raises :class:`ConnectionClosed` on a clean EOF before any byte of a new
    request (the keep-alive loop's normal exit), and :class:`HttpError` for
    anything malformed or over the ``max_body_bytes`` bound.
    """
    line = await _read_line(reader)
    parts = line.split()
    if len(parts) != 3:
        raise HttpError(400, f"malformed request line: {line[:120]!r}")
    method, target, version = parts
    if not version.startswith(b"HTTP/1."):
        raise HttpError(400, f"unsupported protocol version {version!r}")

    headers = await _read_headers(reader, too_many=431, malformed=400, what="request")
    if "transfer-encoding" in headers:
        raise HttpError(400, "chunked transfer encoding is not supported")
    body = b""
    length = _content_length(headers, malformed=400)
    if length > max_body_bytes:
        raise HttpError(413, f"request body of {length} bytes exceeds the {max_body_bytes} byte limit")
    if length:
        try:
            body = await reader.readexactly(length)
        except IncompleteReadError:
            raise HttpError(400, "connection closed inside the request body") from None

    # The daemon routes on the bare path; the query string (if any) is kept
    # alongside for handlers that take URL parameters.
    path, _, query = target.decode("latin-1").partition("?")
    return Request(
        method=method.decode("latin-1").upper(),
        path=path,
        query=query,
        headers=headers,
        body=body,
    )


def encode_response(
    status: int,
    payload: Union[dict, bytes],
    *,
    keep_alive: bool = True,
    extra_headers: Optional[Dict[str, str]] = None,
) -> bytes:
    """Serialise one JSON response to wire bytes.

    A ``bytes`` payload is an encoded JSON body, sent as is: how the
    replication coordinator passes a backend's reply through unchanged.
    """
    body = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


async def write_response(
    writer: StreamWriter,
    status: int,
    payload: Union[dict, bytes],
    *,
    keep_alive: bool = True,
    extra_headers: Optional[Dict[str, str]] = None,
) -> None:
    """Write one JSON response (see :func:`encode_response`) and flush it."""
    writer.write(
        encode_response(
            status, payload, keep_alive=keep_alive, extra_headers=extra_headers
        )
    )
    await writer.drain()


#: Terminates a chunked response: the zero-length last chunk + final CRLF.
LAST_CHUNK = b"0\r\n\r\n"


def encode_stream_head(
    status: int = 200, *, extra_headers: Optional[Dict[str, str]] = None
) -> bytes:
    """Response head of a chunked (streaming) reply.

    The body that follows is a sequence of :func:`encode_chunk` frames ended
    by :data:`LAST_CHUNK`.  Streaming responses always close the connection
    afterwards — a parked stream cannot be multiplexed with keep-alive
    request/response traffic on the same socket.
    """
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        "Transfer-Encoding: chunked",
        "Connection: close",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def encode_chunk(data: bytes) -> bytes:
    """Frame one chunk of a chunked response (empty data is a no-op frame)."""
    if not data:
        return b""
    return f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n"


def error_payload(status: int, message: str) -> Tuple[int, dict]:
    """Build the uniform error body every failure path answers with."""
    return status, {"error": message, "status": status}


def encode_request(
    method: str,
    path: str,
    body: bytes = b"",
    *,
    host: str = "localhost",
    keep_alive: bool = True,
) -> bytes:
    """Serialise one request to wire bytes — the client half of the framing.

    Used by the replication coordinator (:mod:`repro.replication`) to proxy
    requests to backends over asyncio streams; bodies are passed through as
    raw bytes so a proxied request is re-framed, never re-interpreted.
    """
    lines = [
        f"{method} {path} HTTP/1.1",
        f"Host: {host}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


async def read_response(
    reader: StreamReader, *, max_body_bytes: int
) -> Tuple[int, Dict[str, str], bytes]:
    """Parse one HTTP response off the stream: ``(status, headers, body)``.

    The client-side twin of :func:`read_request`, with the same bounded
    header and body limits and the same digits-only ``Content-Length``.
    Raises :class:`ConnectionClosed` on EOF before the status line and
    :class:`HttpError` (as a 502-ish framing failure) for malformed
    upstream responses.
    """
    line = await _read_line(reader)
    parts = line.split(None, 2)
    if len(parts) < 2 or not parts[0].startswith(b"HTTP/1."):
        raise HttpError(502, f"malformed response status line: {line[:120]!r}")
    try:
        status = int(parts[1])
    except ValueError:
        raise HttpError(502, f"malformed response status {parts[1]!r}") from None

    headers = await _read_headers(reader, too_many=502, malformed=502, what="response")
    body = b""
    length = _content_length(headers, malformed=502)
    if length > max_body_bytes:
        raise HttpError(502, f"unacceptable response body length {length}")
    if length:
        try:
            body = await reader.readexactly(length)
        except IncompleteReadError:
            raise HttpError(502, "connection closed inside the response body") from None
    return status, headers, body
