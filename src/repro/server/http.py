"""Minimal HTTP/1.1 over asyncio streams — just what the API needs.

The repo is stdlib-only and the public surface is a small JSON API, so
there is no ASGI framework here: :func:`read_request` parses one
request off an :class:`asyncio.StreamReader` (request line, headers,
``Content-Length``-framed body) and :class:`Response` renders the
reply.  Supported on purpose:

- HTTP/1.0 and HTTP/1.1 with keep-alive (1.1 default; honoured unless
  either side says ``Connection: close``);
- ``Content-Length`` bodies only — chunked uploads get ``411``;
- size limits on the request line, header block and body, so one
  client cannot balloon server memory.

Not supported (the deployment story is "behind a reverse proxy or on a
trusted network", see ``docs/server.md``): TLS, chunked
transfer-encoding, multipart, compression, HTTP/2.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Optional
from urllib.parse import parse_qs, urlsplit

__all__ = [
    "API_HEADERS",
    "HttpError",
    "Request",
    "Response",
    "read_request",
    "status_reasons",
]

#: Hard limits, generous for XML documents but bounded.
MAX_REQUEST_LINE = 8192
MAX_HEADER_BYTES = 65536
MAX_BODY = 32 * 1024 * 1024

_REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    411: "Length Required",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Every non-standard header the API reads or writes, in one place.
#: ``tools/check_docs.py`` diffs this against the headers documented in
#: ``docs/server.md`` (both directions), so a header cannot be added,
#: renamed or dropped without the reference following.
API_HEADERS = (
    "Idempotency-Key",
    "Retry-After",
    "X-Repro-Deadline-Ms",
    "X-Repro-Idempotent-Replay",
    "X-Repro-Queue-Depth",
    "X-Repro-Request-Id",
    "X-Repro-Span-Id",
)


def status_reasons() -> dict[int, str]:
    """The status codes the server can emit (docs drift-check hook)."""
    return dict(_REASONS)


class HttpError(Exception):
    """A protocol-level problem mapped straight to a status code."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes
    http_version: str = "HTTP/1.1"

    @property
    def keep_alive(self) -> bool:
        connection = self.headers.get("connection", "").lower()
        if self.http_version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"

    def json(self) -> dict:
        """The body as a JSON object (400 on anything else)."""
        if not self.body:
            raise HttpError(400, "request body must be a JSON object")
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise HttpError(400, f"malformed JSON body: {error}") from error
        if not isinstance(payload, dict):
            raise HttpError(400, "request body must be a JSON object")
        return payload


@dataclass
class Response:
    """One HTTP response; :meth:`to_bytes` renders the wire form."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: dict[str, str] = field(default_factory=dict)

    @classmethod
    def json(
        cls, payload: dict, status: int = 200, headers: Optional[dict] = None
    ) -> "Response":
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        return cls(status=status, body=body, headers=dict(headers or {}))

    @classmethod
    def error(
        cls,
        status: int,
        code: str,
        message: str,
        headers: Optional[dict] = None,
    ) -> "Response":
        return cls.json(
            {"error": {"code": code, "message": message}},
            status=status,
            headers=headers,
        )

    def to_bytes(self, keep_alive: bool) -> bytes:
        reason = _REASONS.get(self.status, "Unknown")
        lines = [f"HTTP/1.1 {self.status} {reason}"]
        headers = dict(self.headers)
        headers.setdefault("Content-Type", self.content_type)
        headers["Content-Length"] = str(len(self.body))
        headers["Connection"] = "keep-alive" if keep_alive else "close"
        for name, value in headers.items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        return head + self.body


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request; ``None`` on a clean EOF before any bytes.

    Raises :class:`HttpError` for malformed or over-limit input — the
    caller responds with the error's status and closes the connection.
    """
    try:
        line = await reader.readline()
    except (ConnectionError, asyncio.LimitOverrunError):
        return None
    if not line:
        return None
    if len(line) > MAX_REQUEST_LINE:
        raise HttpError(413, "request line too long")
    try:
        method, target, version = line.decode("latin-1").split()
    except ValueError:
        raise HttpError(400, "malformed request line") from None
    if version not in ("HTTP/1.0", "HTTP/1.1"):
        raise HttpError(400, f"unsupported protocol {version}")

    headers: dict[str, str] = {}
    header_bytes = 0
    while True:
        line = await reader.readline()
        if not line:
            raise HttpError(400, "connection closed inside headers")
        header_bytes += len(line)
        if header_bytes > MAX_HEADER_BYTES:
            raise HttpError(413, "header block too large")
        if line in (b"\r\n", b"\n"):
            break
        try:
            name, _, value = line.decode("latin-1").partition(":")
        except UnicodeDecodeError:  # pragma: no cover - latin-1 total
            raise HttpError(400, "undecodable header") from None
        if not _:
            raise HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()

    if "transfer-encoding" in headers:
        raise HttpError(411, "chunked bodies are not supported; "
                             "send Content-Length")
    body = b""
    length_header = headers.get("content-length")
    if length_header is not None:
        try:
            length = int(length_header)
        except ValueError:
            raise HttpError(400, "malformed Content-Length") from None
        if length < 0:
            raise HttpError(400, "malformed Content-Length")
        if length > MAX_BODY:
            raise HttpError(
                413, f"body of {length} bytes exceeds the "
                     f"{MAX_BODY}-byte limit"
            )
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise HttpError(400, "connection closed inside body") from None
    elif method in ("POST", "PUT", "PATCH"):
        raise HttpError(411, "POST requests need a Content-Length")

    split = urlsplit(target)
    query = {
        key: values[-1]
        for key, values in parse_qs(
            split.query, keep_blank_values=True
        ).items()
    }
    # The path stays percent-encoded: the router unquotes per segment,
    # so an encoded "/" inside a doc id cannot masquerade as a
    # path separator.
    return Request(
        method=method.upper(),
        path=split.path or "/",
        query=query,
        headers=headers,
        body=body,
        http_version=version,
    )
