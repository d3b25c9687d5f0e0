"""A minimal HTTP/1.1 request/response codec over asyncio streams.

The serving layer deliberately avoids every HTTP framework (and the
synchronous ``http.server``): the whole protocol surface the server
needs -- request line, headers, ``Content-Length`` bodies, keep-alive
-- fits in a few hundred lines over ``asyncio`` streams, keeps the
dependency footprint at zero, and leaves the event loop in full
control of backpressure.

:func:`read_request` parses one request from a ``StreamReader`` with
hard limits on header and body size (oversized or malformed input
raises :class:`ProtocolError`, which the server maps to a 4xx close).
:func:`render_response` serialises status/headers/body to bytes.
Chunked request bodies are not supported -- every client the library
ships (benchmark load generator, examples, tests) sends
``Content-Length``, and rejecting chunked keeps parsing exact.

Parsing is strict where leniency would let two parsers disagree on
where a request ends: the method and every header name must be
tokens, the target and header values printable, ``Content-Length``
plain ASCII digits, and no header may repeat.  Anything else is a 400.
"""

from __future__ import annotations

import asyncio
import re
from dataclasses import dataclass, field

__all__ = [
    "HttpRequest",
    "ProtocolError",
    "read_request",
    "render_response",
]

# RFC-recommended reason phrases for every status the server emits
REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

MAX_HEADER_BYTES = 32 * 1024
MAX_BODY_BYTES = 8 * 1024 * 1024

# RFC 9110 grammar, as far as framing depends on it
_TOKEN = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")
_TARGET = re.compile(r"[\x21-\x7e]+")
_VERSION = re.compile(r"HTTP/1\.[0-9]")
_FIELD_VALUE = re.compile(r"[\t\x20-\x7e\x80-\xff]*")
_DIGITS = re.compile(r"[0-9]+")


class ProtocolError(ValueError):
    """Malformed or over-limit HTTP input; carries the status to answer."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class HttpRequest:
    """One parsed request: method, path (query stripped), headers, body."""

    method: str
    path: str
    query: str = ""
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        """HTTP/1.1 keep-alive semantics: persistent unless ``close``."""
        return self.headers.get("connection", "").lower() != "close"


async def read_request(
    reader: asyncio.StreamReader,
    max_header_bytes: int = MAX_HEADER_BYTES,
    max_body_bytes: int = MAX_BODY_BYTES,
) -> HttpRequest | None:
    """Parse one request; ``None`` on a clean EOF before any bytes.

    Raises :class:`ProtocolError` on malformed input (400), oversized
    headers/body (413), or an EOF mid-request (400).
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-request") from exc
    except asyncio.LimitOverrunError as exc:
        raise ProtocolError("request head too large", status=413) from exc
    if len(head) > max_header_bytes:
        raise ProtocolError("request head too large", status=413)

    lines = head[:-4].decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if not (
        len(parts) == 3
        and _TOKEN.fullmatch(parts[0])
        and _TARGET.fullmatch(parts[1])
        and _VERSION.fullmatch(parts[2])
    ):
        raise ProtocolError(f"malformed request line {lines[0]!r}")
    method, target, _version = parts
    path, _, query = target.partition("?")

    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if not (sep and _TOKEN.fullmatch(name) and _FIELD_VALUE.fullmatch(value)):
            raise ProtocolError(f"malformed header line {line!r}")
        name = name.lower()
        if name in headers:
            raise ProtocolError(f"repeated header {name!r}")
        headers[name] = value.strip(" \t")

    if "transfer-encoding" in headers:
        raise ProtocolError("chunked request bodies are not supported")
    body = b""
    length_header = headers.get("content-length")
    if length_header is not None:
        if not _DIGITS.fullmatch(length_header):
            raise ProtocolError(f"bad Content-Length {length_header!r}")
        # int() refuses strings of more than 4,300 digits
        digits = length_header.lstrip("0") or "0"
        if len(digits) > 18 or int(digits) > max_body_bytes:
            raise ProtocolError("request body too large", status=413)
        length = int(digits)
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise ProtocolError("connection closed mid-body") from exc
    return HttpRequest(
        method=method.upper(), path=path, query=query,
        headers=headers, body=body,
    )


def render_response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    extra_headers: dict[str, str] | None = None,
    keep_alive: bool = True,
) -> bytes:
    """Serialise one response, always with an explicit ``Content-Length``."""
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body
