"""Wire protocol for the serving tier: length-prefixed JSON frames.

Every message — request or response — is one *frame*: a 4-byte big-endian
unsigned length followed by that many bytes of UTF-8 JSON.  The framing is
deliberately minimal (no versioned header, no compression): it keeps the
protocol implementable from any language in a few lines while still giving
clean message boundaries over TCP.  The in-process transport skips the
bytes entirely and passes the same dictionaries.

Requests carry ``op`` (``execute``, ``cancel``, ``metrics``, ``programs``,
``ping``), a client-chosen ``id`` echoed on the response, and an optional
``tenant``.  Responses are ``{"id", "ok": true, ...}`` or ``{"id", "ok":
false, "error": {"code", "message", "retryable", "retry_after_s"?}}``.
Overload and quota rejections are *retryable* — the client is told to back
off and retry rather than silently queued; everything else is not.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any

from repro.datamodel.table import Table
from repro.exceptions import PolystoreError

#: Frames larger than this are refused (a corrupt length prefix must not
#: make the server try to allocate gigabytes).
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LENGTH = struct.Struct(">I")

#: Size of the length prefix that starts every frame.
FRAME_PREFIX_BYTES = _LENGTH.size

# -- error codes ----------------------------------------------------------------------

#: Admission control rejected the request: queues are at their bound.
OVERLOADED = "OVERLOADED"
#: The tenant's token bucket is empty; retry after ``retry_after_s``.
QUOTA_EXCEEDED = "QUOTA_EXCEEDED"
#: The request was cancelled (client ``cancel`` op or disconnect).
CANCELLED = "CANCELLED"
#: The request's deadline passed before it completed (or before it ran).
DEADLINE_EXCEEDED = "DEADLINE_EXCEEDED"
#: The request was malformed (unknown op, missing fields, bad params).
BAD_REQUEST = "BAD_REQUEST"
#: ``execute`` named a program the server has not registered.
UNKNOWN_PROGRAM = "UNKNOWN_PROGRAM"
#: The execution failed inside the engine stack.
INTERNAL = "INTERNAL"
#: The server is stopping and no longer admits work.
SHUTTING_DOWN = "SHUTTING_DOWN"

#: Codes a well-behaved client may retry (with backoff / after the hint).
RETRYABLE_CODES = frozenset({OVERLOADED, QUOTA_EXCEEDED, SHUTTING_DOWN})


class ProtocolError(PolystoreError):
    """A frame or message violated the wire protocol."""


# -- framing --------------------------------------------------------------------------


def encode_frame(message: dict[str, Any]) -> bytes:
    """One message as length-prefixed JSON bytes."""
    body = json.dumps(message, separators=(",", ":"), default=str).encode()
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds MAX_FRAME_BYTES")
    return _LENGTH.pack(len(body)) + body


def decode_body(body: bytes) -> dict[str, Any]:
    """Parse one frame body; the message must be a JSON object."""
    try:
        message = json.loads(body)
    except ValueError as exc:
        raise ProtocolError(f"frame body is not valid JSON: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError("frame body must be a JSON object")
    return message


def frame_length(prefix: bytes) -> int:
    """Decode and bound-check a 4-byte length prefix."""
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"declared frame length {length} exceeds MAX_FRAME_BYTES")
    return length


def read_frame_sync(sock: socket.socket) -> dict[str, Any] | None:
    """Blocking frame read from a plain socket; ``None`` on a clean EOF."""
    prefix = _recv_exact(sock, _LENGTH.size)
    if prefix is None:
        return None
    body = _recv_exact(sock, frame_length(prefix))
    if body is None:
        raise ProtocolError("connection closed mid-frame")
    return decode_body(body)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Exactly ``n`` bytes, ``None`` on EOF before the first byte."""
    if n == 0:
        return b""
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if not chunks:
                return None
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# -- responses ------------------------------------------------------------------------


def ok_response(request_id: Any, **fields: Any) -> dict[str, Any]:
    """A success response echoing the request id."""
    return {"id": request_id, "ok": True, **fields}


def error_response(request_id: Any, code: str, message: str, *,
                   retry_after_s: float | None = None) -> dict[str, Any]:
    """A failure response; ``retryable`` is derived from the code."""
    error: dict[str, Any] = {
        "code": code,
        "message": message,
        "retryable": code in RETRYABLE_CODES,
    }
    if retry_after_s is not None:
        error["retry_after_s"] = round(retry_after_s, 6)
    return {"id": request_id, "ok": False, "error": error}


# -- value serialization --------------------------------------------------------------


def serialize_value(value: Any) -> Any:
    """One execution output as a JSON-friendly value.

    Tables become ``{"kind": "table", "columns": [...], "rows": [[...]]}``
    (row-major, column order preserved); everything else is passed through
    and left to ``json.dumps(default=str)`` — model summaries and plain
    dicts survive, exotic handles degrade to their string form.
    """
    if isinstance(value, Table):
        return {
            "kind": "table",
            "columns": list(value.schema.names),
            "rows": [list(row) for row in value.rows],
        }
    return value


def serialize_outputs(outputs: dict[str, Any]) -> dict[str, Any]:
    """Every named output serialized via :func:`serialize_value`."""
    return {name: serialize_value(value) for name, value in outputs.items()}
