"""Length-prefixed frames carrying the worker protocol.

Each frame is a 4-byte big-endian payload length, one message-kind tag byte,
then a compact JSON payload of exactly that length.  Serialized mrdi
documents travel inside the JSON payload.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Optional

from ..errors import SchemaError, TransportError
from ..mrdi.document import MAX_NESTING_DEPTH, MrdiDocument
from ..mrdi.textio import _doc_to_json, _parse_doc

KIND_LOAD_CONTEXT = 1
KIND_CALL = 2
KIND_RESULT = 3
KIND_FAILURE = 4
KIND_SHUTDOWN = 5

_HEADER = struct.Struct(">IB")

# The largest payload a frame may carry, 256 MiB.  ``read_message`` rejects a
# header that claims more before it reads any of the body, and
# ``write_message`` refuses to send such a frame.  The largest frame the test
# suite or a bench suite sends is a ~117 KB detcrt call.
MAX_FRAME_BYTES = 1 << 28


@dataclass
class LoadContext:
    call_id: int
    uuid: str
    document: MrdiDocument


@dataclass
class Call:
    call_id: int
    fn: str
    args: MrdiDocument


@dataclass
class Result:
    call_id: int
    value: Optional[MrdiDocument] = None
    refs: dict[str, MrdiDocument] = field(default_factory=dict)


@dataclass
class Failure:
    call_id: int
    error: str


@dataclass
class Shutdown:
    pass


Message = LoadContext | Call | Result | Failure | Shutdown


def _wire_doc(doc: MrdiDocument):
    return _doc_to_json(doc)


def _unwire_doc(obj, path) -> MrdiDocument:
    try:
        return _parse_doc(obj, path, False)
    except SchemaError as exc:
        raise TransportError(f"bad document in frame: {exc}") from exc


def encode_message(msg: Message) -> tuple[int, dict]:
    if isinstance(msg, LoadContext):
        return KIND_LOAD_CONTEXT, {
            "id": msg.call_id,
            "uuid": msg.uuid,
            "document": _wire_doc(msg.document),
        }
    if isinstance(msg, Call):
        return KIND_CALL, {"id": msg.call_id, "fn": msg.fn, "args": _wire_doc(msg.args)}
    if isinstance(msg, Result):
        payload = {"id": msg.call_id}
        if msg.value is not None:
            payload["value"] = _wire_doc(msg.value)
        if msg.refs:
            payload["refs"] = {u: _wire_doc(d) for u, d in msg.refs.items()}
        return KIND_RESULT, payload
    if isinstance(msg, Failure):
        return KIND_FAILURE, {"id": msg.call_id, "error": msg.error}
    if isinstance(msg, Shutdown):
        return KIND_SHUTDOWN, {}
    raise TransportError(f"cannot encode message {msg!r}")


def decode_message(kind: int, payload: dict) -> Message:
    try:
        if kind == KIND_LOAD_CONTEXT:
            return LoadContext(
                payload["id"], payload["uuid"], _unwire_doc(payload["document"], "document")
            )
        if kind == KIND_CALL:
            return Call(payload["id"], payload["fn"], _unwire_doc(payload["args"], "args"))
        if kind == KIND_RESULT:
            value = payload.get("value")
            refs = payload.get("refs") or {}
            return Result(
                payload["id"],
                _unwire_doc(value, "value") if value is not None else None,
                {u: _unwire_doc(d, f"refs/{u}") for u, d in refs.items()},
            )
        if kind == KIND_FAILURE:
            return Failure(payload["id"], payload["error"])
        if kind == KIND_SHUTDOWN:
            return Shutdown()
    except (KeyError, TypeError) as exc:
        raise TransportError(f"malformed frame payload for kind {kind}: {exc}") from exc
    raise TransportError(f"unknown message kind {kind}")


def frame_bytes(msg: Message) -> bytes:
    kind, payload = encode_message(msg)
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise TransportError(
            f"frame payload of {len(body)} bytes exceeds the cap of {MAX_FRAME_BYTES} bytes"
        )
    return _HEADER.pack(len(body), kind) + body


def write_message(stream, msg: Message) -> None:
    try:
        stream.write(frame_bytes(msg))
        stream.flush()
    except (BrokenPipeError, OSError, ValueError) as exc:
        raise TransportError(f"write failed: {exc}") from exc


# A header may claim up to MAX_FRAME_BYTES, so bodies are read in pieces of at
# most this size and the buffer grows only with bytes that arrive.
_READ_CHUNK = 1 << 20


def _read_exact(stream, n: int) -> Optional[bytearray]:
    buf = bytearray()
    while len(buf) < n:
        got = stream.read(min(n - len(buf), _READ_CHUNK))
        if not got:
            if not buf:
                return None
            raise TransportError(f"truncated frame: wanted {n} bytes, got {len(buf)}")
        buf += got
    return buf


def read_message(stream) -> Optional[Message]:
    """Next message from the stream, or None on a clean end-of-stream."""
    header = _read_exact(stream, _HEADER.size)
    if header is None:
        return None
    length, kind = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise TransportError(
            f"frame header claims {length} bytes, above the cap of {MAX_FRAME_BYTES} bytes"
        )
    body = _read_exact(stream, length) if length else b""
    if body is None:
        raise TransportError("stream ended inside a frame body")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TransportError(f"frame payload is not valid JSON: {exc}") from exc
    except RecursionError:
        raise TransportError(
            f"frame payload nested deeper than {MAX_NESTING_DEPTH} levels"
        ) from None
    return decode_message(kind, payload)
