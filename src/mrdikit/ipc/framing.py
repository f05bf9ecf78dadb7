"""Length-prefixed frames carrying the worker protocol.

Each frame is a 4-byte big-endian payload length, one message-kind tag byte,
then a compact JSON payload of exactly that length, whose fields the table
``_MESSAGES`` gives per kind; serialized mrdi documents travel inside it.  A
``Call`` goes to a worker and a ``Result`` or ``Failure`` answers it.  A
document in a frame carries no ``_ns``; a Call's ``_refs`` carry the contexts
the worker lacks, a Result's every context its value names.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, fields
from typing import Optional

from ..errors import SchemaError, TransportError
from ..mrdi.document import (
    MAX_NESTING_DEPTH,
    MrdiDocument,
    check_shape,
    doc_from_json,
    doc_to_json,
)

KIND_CALL = 2
KIND_RESULT = 3
KIND_FAILURE = 4

_HEADER = struct.Struct(">IB")

# The largest payload a frame may carry, 256 MiB.  ``read_message`` rejects a
# header that claims more before it reads any of the body, and
# ``write_message`` refuses to send such a frame.  The largest frame the test
# suite or a bench suite sends is a ~117 KB detcrt call.
MAX_FRAME_BYTES = 1 << 28


@dataclass
class Call:
    call_id: int
    fn: str
    args: MrdiDocument


@dataclass
class Result:
    call_id: int
    value: MrdiDocument


@dataclass
class Failure:
    call_id: int
    error: str


Message = Call | Result | Failure


# Each message kind's class and payload fields in wire order, as (key, shape)
# pairs; the i-th field carries the class's i-th attribute, and a payload that
# lacks several keys is reported by the first.  A field goes as is or as a
# document.
_PLAIN, _DOC = "plain", "document"
_MESSAGES = {
    KIND_CALL: (Call, (("id", _PLAIN), ("fn", _PLAIN), ("args", _DOC))),
    KIND_RESULT: (Result, (("id", _PLAIN), ("value", _DOC))),
    KIND_FAILURE: (Failure, (("id", _PLAIN), ("error", _PLAIN))),
}
_KIND_OF = {cls: kind for kind, (cls, _) in _MESSAGES.items()}


def encode_message(msg: Message) -> tuple[int, dict]:
    kind = _KIND_OF.get(type(msg))
    if kind is None:
        raise TransportError(f"cannot encode message {msg!r}")
    payload = {}
    for (key, shape), attr in zip(_MESSAGES[kind][1], fields(msg)):
        value = getattr(msg, attr.name)
        if shape == _PLAIN:
            payload[key] = value
        else:
            # Refused here rather than by the reader, which a bad frame ends;
            # the payloads are left to the reader.
            payload[key] = doc_to_json(value)
            check_shape(payload[key], key, ("_refs",), check_data=False)
    return kind, payload


def decode_message(kind: int, payload: dict) -> Message:
    if kind not in _MESSAGES:
        raise TransportError(f"unknown message kind {kind}")
    cls, wire_fields = _MESSAGES[kind]
    values = []
    try:
        for key, shape in wire_fields:
            if shape == _PLAIN:
                values.append(payload[key])
            else:
                check_shape(payload[key], key, ("_refs",))
                values.append(doc_from_json(payload[key]))
    except (KeyError, TypeError, AttributeError) as exc:
        raise TransportError(f"malformed frame payload for kind {kind}: {exc}") from exc
    except SchemaError as exc:
        raise TransportError(f"bad document in frame: {exc}") from exc
    return cls(*values)


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
    except ValueError as exc:  # also a number past the interpreter's digit limit
        raise TransportError(f"frame payload is not valid JSON: {exc}") from exc
    except RecursionError:
        raise TransportError(
            f"frame payload nested deeper than {MAX_NESTING_DEPTH} levels"
        ) from None
    return decode_message(kind, payload)
