import io
import json
import os
import random
import tracemalloc

import pytest

from mrdikit.errors import TransportError
from mrdikit.ipc import framing
from mrdikit.mrdi import MrdiDocument, type_node

UUID_A = "11111111-2222-4333-8444-555555555555"


def sample_doc(refs=None):
    return MrdiDocument(type_node("PolyRingElem", UUID_A), [["0", "2"], ["3", "1"]], refs=refs)


def roundtrip_one(msg):
    buf = io.BytesIO(framing.frame_bytes(msg))
    out = framing.read_message(buf)
    assert buf.read() == b""
    return out


def one_of_each_kind():
    ref = MrdiDocument("PolyRing", {"base_ring": "ZZRing", "symbol": "t"})
    return [
        framing.Call(2, "det_mod_p", sample_doc()),
        framing.Call(5, "poly_square", sample_doc({UUID_A: ref})),
        framing.Result(2, sample_doc({UUID_A: ref})),
        framing.Failure(4, "kaboom"),
    ]


def test_roundtrip_each_kind():
    for msg in one_of_each_kind():
        assert roundtrip_one(msg) == msg


_TYPE_A = b'{"name":"PolyRingElem","params":"11111111-2222-4333-8444-555555555555"}'
_RING_T = b'{"_type":"PolyRing","data":{"base_ring":"ZZRing","symbol":"t"}}'

# The wire format is a fixed point: payload keys in this order, and a
# document's ``_refs`` left out when it has none.
PINNED_FRAMES = [
    b'\x00\x00\x00\x8f\x02{"id":2,"fn":"det_mod_p","args":{"_type":' + _TYPE_A
    + b',"data":[["0","2"],["3","1"]]}}',
    b'\x00\x00\x01\x02\x02{"id":5,"fn":"poly_square","args":{"_type":' + _TYPE_A
    + b',"_refs":{"11111111-2222-4333-8444-555555555555":' + _RING_T
    + b'},"data":[["0","2"],["3","1"]]}}',
    b'\x00\x00\x00\xf0\x03{"id":2,"value":{"_type":' + _TYPE_A
    + b',"_refs":{"11111111-2222-4333-8444-555555555555":' + _RING_T
    + b'},"data":[["0","2"],["3","1"]]}}',
    b'\x00\x00\x00\x19\x04{"id":4,"error":"kaboom"}',
]


def test_frame_bytes_of_each_kind_are_pinned():
    assert [framing.frame_bytes(msg) for msg in one_of_each_kind()] == PINNED_FRAMES


def test_stream_of_messages():
    messages = [framing.Result(i, sample_doc()) for i in range(10)]
    buf = io.BytesIO(b"".join(framing.frame_bytes(m) for m in messages))
    got = []
    while True:
        msg = framing.read_message(buf)
        if msg is None:
            break
        got.append(msg)
    assert got == messages


def test_clean_eof_returns_none():
    assert framing.read_message(io.BytesIO(b"")) is None


def test_truncated_header_raises():
    with pytest.raises(TransportError):
        framing.read_message(io.BytesIO(b"\x00\x00"))


def test_truncated_body_raises():
    raw = framing.frame_bytes(framing.Failure(1, "x"))
    with pytest.raises(TransportError):
        framing.read_message(io.BytesIO(raw[:-2]))


def test_unknown_kind_rejected():
    raw = b"\x00\x00\x00\x02\x63{}"
    with pytest.raises(TransportError, match="unknown message kind"):
        framing.read_message(io.BytesIO(raw))


def test_kind_1_is_unknown():
    # A context document on its own is no message: contexts ride inside a Call.
    raw = (
        b'\x00\x00\x00\x81\x01{"id":1,"uuid":"11111111-2222-4333-8444-555555555555",'
        b'"document":' + _RING_T + b"}"
    )
    with pytest.raises(TransportError, match="^unknown message kind 1$"):
        framing.read_message(io.BytesIO(raw))


def test_kind_5_is_unknown():
    # The end of a worker's input ends it: no message kind asks it to stop.
    with pytest.raises(TransportError, match="^unknown message kind 5$"):
        framing.read_message(io.BytesIO(b"\x00\x00\x00\x02\x05{}"))


def test_garbage_payload_rejected():
    raw = b"\x00\x00\x00\x03\x05abc"
    with pytest.raises(TransportError):
        framing.read_message(io.BytesIO(raw))


@pytest.mark.parametrize(
    "payload, error",
    [
        (b"[]", "malformed frame payload for kind 3: "),
        (
            b'{"id":1,"value":{"_type":"ZZRingElem","_refs":[1],"data":"1"}}',
            "bad document in frame: value/_refs: expected an object",
        ),
        (b'{"id":1}', "malformed frame payload for kind 3: 'value'"),
    ],
    ids=["list", "refs-list", "no-value"],
)
def test_malformed_result_payload_rejected(payload, error):
    raw = framing._HEADER.pack(len(payload), framing.KIND_RESULT) + payload
    with pytest.raises(TransportError) as info:
        framing.read_message(io.BytesIO(raw))
    assert str(info.value).startswith(error)


def call_frame(args_json: bytes) -> bytes:
    body = b'{"id":1,"fn":"f","args":' + args_json + b"}"
    return framing._HEADER.pack(len(body), framing.KIND_CALL) + body


_ZZ_ONE = b'"_type":"ZZRingElem","data":"1"'


@pytest.mark.parametrize(
    "args_json, error",
    [
        (
            b'{"_ns":{"system":"mrdikit","version":"0.1.0"},' + _ZZ_ONE + b"}",
            "args: documents in a frame must not carry `_ns`",
        ),
        (b'{"_refs":{"x":' + _RING_T + b"}," + _ZZ_ONE + b"}", "args/_refs: key 'x' is not a UUID"),
        (
            b'{"_refs":{"' + UUID_A.encode() + b'":{"_refs":{},' + _ZZ_ONE + b"}}," + _ZZ_ONE + b"}",
            f"args/_refs/{UUID_A}: ref documents must not carry `_ns` or `_refs`",
        ),
    ],
    ids=["ns", "ref-key-not-a-uuid", "ref-with-refs"],
)
def test_a_frame_document_is_refused(args_json, error):
    # A frame's document may carry `_refs` keyed by UUID, and no `_ns`.
    with pytest.raises(TransportError) as info:
        framing.read_message(io.BytesIO(call_frame(args_json)))
    assert str(info.value) == "bad document in frame: " + error


def test_deeply_nested_payload_rejected():
    deep_json = b'{"_type":"ZZRingElem","data":' + b"[" * 5000 + b"]" * 5000 + b"}"
    deep_type = "ZZRingElem"
    for _ in range(600):
        deep_type = {"name": "Vector", "params": deep_type}
    deep_vector = json.dumps({"_type": deep_type, "data": "7"}).encode()
    for args_json in (deep_json, deep_vector):
        with pytest.raises(TransportError, match="nested deeper"):
            framing.read_message(io.BytesIO(call_frame(args_json)))


def test_huge_length_header_reads_without_huge_buffer():
    read_fd, write_fd = os.pipe()
    os.write(write_fd, framing._HEADER.pack(2**32 - 1, framing.KIND_CALL))
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as stream:
        tracemalloc.start()
        try:
            with pytest.raises(TransportError):
                framing.read_message(stream)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 4 * 2**20


def test_oversize_header_rejected_before_the_body():
    header = framing._HEADER.pack(framing.MAX_FRAME_BYTES + 1, framing.KIND_CALL)
    stream = io.BytesIO(header)  # no body follows
    with pytest.raises(TransportError, match="above the cap"):
        framing.read_message(stream)
    assert stream.tell() == len(header)
    # a header at the cap is read as usual: here its body is missing
    stream = io.BytesIO(framing._HEADER.pack(framing.MAX_FRAME_BYTES, framing.KIND_CALL))
    with pytest.raises(TransportError, match="stream ended inside a frame body"):
        framing.read_message(stream)


def test_oversize_write_refused_under_a_lowered_cap(monkeypatch):
    msg = framing.Call(7, "f", sample_doc())
    size = len(framing.frame_bytes(msg)) - framing._HEADER.size
    monkeypatch.setattr(framing, "MAX_FRAME_BYTES", size)
    stream = io.BytesIO()
    framing.write_message(stream, msg)  # exactly at the cap
    assert roundtrip_one(msg) == msg
    monkeypatch.setattr(framing, "MAX_FRAME_BYTES", size - 1)
    with pytest.raises(TransportError, match="exceeds the cap"):
        framing.write_message(stream, msg)
    with pytest.raises(TransportError, match="above the cap"):
        framing.read_message(io.BytesIO(stream.getvalue()))
    assert len(stream.getvalue()) == size + framing._HEADER.size


def random_message(rng):
    kind = rng.randrange(4)
    if kind == 0:
        ref = MrdiDocument(
            "PolyRing",
            {"base_ring": "ZZRing", "symbol": rng.choice("tuvw")},
        )
        return framing.Call(rng.randrange(10**6), "poly_square", sample_doc({UUID_A: ref}))
    if kind == 1:
        return framing.Call(rng.randrange(10**6), rng.choice(["f", "g", "h"]), sample_doc())
    if kind == 2:
        refs = None
        if rng.random() < 0.4:
            refs = {
                UUID_A: MrdiDocument("PolyRing", {"base_ring": "QQField", "symbol": "z"})
            }
        return framing.Result(rng.randrange(10**6), sample_doc(refs))
    text = "".join(rng.choice("abc \n\"\\{}") for _ in range(rng.randrange(20)))
    return framing.Failure(rng.randrange(10**6), text)


def test_fuzz_random_sequences():
    rng = random.Random(0xF00D)
    for _ in range(200):
        messages = [random_message(rng) for _ in range(rng.randrange(1, 8))]
        buf = io.BytesIO(b"".join(framing.frame_bytes(m) for m in messages))
        got = []
        while (msg := framing.read_message(buf)) is not None:
            got.append(msg)
        assert got == messages
