import io
import json
import os
import random
import tracemalloc

import pytest

from mrdikit.errors import TransportError
from mrdikit.ipc import framing
from mrdikit.mrdi import MrdiDocument, TypeNode

UUID_A = "11111111-2222-4333-8444-555555555555"


def sample_doc():
    return MrdiDocument(TypeNode("PolyRingElem", UUID_A), [["0", "2"], ["3", "1"]])


def roundtrip_one(msg):
    buf = io.BytesIO(framing.frame_bytes(msg))
    out = framing.read_message(buf)
    assert buf.read() == b""
    return out


def test_roundtrip_each_kind():
    ref = MrdiDocument(TypeNode("PolyRing"), {"base_ring": "ZZRing", "symbol": "t"})
    messages = [
        framing.LoadContext(1, UUID_A, ref),
        framing.Call(2, "det_mod_p", sample_doc()),
        framing.Result(2, sample_doc(), {UUID_A: ref}),
        framing.Result(3),
        framing.Failure(4, "kaboom"),
        framing.Shutdown(),
    ]
    for msg in messages:
        assert roundtrip_one(msg) == msg


def test_stream_of_messages():
    messages = [framing.Result(i) for i in range(10)] + [framing.Shutdown()]
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


def test_garbage_payload_rejected():
    raw = b"\x00\x00\x00\x03\x05abc"
    with pytest.raises(TransportError):
        framing.read_message(io.BytesIO(raw))


def call_frame(args_json: bytes) -> bytes:
    body = b'{"id":1,"fn":"f","args":' + args_json + b"}"
    return framing._HEADER.pack(len(body), framing.KIND_CALL) + body


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
    kind = rng.randrange(5)
    if kind == 0:
        ref = MrdiDocument(
            TypeNode("PolyRing"),
            {"base_ring": "ZZRing", "symbol": rng.choice("tuvw")},
        )
        return framing.LoadContext(rng.randrange(10**6), UUID_A, ref)
    if kind == 1:
        return framing.Call(rng.randrange(10**6), rng.choice(["f", "g", "h"]), sample_doc())
    if kind == 2:
        refs = {}
        if rng.random() < 0.4:
            refs[UUID_A] = MrdiDocument(
                TypeNode("PolyRing"), {"base_ring": "QQField", "symbol": "z"}
            )
        value = sample_doc() if rng.random() < 0.8 else None
        return framing.Result(rng.randrange(10**6), value, refs)
    if kind == 3:
        text = "".join(rng.choice("abc \n\"\\{}") for _ in range(rng.randrange(20)))
        return framing.Failure(rng.randrange(10**6), text)
    return framing.Shutdown()


def test_fuzz_random_sequences():
    rng = random.Random(0xF00D)
    for _ in range(200):
        messages = [random_message(rng) for _ in range(rng.randrange(1, 8))]
        buf = io.BytesIO(b"".join(framing.frame_bytes(m) for m in messages))
        got = []
        while (msg := framing.read_message(buf)) is not None:
            got.append(msg)
        assert got == messages
