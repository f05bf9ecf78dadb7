"""The codec registry: every registered tag round-trips, non-canonical type
nodes are rejected, and an extension type needs only the public API."""

import json
from dataclasses import dataclass
from fractions import Fraction

import pytest

from worker_extras import PolyPair

from mrdikit import cli
from mrdikit.algebra import GF, QQ, ZZ, ExactMatrix, polynomial_ring, univariate_ring
from mrdikit.errors import SchemaError, UnsupportedTypeError
from mrdikit.mrdi import (
    DeserializerState,
    GlobalSerializerState,
    Mode,
    SerializerState,
    load,
    codec,
    parse_text,
    register_codec,
    save,
    serialize_text,
    type_parts,
    validate_document,
)
from mrdikit.mrdi.codec import registered_type_tags
from mrdikit.workloads import MonomialMap

Rt, t = univariate_ring(ZZ, "reg_t")
Rxy, (x, y) = polynomial_ring(QQ, "reg_x", "reg_y")
Ruv, (u, v) = polynomial_ring(QQ, "reg_u", "reg_v")
F7 = GF(7)

# One value per registered tag; its saved type tree mentions the tag.
SAMPLES = {
    "ZZRingElem": -(10**30),
    "QQFieldElem": Fraction(-2, 7),
    "PrimeFieldElem": ExactMatrix.from_rows(F7, [[1, 6], [0, 3]]),
    "PolyRingElem": t * t - t.scale(3),
    "MPolyRingElem": x * y.scale(Fraction(1, 2)) - y,
    "ZZRing": ZZ,
    "QQField": QQ,
    "PrimeField": F7,
    "PolyRing": Rt,
    "MPolyRing": Rxy,
    "Matrix": ExactMatrix.from_rows(Rt, [[t, t * t], [t.scale(2), t]]),
    "Vector": [[1, 2], [3]],
    "Tuple": ((), [], 3, t, [Fraction(1, 2)]),
    "MonomialMap": MonomialMap(Rxy, Ruv, (u * u, u.scale(3) * v)),
    "PolyPair": PolyPair(t.scale(5), x * x - y),
}


def type_tags(node):
    name, params = type_parts(node)
    if name is not None:
        yield name
        yield from type_tags(params)
    elif isinstance(node, dict):
        for value in node.values():
            yield from type_tags(value)


def resave(value, mode, gs):
    """The bytes of ``value``, and the bytes of what those bytes load as."""
    raw = serialize_text(save(value, SerializerState(mode, gs)))
    loaded = load(parse_text(raw), DeserializerState(mode, gs))
    assert loaded == value
    return raw, serialize_text(save(loaded, SerializerState(mode, gs)))


@pytest.mark.parametrize("tag", sorted(registered_type_tags()))
def test_every_registered_tag_roundtrips_in_both_modes(tag):
    assert tag in SAMPLES, f"no sample value for the registered tag {tag}"
    value = SAMPLES[tag]
    gs = GlobalSerializerState(uuid_seed=3)
    doc = save(value, SerializerState(Mode.LONG_TERM, gs))
    assert tag in set(type_tags(doc.type_tree))
    raw, again = resave(value, Mode.LONG_TERM, GlobalSerializerState(uuid_seed=3))
    assert again == raw
    raw, again = resave(value, Mode.IPC, gs)  # the long-term save registered the rings
    assert again == raw


def test_extension_type_roundtrips_long_term_byte_identically():
    value = SAMPLES["PolyPair"]
    raw = serialize_text(save(value, SerializerState(Mode.LONG_TERM, GlobalSerializerState())))
    doc = parse_text(raw)
    assert validate_document(doc) == []
    gs = GlobalSerializerState()
    loaded = load(doc, DeserializerState(Mode.LONG_TERM, gs))
    assert loaded == value and loaded.first.parent is Rt and loaded.second.parent is Rxy
    assert serialize_text(save(loaded, SerializerState(Mode.LONG_TERM, gs))) == raw


def test_extension_type_errors_are_located():
    gs = GlobalSerializerState()
    doc = save((1, SAMPLES["PolyPair"]), SerializerState(Mode.LONG_TERM, gs))
    doc.type_tree["params"]["1"]["params"]["second"] = "not-a-uuid"
    with pytest.raises(SchemaError, match="^data/1: expected a context UUID"):
        load(doc, DeserializerState(Mode.LONG_TERM, GlobalSerializerState()))


@dataclass(frozen=True)
class Blob:
    text: str


def test_a_vector_parsed_before_its_element_codec_is_registered_loads_after(
    monkeypatch, tmp_path
):
    # A type tree is its JSON: parsing consults no codec, so the same bytes
    # give the same document whatever is registered, and an element type
    # given as text is read by the Vector decoder when the document loads.
    raw = b'{"_type": {"name": "Vector", "params": "Blob"}, "data": ["a", "b"]}'
    before = parse_text(raw)
    with pytest.raises(UnsupportedTypeError, match="^unsupported type tag: 'Blob'$"):
        load(before, DeserializerState(Mode.IPC, GlobalSerializerState()))
    path = tmp_path / "blobs.mrdi"
    path.write_bytes(raw)
    assert cli.main(["validate", str(path)]) == 1
    assert cli.main(["roundtrip", str(path)]) == 2

    monkeypatch.setattr(codec, "_ENCODERS", dict(codec._ENCODERS))
    monkeypatch.setattr(codec, "_DECODERS", dict(codec._DECODERS))
    register_codec(
        Blob, "Blob", lambda b, state: "Blob", lambda b, state: b.text,
        lambda tn, data, state: Blob(data),
    )
    assert parse_text(raw) == before
    value = load(before, DeserializerState(Mode.IPC, GlobalSerializerState()))
    assert value == [Blob("a"), Blob("b")]
    assert serialize_text(save(value, SerializerState(Mode.IPC, GlobalSerializerState()))) == (
        b'{"_type":{"name":"Vector","params":"Blob"},"data":["a","b"]}'
    )


NS = {"system": "mrdikit", "version": "0.1.0"}
# Each of these validates, and would load and re-save to different bytes.
NON_CANONICAL = {
    "tuple-keys-not-positions": (
        {"name": "Tuple", "params": {"5": "ZZRingElem", "9": "ZZRingElem"}},
        ["1", "2"],
    ),
    "typed-empty-vector": ({"name": "Vector", "params": "ZZRingElem"}, []),
    "ring-payload-not-empty": ("ZZRing", "junk"),
    "zz-element-with-a-parameter": ({"name": "ZZRingElem", "params": "QQFieldElem"}, "3"),
    "prime-field-extra-parameter": (
        {"name": "PrimeFieldElem", "params": {"modulus": "7", "extra": "1"}},
        "3",
    ),
    # A GF(p) residue loads as an int, which saves as a ZZRingElem.
    "prime-field-element-alone": ({"name": "PrimeFieldElem", "params": {"modulus": "7"}}, "3"),
    "prime-field-vector": (
        {"name": "Vector", "params": {"name": "PrimeFieldElem", "params": {"modulus": "7"}}},
        ["3", "4"],
    ),
}


@pytest.mark.parametrize("case", sorted(NON_CANONICAL))
def test_non_canonical_type_nodes_are_schema_errors(case, tmp_path):
    type_json, data = NON_CANONICAL[case]
    obj = {"_ns": NS, "_type": type_json, "_refs": {}, "data": data}
    raw = (json.dumps(obj, indent=2) + "\n").encode()
    doc = parse_text(raw)
    assert validate_document(doc) == []
    with pytest.raises(SchemaError, match="^data: "):
        load(doc, DeserializerState(Mode.LONG_TERM, GlobalSerializerState()))
    path = tmp_path / f"{case}.mrdi"
    path.write_bytes(raw)
    assert cli.main(["roundtrip", str(path)]) == 2
