import json

import pytest

from mrdikit.errors import SchemaError
from mrdikit.mrdi import (
    DeserializerState,
    GlobalSerializerState,
    Mode,
    MrdiDocument,
    NamespaceRecord,
    SerializerState,
    TypeNode,
    load,
    parse_text,
    save,
    serialize_text,
    validate_document,
)
from mrdikit.mrdi.document import MAX_NESTING_DEPTH

UUID_A = "11111111-2222-4333-8444-555555555555"
UUID_B = "66666666-7777-4888-9999-aaaaaaaaaaaa"


def ring_ref(base, symbol):
    return MrdiDocument(TypeNode("PolyRing"), {"base_ring": base, "symbol": symbol})


def test_valid_longterm_document_passes():
    doc = MrdiDocument(
        TypeNode("PolyRingElem", UUID_A),
        [["0", "1"]],
        ns=NamespaceRecord(),
        refs={UUID_A: ring_ref("ZZRing", "t")},
    )
    assert validate_document(doc) == []


def test_cyclic_refs_detected():
    doc = MrdiDocument(
        TypeNode("PolyRingElem", UUID_A),
        [],
        ns=NamespaceRecord(),
        refs={
            UUID_A: ring_ref(UUID_B, "t"),
            UUID_B: ring_ref(UUID_A, "u"),
        },
    )
    errors = validate_document(doc)
    assert any("cyclic reference" in e for e in errors)


def test_mode_violation_refs_without_ns():
    doc = MrdiDocument(TypeNode("ZZRingElem"), "1", refs={})
    errors = validate_document(doc)
    assert any("mode violation" in e for e in errors)


def test_dangling_uuid_reported():
    doc = MrdiDocument(
        TypeNode("PolyRingElem", UUID_A),
        [],
        ns=NamespaceRecord(),
        refs={},
    )
    errors = validate_document(doc)
    assert any("dangling reference" in e and UUID_A in e for e in errors)


def test_unknown_tag_reported():
    doc = MrdiDocument(TypeNode("Frobnicator"), "1", ns=NamespaceRecord(), refs={})
    errors = validate_document(doc)
    assert any("unknown type tag" in e for e in errors)


def test_errors_accumulate():
    doc = MrdiDocument(
        TypeNode("Frobnicator", UUID_A),
        "1",
        refs={},  # also a mode violation: refs without ns
    )
    errors = validate_document(doc)
    assert len(errors) >= 3  # unknown tag, mode violation, dangling uuid


def test_ipc_document_mode():
    doc = MrdiDocument(TypeNode("ZZRingElem"), "5")
    assert doc.mode is Mode.IPC
    assert validate_document(doc) == []


# -- byte form ----------------------------------------------------------------


def test_parse_rejects_native_numbers():
    with pytest.raises(SchemaError, match="native value"):
        parse_text(b'{"_type": "ZZRingElem", "data": 5}')


def test_parse_rejects_unknown_top_level_keys():
    with pytest.raises(SchemaError, match="unknown keys"):
        parse_text(b'{"_type": "ZZRingElem", "data": "5", "banana": "1"}')


def test_parse_rejects_missing_type():
    with pytest.raises(SchemaError, match="missing"):
        parse_text(b'{"data": "5"}')


def test_parse_rejects_malformed_json():
    with pytest.raises(SchemaError, match="malformed JSON"):
        parse_text(b"{nope")


def nested_vector_text(levels, data_levels=None):
    """A long-term document whose `_type` nests ``levels`` Vector nodes and
    whose `data` nests ``data_levels`` (default ``levels``) arrays."""
    type_node, data = "ZZRingElem", "7"
    for _ in range(levels):
        type_node = {"name": "Vector", "params": type_node}
    for _ in range(levels if data_levels is None else data_levels):
        data = [data]
    doc = {"_ns": {"system": "mrdikit", "version": "0.1.0"}, "_type": type_node,
           "_refs": {}, "data": data}
    return json.dumps(doc).encode()


def test_nesting_at_the_limit_round_trips():
    value = 7
    for _ in range(MAX_NESTING_DEPTH):
        value = [value]
    state = GlobalSerializerState()
    raw = serialize_text(save(value, SerializerState(Mode.LONG_TERM, state)))
    assert load(parse_text(raw), DeserializerState(Mode.LONG_TERM, state)) == value


@pytest.mark.parametrize(
    "raw",
    [
        nested_vector_text(600),
        nested_vector_text(MAX_NESTING_DEPTH + 1),
        nested_vector_text(1, data_levels=MAX_NESTING_DEPTH + 1),
        b'{"_type": "ZZRingElem", "data": ' + b"[" * 5000 + b"]" * 5000 + b"}",
    ],
    ids=["vector-type-600", "type-past-limit", "data-past-limit", "json-5000"],
)
def test_parse_rejects_deep_nesting(raw):
    with pytest.raises(SchemaError, match="nested deeper"):
        parse_text(raw)


def nested_vector_doc(type_levels, data_levels):
    """``nested_vector_text`` as an in-memory document."""
    type_node, data = TypeNode("ZZRingElem"), "7"
    for _ in range(type_levels):
        type_node = TypeNode("Vector", type_node)
    for _ in range(data_levels):
        data = [data]
    return MrdiDocument(type_node, data, ns=NamespaceRecord(), refs={})


@pytest.mark.parametrize(
    "type_levels, data_levels, where",
    [
        (MAX_NESTING_DEPTH, MAX_NESTING_DEPTH, None),
        (MAX_NESTING_DEPTH + 1, 1, "_type" + "/params" * MAX_NESTING_DEPTH),
        (1, MAX_NESTING_DEPTH + 1, "data" + "/0" * MAX_NESTING_DEPTH),
    ],
    ids=["at-limit", "type-past-limit", "data-past-limit"],
)
def test_validate_agrees_with_parse_on_nesting(type_levels, data_levels, where):
    doc = nested_vector_doc(type_levels, data_levels)
    raw = serialize_text(doc)
    if where is None:
        assert validate_document(doc) == []
        assert parse_text(raw) == doc
    else:
        assert validate_document(doc) == [f"{where}: nested deeper than 100 levels"]
        with pytest.raises(SchemaError, match="nested deeper"):
            parse_text(raw)


def test_parse_rejects_refs_inside_refs():
    raw = (
        b'{"_ns": {"system": "s", "version": "1"}, "_type": "ZZRingElem",'
        b' "_refs": {"' + UUID_A.encode() + b'": {"_type": "PolyRing", "_refs": {},'
        b' "data": {}}}, "data": "5"}'
    )
    with pytest.raises(SchemaError, match="ref documents"):
        parse_text(raw)


def test_serialize_parse_identity_on_documents():
    doc = MrdiDocument(
        TypeNode("PolyRingElem", UUID_A),
        [["0", "2"], ["3", "1"]],
        ns=NamespaceRecord(),
        refs={UUID_A: ring_ref("ZZRing", "t")},
    )
    assert parse_text(serialize_text(doc)) == doc


def test_serialize_is_stable_bytes():
    doc = MrdiDocument(TypeNode("ZZRingElem"), "42", ns=NamespaceRecord(), refs={})
    assert serialize_text(doc) == serialize_text(doc)
    assert serialize_text(doc).endswith(b"\n")


def test_ipc_serialization_is_compact():
    doc = MrdiDocument(TypeNode("ZZRingElem"), "42")
    raw = serialize_text(doc)
    assert b" " not in raw and b"\n" not in raw
    assert b"_ns" not in raw and b"_refs" not in raw
