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


def test_validate_finds_uuids_in_type_parameters_and_ref_data_only():
    # Every place a parsed document can mention a UUID; the payload's own
    # data is not a place a context is named.
    uuids = [f"0000000{n}-2222-4333-8444-555555555555" for n in range(6)]
    raw = json.dumps({
        "_ns": {"system": "mrdikit", "version": "0.1.0"},
        "_type": {"name": "Tuple", "params": {"a": uuids[0], "b": {
            "name": "Vector", "params": {"name": "PolyRingElem", "params": uuids[1]}}}},
        "_refs": {UUID_A: {"_type": {"name": "PolyRing", "params": {"x": uuids[2]}},
                           "data": {"base_ring": uuids[3], "more": [["t", uuids[4]]]}}},
        "data": [uuids[5], UUID_B],
    }).encode()
    errors = validate_document(parse_text(raw))
    dangling = [e for e in errors if e.startswith("dangling reference")]
    assert dangling == [f"dangling reference: {u} not resolvable" for u in uuids[:5]]


BIG = 7 * (10**5000 - 1) // 9  # 5000 digits, past the interpreter's 4300-digit limit


@pytest.mark.parametrize(
    "where, error",
    [
        ("data", "data/0/1: non-text scalar <int too long to show> (numbers must be stored as text)"),
        ("key", "data: non-text object key <int too long to show>"),
        ("param", "_type/params/n: malformed type parameter <int too long to show>"),
        ("ref-key", "_refs: key <int too long to show> is not a UUID"),
    ],
)
def test_native_integers_past_the_digit_limit_are_named_briefly(where, error):
    doc = MrdiDocument(
        TypeNode("PolyRingElem", UUID_A),
        [["0", BIG]] if where == "data" else {BIG: "1"} if where == "key" else [],
        ns=NamespaceRecord(),
        refs={BIG if where == "ref-key" else UUID_A: ring_ref("ZZRing", "t")},
    )
    if where == "param":
        doc.type_tree = TypeNode("PolyRingElem", {"ring": UUID_A, "n": BIG})
    assert error in validate_document(doc)
    with pytest.raises(SchemaError, match="too long to show"):
        serialize_text(doc)


def test_a_long_unknown_tag_is_quoted_by_its_head():
    doc = MrdiDocument(TypeNode("T" * 5000), "1", ns=NamespaceRecord(), refs={})
    (error,) = validate_document(doc)
    assert error.startswith("_type: unknown type tag 'TTT") and len(error) < 200
    assert error.endswith("... (5002 characters)")


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
    if where is None:
        assert validate_document(doc) == []
        assert parse_text(serialize_text(doc)) == doc
    else:
        assert validate_document(doc) == [f"{where}: nested deeper than 100 levels"]
        with pytest.raises(SchemaError, match="nested deeper"):
            parse_text(nested_vector_text(type_levels, data_levels))
        with pytest.raises(SchemaError, match="nested deeper"):
            serialize_text(doc)


@pytest.mark.parametrize("mode", [Mode.LONG_TERM, Mode.IPC], ids=["long-term", "ipc"])
@pytest.mark.parametrize("part", ["type", "data"])
@pytest.mark.parametrize("levels", [MAX_NESTING_DEPTH, MAX_NESTING_DEPTH + 1, 990, 3000])
def test_the_writer_writes_exactly_what_parse_reads_back(mode, part, levels):
    doc = nested_vector_doc(levels if part == "type" else 1, levels if part == "data" else 1)
    if mode is Mode.IPC:
        doc = MrdiDocument(doc.type_tree, doc.data)
    if levels == MAX_NESTING_DEPTH:
        assert parse_text(serialize_text(doc)) == doc
        return
    step = "/params" if part == "type" else "/0"
    where = ("$/_type" if part == "type" else "$/data") + step * MAX_NESTING_DEPTH
    with pytest.raises(SchemaError) as info:
        serialize_text(doc)
    assert str(info.value) == f"{where}: nested deeper than 100 levels"


@pytest.mark.parametrize("mode", [Mode.LONG_TERM, Mode.IPC], ids=["long-term", "ipc"])
@pytest.mark.parametrize(
    "data, error",
    [
        (5, "cannot write 5: numbers and flags must be stored as text"),
        (["1", [True]], "cannot write True: numbers and flags must be stored as text"),
        ({3: "1"}, "cannot write the non-text object key 3"),
        (
            [10**5000],
            "cannot write <int too long to show>: numbers and flags must be stored as text",
        ),
    ],
    ids=["int", "flag", "int-key", "long-int"],
)
def test_the_writer_refuses_what_parse_would_not_read_back(mode, data, error):
    doc = MrdiDocument(TypeNode("ZZRingElem"), data)
    if mode is Mode.LONG_TERM:
        doc = MrdiDocument(doc.type_tree, data, ns=NamespaceRecord(), refs={})
    with pytest.raises(SchemaError) as info:
        serialize_text(doc)
    assert str(info.value) == error


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
