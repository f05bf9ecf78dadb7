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
    load,
    parse_text,
    save,
    serialize_text,
    type_node,
    validate_document,
)
from mrdikit.mrdi.document import MAX_NESTING_DEPTH

UUID_A = "11111111-2222-4333-8444-555555555555"
UUID_B = "66666666-7777-4888-9999-aaaaaaaaaaaa"


def ring_ref(base, symbol):
    return MrdiDocument("PolyRing", {"base_ring": base, "symbol": symbol})


def test_valid_longterm_document_passes():
    doc = MrdiDocument(
        type_node("PolyRingElem", UUID_A),
        [["0", "1"]],
        ns=NamespaceRecord(),
        refs={UUID_A: ring_ref("ZZRing", "t")},
    )
    assert validate_document(doc) == []


def test_cyclic_refs_detected():
    doc = MrdiDocument(
        type_node("PolyRingElem", UUID_A),
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
    doc = MrdiDocument("ZZRingElem", "1", refs={})
    errors = validate_document(doc)
    assert any("mode violation" in e for e in errors)


def test_dangling_uuid_reported():
    doc = MrdiDocument(
        type_node("PolyRingElem", UUID_A),
        [],
        ns=NamespaceRecord(),
        refs={},
    )
    errors = validate_document(doc)
    assert any("dangling reference" in e and UUID_A in e for e in errors)


def test_unknown_tag_reported():
    doc = MrdiDocument("Frobnicator", "1", ns=NamespaceRecord(), refs={})
    errors = validate_document(doc)
    assert any("unknown type tag" in e for e in errors)


def test_errors_accumulate():
    doc = MrdiDocument(
        type_node("Frobnicator", UUID_A),
        "1",
        refs={},  # also a mode violation: refs without ns
    )
    errors = validate_document(doc)
    assert len(errors) >= 3  # unknown tag, mode violation, dangling uuid


def test_ipc_document_mode():
    doc = MrdiDocument("ZZRingElem", "5")
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
        type_node("PolyRingElem", UUID_A),
        [["0", BIG]] if where == "data" else {BIG: "1"} if where == "key" else [],
        ns=NamespaceRecord(),
        refs={BIG if where == "ref-key" else UUID_A: ring_ref("ZZRing", "t")},
    )
    if where == "param":
        doc.type_tree = type_node("PolyRingElem", {"ring": UUID_A, "n": BIG})
    assert error in validate_document(doc)
    with pytest.raises(SchemaError, match="too long to show"):
        serialize_text(doc)


def test_a_long_unknown_tag_is_quoted_by_its_head():
    doc = MrdiDocument("T" * 5000, "1", ns=NamespaceRecord(), refs={})
    (error,) = validate_document(doc)
    assert error.startswith("_type: unknown type tag 'TTT") and len(error) < 200
    assert error.endswith("... (5002 characters)")


# -- byte form ----------------------------------------------------------------


def test_parse_rejects_native_numbers():
    with pytest.raises(SchemaError, match="^data: non-text scalar 5 "):
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
    tree, data = "ZZRingElem", "7"
    for _ in range(type_levels):
        tree = type_node("Vector", tree)
    for _ in range(data_levels):
        data = [data]
    return MrdiDocument(tree, data, ns=NamespaceRecord(), refs={})


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
    where = ("_type" if part == "type" else "data") + step * MAX_NESTING_DEPTH
    with pytest.raises(SchemaError) as info:
        serialize_text(doc)
    assert str(info.value) == f"{where}: nested deeper than 100 levels"


@pytest.mark.parametrize("mode", [Mode.LONG_TERM, Mode.IPC], ids=["long-term", "ipc"])
@pytest.mark.parametrize(
    "data, error",
    [
        (5, "data: non-text scalar 5 (numbers must be stored as text)"),
        (["1", [True]], "data/1/0: non-text scalar True (numbers must be stored as text)"),
        ({3: "1"}, "data: non-text object key 3"),
        (
            [10**5000],
            "data/0: non-text scalar <int too long to show> (numbers must be stored as text)",
        ),
        (("1",), "data: non-text scalar ('1',) (numbers must be stored as text)"),
    ],
    ids=["int", "flag", "int-key", "long-int", "tuple"],
)
def test_the_writer_refuses_what_parse_would_not_read_back(mode, data, error):
    doc = MrdiDocument("ZZRingElem", data)
    if mode is Mode.LONG_TERM:
        doc = MrdiDocument(doc.type_tree, data, ns=NamespaceRecord(), refs={})
    with pytest.raises(SchemaError) as info:
        serialize_text(doc)
    assert str(info.value) == error


def test_a_parameter_object_with_a_name_is_a_type_node_and_round_trips():
    # By the format an object with a `name` and at most `params` is a type
    # node wherever it sits, so it is written and read back as it is.
    tree = type_node("Vector", {"name": "ZZRingElem"})
    doc = MrdiDocument(tree, ["7"], ns=NamespaceRecord(), refs={})
    assert validate_document(doc) == []
    assert parse_text(serialize_text(doc)) == doc
    assert load(doc, DeserializerState(Mode.LONG_TERM, GlobalSerializerState())) == [7]


def test_a_mapping_with_a_name_and_another_key_round_trips():
    doc = MrdiDocument(type_node("Tuple", {"name": "x", "0": "ZZRingElem"}), [])
    assert validate_document(doc) == []
    assert parse_text(serialize_text(doc)) == doc


_NS = {"system": "mrdikit", "version": "0.1.0"}
_RING_T = {"_type": "PolyRing", "data": {"base_ring": "ZZRing", "symbol": "t"}}


def shape_case(tree, data, refs=None, raw_type=None, raw_data=None, raw_refs=None):
    """A long-term document with one shape problem, in memory and as bytes
    (None when JSON cannot hold it: an object key in JSON is always text)."""
    doc = MrdiDocument(tree, data, ns=NamespaceRecord(), refs=refs or {})
    raw = {"_ns": _NS, "_type": raw_type, "_refs": raw_refs or {}, "data": raw_data}
    return doc, None if raw_data is None else json.dumps(raw).encode()


SHAPE_CASES = {
    "non-text-scalar": (
        shape_case("ZZRingElem", {"a": ["1", 5]}, raw_type="ZZRingElem",
                   raw_data={"a": ["1", 5]}),
        "data/a/1: non-text scalar 5 (numbers must be stored as text)",
    ),
    "non-text-key": (
        shape_case("ZZRingElem", {"a": {3: "1"}}),
        "data/a: non-text object key 3",
    ),
    "deep-data": (
        (
            nested_vector_doc(1, MAX_NESTING_DEPTH + 1),
            nested_vector_text(1, data_levels=MAX_NESTING_DEPTH + 1),
        ),
        "data" + "/0" * MAX_NESTING_DEPTH + ": nested deeper than 100 levels",
    ),
    "deep-type": (
        (
            nested_vector_doc(MAX_NESTING_DEPTH + 1, 1),
            nested_vector_text(MAX_NESTING_DEPTH + 1, data_levels=1),
        ),
        "_type" + "/params" * MAX_NESTING_DEPTH + ": nested deeper than 100 levels",
    ),
    "type-param": (
        shape_case(type_node("PolyRingElem", {"ring": UUID_A, "n": 5}), "1",
                   raw_type={"name": "PolyRingElem", "params": {"ring": UUID_A, "n": 5}},
                   raw_data="1"),
        "_type/params/n: malformed type parameter 5",
    ),
    "type-name": (
        shape_case(type_node("Vector", {"name": None, "params": "x"}), [],
                   raw_type={"name": "Vector", "params": {"name": None, "params": "x"}},
                   raw_data=[]),
        "_type/params: type node needs a text `name`",
    ),
    "bare-uuid-type": (
        shape_case(UUID_A, "1", raw_type=UUID_A, raw_data="1"),
        "_type: a bare UUID cannot be a type",
    ),
    "non-uuid-ref-key": (
        shape_case("ZZRingElem", "1", refs={"x": ring_ref("ZZRing", "t")},
                   raw_type="ZZRingElem", raw_data="1", raw_refs={"x": _RING_T}),
        "_refs: key 'x' is not a UUID",
    ),
    "ref-with-ns": (
        shape_case("ZZRingElem", "1",
                   refs={UUID_A: MrdiDocument("ZZRing", {}, ns=NamespaceRecord())},
                   raw_type="ZZRingElem", raw_data="1",
                   raw_refs={UUID_A: {"_ns": _NS, "_type": "ZZRing", "data": {}}}),
        f"_refs/{UUID_A}: ref documents must not carry `_ns` or `_refs`",
    ),
    "ref-with-refs": (
        shape_case("ZZRingElem", "1",
                   refs={UUID_A: MrdiDocument("ZZRing", {}, refs={})},
                   raw_type="ZZRingElem", raw_data="1",
                   raw_refs={UUID_A: {"_type": "ZZRing", "_refs": {}, "data": {}}}),
        f"_refs/{UUID_A}: ref documents must not carry `_ns` or `_refs`",
    ),
}


@pytest.mark.parametrize("case", sorted(SHAPE_CASES))
def test_each_shape_problem_has_one_text_at_every_boundary(case):
    # validate_document lists it first, serialize_text refuses to write it
    # and parse_text to read it, all with the same text.
    (doc, raw), error = SHAPE_CASES[case]
    assert validate_document(doc)[0] == error
    with pytest.raises(SchemaError) as info:
        serialize_text(doc)
    assert str(info.value) == error
    if raw is not None:
        with pytest.raises(SchemaError) as info:
            parse_text(raw)
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
        type_node("PolyRingElem", UUID_A),
        [["0", "2"], ["3", "1"]],
        ns=NamespaceRecord(),
        refs={UUID_A: ring_ref("ZZRing", "t")},
    )
    assert parse_text(serialize_text(doc)) == doc


def test_serialize_is_stable_bytes():
    doc = MrdiDocument("ZZRingElem", "42", ns=NamespaceRecord(), refs={})
    assert serialize_text(doc) == serialize_text(doc)
    assert serialize_text(doc).endswith(b"\n")


def test_ipc_serialization_is_compact():
    doc = MrdiDocument("ZZRingElem", "42")
    raw = serialize_text(doc)
    assert b" " not in raw and b"\n" not in raw
    assert b"_ns" not in raw and b"_refs" not in raw
