import json

import pytest

from mrdikit.errors import SchemaError
from mrdikit.mrdi import (
    DeserializerState,
    GlobalSerializerState,
    Mode,
    SerializerState,
    load,
    parse_text,
    save,
    serialize_text,
    type_node,
    validate_document,
)
from mrdikit.mrdi.document import MAX_NESTING_DEPTH, is_long_term

UUID_A = "11111111-2222-4333-8444-555555555555"
UUID_B = "66666666-7777-4888-9999-aaaaaaaaaaaa"
_NS = {"system": "mrdikit", "version": "0.1.0"}


def ring_ref(base, symbol):
    return {"_type": "PolyRing", "data": {"base_ring": base, "symbol": symbol}}


def test_valid_longterm_document_passes():
    doc = {
        "_ns": _NS,
        "_type": type_node("PolyRingElem", UUID_A),
        "_refs": {UUID_A: ring_ref("ZZRing", "t")},
        "data": [["0", "1"]],
    }
    assert validate_document(doc) == []


def test_cyclic_refs_detected():
    doc = {
        "_ns": _NS,
        "_type": type_node("PolyRingElem", UUID_A),
        "_refs": {
            UUID_A: ring_ref(UUID_B, "t"),
            UUID_B: ring_ref(UUID_A, "u"),
        },
        "data": [],
    }
    errors = validate_document(doc)
    assert any("cyclic reference" in e for e in errors)


def test_mode_violation_refs_without_ns():
    doc = {"_type": "ZZRingElem", "_refs": {}, "data": "1"}
    errors = validate_document(doc)
    assert any("mode violation" in e for e in errors)


def test_dangling_uuid_reported():
    doc = {"_ns": _NS, "_type": type_node("PolyRingElem", UUID_A), "_refs": {}, "data": []}
    errors = validate_document(doc)
    assert any("dangling reference" in e and UUID_A in e for e in errors)


def test_unknown_tag_reported():
    doc = {"_ns": _NS, "_type": "Frobnicator", "_refs": {}, "data": "1"}
    errors = validate_document(doc)
    assert any("unknown type tag" in e for e in errors)


def test_errors_accumulate():
    doc = {
        "_type": type_node("Frobnicator", UUID_A),
        "_refs": {},  # also a mode violation: refs without ns
        "data": "1",
    }
    errors = validate_document(doc)
    assert len(errors) >= 3  # unknown tag, mode violation, dangling uuid


def test_ipc_document_mode():
    doc = {"_type": "ZZRingElem", "data": "5"}
    assert not is_long_term(doc)
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
    doc = {
        "_ns": _NS,
        "_type": type_node("PolyRingElem", UUID_A),
        "_refs": {BIG if where == "ref-key" else UUID_A: ring_ref("ZZRing", "t")},
        "data": [["0", BIG]] if where == "data" else {BIG: "1"} if where == "key" else [],
    }
    if where == "param":
        doc["_type"] = type_node("PolyRingElem", {"ring": UUID_A, "n": BIG})
    assert error in validate_document(doc)
    with pytest.raises(SchemaError, match="too long to show"):
        serialize_text(doc)


def test_a_long_unknown_tag_is_quoted_by_its_head():
    doc = {"_ns": _NS, "_type": "T" * 5000, "_refs": {}, "data": "1"}
    (error,) = validate_document(doc)
    assert error.startswith("_type: unknown type tag 'TTT") and len(error) < 200
    assert error.endswith("... (5002 characters)")


@pytest.mark.parametrize("mode", [Mode.LONG_TERM, Mode.IPC], ids=["long-term", "ipc"])
@pytest.mark.parametrize(
    "keys, listed",
    [
        ({BIG: "1"}, "[<int too long to show>]"),
        ({None: "1"}, "[None]"),
        ({None: "1", 3: "x", "banana": "y"}, "['banana', 3, None]"),
    ],
    ids=["long-int", "null", "mixed"],
)
def test_a_document_with_a_key_that_is_not_text_is_refused_with_one_text(mode, keys, listed):
    # A dict built in memory can hold keys JSON cannot: they are listed
    # quoted, and serialize_text raises the text validate_document lists.
    doc = {"_type": "ZZRingElem", "data": "1", **keys}
    if mode is Mode.LONG_TERM:
        doc.update(_ns=_NS, _refs={})
    error = f"unknown keys {listed}"
    assert validate_document(doc)[0] == error
    with pytest.raises(SchemaError) as info:
        serialize_text(doc)
    assert str(info.value) == error


@pytest.mark.parametrize(
    "keys, listed",
    [({BIG: "1"}, "[<int too long to show>]"), ({None: "1"}, "[None]")],
    ids=["long-int", "null"],
)
def test_a_ref_with_a_key_that_is_not_text_is_refused_with_one_text(keys, listed):
    ref = {**ring_ref("ZZRing", "t"), **keys}
    doc = {"_ns": _NS, "_type": type_node("PolyRingElem", UUID_A), "_refs": {UUID_A: ref},
           "data": []}
    error = f"_refs/{UUID_A}: unknown keys {listed}"
    assert validate_document(doc) == [error]
    with pytest.raises(SchemaError) as info:
        serialize_text(doc)
    assert str(info.value) == error


@pytest.mark.parametrize(
    "doc",
    [
        5,
        ["_type", "data"],
        {"_ns": "x", "_type": "ZZRingElem", "_refs": [UUID_A], "data": "1"},
        {"_ns": {"system": 1}, "_type": "ZZRingElem", "_refs": {UUID_A: 5}, "data": "1"},
        {"_ns": _NS, "_type": None, "_refs": {UUID_A: {"data": None}, 7: []}},
    ],
    ids=["int", "list", "wrong-envelope", "wrong-ref", "missing-parts"],
)
def test_validate_lists_the_problems_of_any_object(doc):
    errors = validate_document(doc)
    assert errors and all(isinstance(e, str) for e in errors), errors
    with pytest.raises(SchemaError) as info:
        serialize_text(doc)
    assert str(info.value) == errors[0]


def test_a_long_cycle_of_refs_is_one_error():
    uuids = [f"{k:08x}-0000-4000-8000-000000000000" for k in range(2000)]
    refs = {u: ring_ref(uuids[k - 1], f"t{k}") for k, u in enumerate(uuids)}
    doc = {"_ns": _NS, "_type": type_node("PolyRingElem", uuids[0]), "_refs": refs, "data": []}
    # The search starts at the smallest UUID, whose base is the largest.
    trail = " -> ".join([uuids[0], *reversed(uuids)])
    assert validate_document(doc) == [f"cyclic reference through {trail}"]


def test_a_cycle_is_named_by_the_path_the_search_took():
    uuid_c = "aaaaaaaa-0000-4000-8000-000000000000"
    doc = {
        "_ns": _NS,
        "_type": type_node("PolyRingElem", UUID_A),
        "_refs": {
            UUID_A: ring_ref(UUID_B, "t"),
            UUID_B: ring_ref(uuid_c, "u"),
            uuid_c: ring_ref(UUID_B, "v"),
        },
        "data": [],
    }
    assert validate_document(doc) == [
        f"cyclic reference through {UUID_A} -> {UUID_B} -> {uuid_c} -> {UUID_B}"
    ]


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
    return {"_ns": _NS, "_type": tree, "_refs": {}, "data": data}


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
        doc = {"_type": doc["_type"], "data": doc["data"]}
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
    doc = {"_type": "ZZRingElem", "data": data}
    if mode is Mode.LONG_TERM:
        doc = {"_ns": _NS, "_type": doc["_type"], "_refs": {}, "data": data}
    with pytest.raises(SchemaError) as info:
        serialize_text(doc)
    assert str(info.value) == error


def test_a_parameter_object_with_a_name_is_a_type_node_and_round_trips():
    # By the format an object with a `name` and at most `params` is a type
    # node wherever it sits, so it is written and read back as it is.
    tree = type_node("Vector", {"name": "ZZRingElem"})
    doc = {"_ns": _NS, "_type": tree, "_refs": {}, "data": ["7"]}
    assert validate_document(doc) == []
    assert parse_text(serialize_text(doc)) == doc
    assert load(doc, DeserializerState(Mode.LONG_TERM, GlobalSerializerState())) == [7]


def test_a_mapping_with_a_name_and_another_key_round_trips():
    doc = {"_type": type_node("Tuple", {"name": "x", "0": "ZZRingElem"}), "data": []}
    assert validate_document(doc) == []
    assert parse_text(serialize_text(doc)) == doc


_RING_T = {"_type": "PolyRing", "data": {"base_ring": "ZZRing", "symbol": "t"}}


def shape_case(tree, data, refs=None, raw_type=None, raw_data=None, raw_refs=None):
    """A long-term document with one shape problem, in memory and as bytes
    (None when JSON cannot hold it: an object key in JSON is always text)."""
    doc = {"_ns": _NS, "_type": tree, "_refs": refs or {}, "data": data}
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
                   refs={UUID_A: {"_ns": _NS, "_type": "ZZRing", "data": {}}},
                   raw_type="ZZRingElem", raw_data="1",
                   raw_refs={UUID_A: {"_ns": _NS, "_type": "ZZRing", "data": {}}}),
        f"_refs/{UUID_A}: ref documents must not carry `_ns` or `_refs`",
    ),
    "ref-with-refs": (
        shape_case("ZZRingElem", "1",
                   refs={UUID_A: {"_type": "ZZRing", "_refs": {}, "data": {}}},
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
    doc = {
        "_ns": _NS,
        "_type": type_node("PolyRingElem", UUID_A),
        "_refs": {UUID_A: ring_ref("ZZRing", "t")},
        "data": [["0", "2"], ["3", "1"]],
    }
    assert parse_text(serialize_text(doc)) == doc


def test_serialize_is_stable_bytes():
    doc = {"_ns": _NS, "_type": "ZZRingElem", "_refs": {}, "data": "42"}
    assert serialize_text(doc) == serialize_text(doc)
    assert serialize_text(doc).endswith(b"\n")


def test_ipc_serialization_is_compact():
    doc = {"_type": "ZZRingElem", "data": "42"}
    raw = serialize_text(doc)
    assert b" " not in raw and b"\n" not in raw
    assert b"_ns" not in raw and b"_refs" not in raw
