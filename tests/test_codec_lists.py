"""Whole-list coefficient codecs and the long-term text writer.

The error texts pinned here are the ones the term-by-term codec gave: the
list codecs must keep every message and every ``…/i`` location, and accept
exactly the same documents.  A document holding a value the algebra rejects
(a composite modulus, bad ring symbols, a negative dimension or exponent, a
constant map image) raises a SchemaError located at a document path, and so
does a worker's context preload of such a ref document.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from mrdikit.algebra import (
    GF,
    QQ,
    ZZ,
    ExactMatrix,
    Polynomial,
    polynomial_ring,
    univariate_ring,
)
from mrdikit.errors import MrdiKitError, SchemaError
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
from mrdikit.mrdi.codec import load_context_document
from mrdikit.mrdi.document import MAX_NESTING_DEPTH
from mrdikit.workloads import MonomialMap

GOLDEN = Path(__file__).parent / "golden"

Rt, t = univariate_ring(ZZ, "t")
Qt, qt = univariate_ring(QQ, "t")
Ft, ft = univariate_ring(GF(7), "t")
Rxy, (x, y) = polynomial_ring(QQ, "x", "y")
ONE = Polynomial.constant(Rt, 1)
P = ONE + t.scale(2) + (t * t).scale(3) + (t * t * t).scale(4)  # 1 + 2t + 3t^2 + 4t^3
Q = x * x * y + x.scale(Fraction(-1, 2)) + y.scale(3) + Polynomial.constant(Rxy, 5)


def long_term_text(value):
    state = SerializerState(Mode.LONG_TERM, GlobalSerializerState(uuid_seed=5))
    return serialize_text(save(value, state))


def edited(value, edit):
    """The long-term text of ``value`` with ``edit`` applied to its data."""
    obj = json.loads(long_term_text(value))
    edit(obj["data"])
    return json.dumps(obj, indent=2).encode()


def load_long_term(raw):
    return load(parse_text(raw), DeserializerState(Mode.LONG_TERM, GlobalSerializerState()))


def edited_ref(value, edit):
    """The long-term text of ``value``, whose one ref has ``edit`` applied to its data."""
    obj = json.loads(long_term_text(value))
    (ref,) = obj["_refs"].values()
    edit(ref["data"])
    return json.dumps(obj, indent=2).encode()


def load_ring(modulus):
    doc = MrdiDocument(TypeNode("PrimeField", {"modulus": modulus}), {})
    return load(doc, DeserializerState(Mode.LONG_TERM, GlobalSerializerState()))


PRELOAD_UUID = "0b5c9a3e-6f1d-4e2a-9c7b-8d4f2e1a3b5c"


def preload(ref_data):
    """A worker's context preload of a ``PolyRing`` ref document with ``ref_data``."""
    doc = MrdiDocument(TypeNode("PolyRing"), ref_data)
    return load_context_document(doc, GlobalSerializerState(), PRELOAD_UUID)


def ipc_state(*rings):
    gs = GlobalSerializerState(uuid_seed=9)
    for ring in rings:
        gs.register_context(ring)
    return gs


def load_ipc(value, edit, *rings):
    gs = ipc_state(*rings)
    doc = save(value, SerializerState(Mode.IPC, gs))
    obj = json.loads(serialize_text(doc))
    edit(obj["data"])
    raw = json.dumps(obj, separators=(",", ":")).encode()
    return load(parse_text(raw), DeserializerState(Mode.IPC, gs))


def put(*path_and_value):
    *path, value = path_and_value

    def edit(data):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value

    return edit


def both(*edits):
    def edit(data):
        for e in edits:
            e(data)

    return edit


def fig1_map():
    S, _ = polynomial_ring(QQ, "a", "b")
    T, (s, u) = polynomial_ring(QQ, "s", "u")
    return MonomialMap(S, T, (s * s, s * u.scale(3)))


ERROR_CASES = {
    # long-term univariate payloads: [degree, coefficient] pairs
    "lt-degree-leading-zero": lambda: load_long_term(edited([P, P], put(1, 2, 0, "05"))),
    "lt-degree-plus": lambda: load_long_term(edited([P, P], put(1, 2, 0, "+5"))),
    "lt-coefficient-leading-zero": lambda: load_long_term(edited([P, P], put(1, 2, 1, "05"))),
    "lt-coefficient-plus": lambda: load_long_term(edited([P, P], put(1, 2, 1, "+5"))),
    "lt-negative-degree": lambda: load_long_term(edited([P, P], put(1, 2, 0, "-1"))),
    "lt-bad-pair": lambda: load_long_term(edited([P, P], put(1, 2, ["2"]))),
    "lt-first-error-in-term-order": lambda: load_long_term(
        edited([P, P], both(put(1, 3, 0, "05"), put(1, 1, 1, "x")))
    ),
    "lt-residue-out-of-range": lambda: load_long_term(
        edited(ft + Polynomial.constant(Ft, 3), put(1, 1, "9"))
    ),
    "lt-matrix-entry": lambda: load_long_term(
        edited(ExactMatrix.from_rows(Rt, [[P, t], [ONE, P]]), put("entries", 3, 1, 1, "+5"))
    ),
    "lt-zz-matrix-entry": lambda: load_long_term(
        edited(ExactMatrix.from_rows(ZZ, [[1, 2], [3, 4]]), put("entries", 2, "05"))
    ),
    "lt-zz-vector-item": lambda: load_long_term(edited([1, 2, 3], put(1, "+5"))),
    "lt-qq-vector-item": lambda: load_long_term(
        edited([Fraction(1, 2), Fraction(3)], put(0, "2/4"))
    ),
    "lt-payload-not-a-list": lambda: load_long_term(edited([P, P], put(1, "1"))),
    # IPC dense payloads: coefficients from degree zero up
    "ipc-dense-leading-zero": lambda: load_ipc([P, P], put(1, 2, "05"), Rt),
    "ipc-dense-plus": lambda: load_ipc([P, P], put(1, 2, "+5"), Rt),
    "ipc-dense-rational-not-lowest": lambda: load_ipc(
        [qt + Polynomial.constant(Qt, Fraction(1, 3))], put(0, 1, "2/4"), Qt
    ),
    "ipc-dense-native-int": lambda: load(
        MrdiDocument(TypeNode("PolyRingElem", ipc_state(Rt).uuid_for(Rt)), ["1", 5]),
        DeserializerState(Mode.IPC, ipc_state(Rt)),
    ),
    # multivariate payloads: [exponents, coefficient] pairs
    "mpoly-exponent-leading-zero": lambda: load_long_term(edited([Q, Q], put(1, 2, 0, 1, "05"))),
    "mpoly-exponent-plus": lambda: load_long_term(edited([Q, Q], put(1, 2, 0, 1, "+5"))),
    "mpoly-exponent-length": lambda: load_long_term(edited([Q, Q], put(1, 2, 0, ["1"]))),
    "mpoly-negative-exponent": lambda: load_long_term(edited([Q, Q], put(1, 2, 0, 1, "-1"))),
    "mpoly-coefficient-plus": lambda: load_long_term(edited([Q, Q], put(1, 2, 1, "+5"))),
    "mpoly-rational-not-lowest": lambda: load_long_term(edited([Q, Q], put(1, 1, 1, "2/4"))),
    "mpoly-rational-denominator-one": lambda: load_long_term(edited([Q, Q], put(1, 1, 1, "3/1"))),
    "map-image-exponent": lambda: load_long_term(
        edited(fig1_map(), put("images", 1, 0, 0, 1, "01"))
    ),
    # values the algebra rejects, located like every other bad document
    "map-two-term-image": lambda: load_long_term(
        edited(fig1_map(), lambda data: data["images"][1].append([["0", "0"], "1"]))
    ),
    "matrix-negative-nrows": lambda: load_long_term(
        edited(ExactMatrix.from_rows(ZZ, []), put("nrows", "-1"))
    ),
    "matrix-negative-nrows-with-entries": lambda: load_long_term(
        edited(ExactMatrix.from_rows(ZZ, [[1, 2]]), put("nrows", "-1"))
    ),
    "matrix-negative-ncols-with-entries": lambda: load_long_term(
        edited(ExactMatrix.from_rows(ZZ, [[1], [2]]), put("ncols", "-1"))
    ),
    "prime-field-composite": lambda: load_ring("8"),
    "prime-field-one": lambda: load_ring("1"),
    "prime-field-undecided": lambda: load_ring("3317044064679887385961983"),
    "ref-symbols-empty": lambda: load_long_term(edited_ref(Q, put("symbols", []))),
    "ref-symbols-repeated": lambda: load_long_term(edited_ref(Q, put("symbols", ["x", "x"]))),
    "ref-symbols-empty-text": lambda: load_long_term(edited_ref(Q, put("symbols", [""]))),
    "ref-symbol-empty-text": lambda: load_long_term(edited_ref(P, put("symbol", ""))),
    "preload-symbols-repeated": lambda: preload({"base_ring": "ZZRing", "symbols": ["x", "x"]}),
    "preload-prime-field-composite": lambda: preload(
        {"base_ring": {"name": "PrimeField", "params": {"modulus": "8"}}, "symbol": "x"}
    ),
    # native numbers deep in the data tree
    "parse-native-number": lambda: parse_text(edited([P, P], put(1, 2, 1, 5))),
    "parse-native-bool": lambda: parse_text(edited([Q, Q], put(1, 2, 0, 1, True))),
    "parse-native-in-ref": lambda: parse_text(
        long_term_text(Q).replace(b'"x"', b"null", 1)
    ),
}

# Exception type and text of each case, as the term-by-term codec raised them.
EXPECTED = {
    "ipc-dense-leading-zero": ("SchemaError", "data/1/2: expected a decimal integer, got '05'"),
    "ipc-dense-native-int": ("SchemaError", "data/1: expected a decimal integer, got 5"),
    "ipc-dense-plus": ("SchemaError", "data/1/2: expected a decimal integer, got '+5'"),
    "ipc-dense-rational-not-lowest": ("SchemaError", "data/0/1: malformed rational '2/4'"),
    "lt-bad-pair": ("SchemaError", "data/1/2: expected a [degree, coefficient] pair"),
    "lt-coefficient-leading-zero": (
        "SchemaError",
        "data/1/2: expected a decimal integer, got '05'",
    ),
    "lt-coefficient-plus": ("SchemaError", "data/1/2: expected a decimal integer, got '+5'"),
    "lt-degree-leading-zero": ("SchemaError", "data/1/2: expected a decimal integer, got '05'"),
    "lt-degree-plus": ("SchemaError", "data/1/2: expected a decimal integer, got '+5'"),
    "lt-first-error-in-term-order": (
        "SchemaError",
        "data/1/1: expected a decimal integer, got 'x'",
    ),
    "lt-matrix-entry": ("SchemaError", "data/entries/3/1: expected a decimal integer, got '+5'"),
    "lt-negative-degree": ("SchemaError", "data/1/2: negative degree"),
    "lt-payload-not-a-list": ("SchemaError", "data/1: polynomial payload must be a sequence"),
    "lt-qq-vector-item": ("SchemaError", "data/0: malformed rational '2/4'"),
    "lt-residue-out-of-range": ("SchemaError", "data/1: residue 9 out of range for p=7"),
    "lt-zz-matrix-entry": ("SchemaError", "data/entries/2: expected a decimal integer, got '05'"),
    "lt-zz-vector-item": ("SchemaError", "data/1: expected a decimal integer, got '+5'"),
    "map-image-exponent": ("SchemaError", "data/images/1/0: expected a decimal integer, got '01'"),
    "map-two-term-image": ("SchemaError", "data: images must be single nonzero terms"),
    "matrix-negative-nrows": (
        "SchemaError",
        "data/nrows: matrix dimensions must be nonnegative, got -1",
    ),
    "matrix-negative-nrows-with-entries": (
        "SchemaError",
        "data/nrows: matrix dimensions must be nonnegative, got -1",
    ),
    "matrix-negative-ncols-with-entries": (
        "SchemaError",
        "data/ncols: matrix dimensions must be nonnegative, got -1",
    ),
    "mpoly-coefficient-plus": ("SchemaError", "data/1/2: malformed rational '+5'"),
    "mpoly-exponent-leading-zero": (
        "SchemaError",
        "data/1/2: expected a decimal integer, got '05'",
    ),
    "mpoly-exponent-length": ("SchemaError", "data/1/2: exponent vector has length 1, ring has 2"),
    "mpoly-exponent-plus": ("SchemaError", "data/1/2: expected a decimal integer, got '+5'"),
    "mpoly-negative-exponent": ("SchemaError", "data/1/2: negative exponent"),
    "mpoly-rational-denominator-one": ("SchemaError", "data/1/1: malformed rational '3/1'"),
    "mpoly-rational-not-lowest": ("SchemaError", "data/1/1: malformed rational '2/4'"),
    "prime-field-composite": ("SchemaError", "data: 8 is not prime"),
    "prime-field-one": (
        "SchemaError",
        "data: prime field modulus must be an integer >= 2, got 1",
    ),
    "prime-field-undecided": (
        "SchemaError",
        "data: primality of 3317044064679887385961983 is not decided: "
        "moduli must be below 3317044064679887385961981",
    ),
    "preload-prime-field-composite": ("SchemaError", f"_refs/{PRELOAD_UUID}: 8 is not prime"),
    "preload-symbols-repeated": (
        "SchemaError",
        f"_refs/{PRELOAD_UUID}: duplicate ring symbols in ('x', 'x')",
    ),
    "ref-symbol-empty-text": (
        "SchemaError",
        "_refs/457c769f-39d8-4441-99c0-e5bdbcfbc85b: polynomial ring symbol must be a nonempty string",
    ),
    "ref-symbols-empty": (
        "SchemaError",
        "_refs/457c769f-39d8-4441-99c0-e5bdbcfbc85b: multivariate ring needs at least one symbol",
    ),
    "ref-symbols-empty-text": (
        "SchemaError",
        "_refs/457c769f-39d8-4441-99c0-e5bdbcfbc85b: ring symbols must be nonempty strings",
    ),
    "ref-symbols-repeated": (
        "SchemaError",
        "_refs/457c769f-39d8-4441-99c0-e5bdbcfbc85b: duplicate ring symbols in ('x', 'x')",
    ),
    "parse-native-bool": (
        "SchemaError",
        "$/data/1/2/0/1: native value True; numbers and flags must be stored as text",
    ),
    "parse-native-in-ref": (
        "SchemaError",
        "$/_refs/457c769f-39d8-4441-99c0-e5bdbcfbc85b/data/symbols/0: "
        "native value None; numbers and flags must be stored as text",
    ),
    "parse-native-number": (
        "SchemaError",
        "$/data/1/2/1: native value 5; numbers and flags must be stored as text",
    ),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_error_text_unchanged(case):
    with pytest.raises(MrdiKitError) as info:
        ERROR_CASES[case]()
    got = (type(info.value).__name__, str(info.value))
    assert got == EXPECTED[case]


def test_validate_error_text_unchanged():
    doc = parse_text(long_term_text((P, Q)))
    doc.data[0][2][1] = 5
    doc.data[1].insert(1, {"a": [True, "1"], 3: ["x"], "b": {"c": None}})
    (ref_key,) = [k for k, ref in doc.refs.items() if ref.type_tree.name == "MPolyRing"]
    doc.refs[ref_key].data["symbols"][1] = 2.5
    assert validate_document(doc) == [
        "data/0/2/1: non-text scalar 5 (numbers must be stored as text)",
        "data/1/1/a/0: non-text scalar True (numbers must be stored as text)",
        "data/1/1: non-text object key 3",
        "data/1/1/b/c: non-text scalar None (numbers must be stored as text)",
        f"_refs/{ref_key}/data/symbols/1: non-text scalar 2.5 (numbers must be stored as text)",
    ]


NON_CANONICAL = {
    "ZZRingElem": [
        "1_000", " 5", "5 ", "\t5", "+5", "\u0665", "05", "-0", "-05", "00", "-", "", "\u00b2",
        "+" + "1" * 5000, "0" + "1" * 5000, "1" * 3000 + " " + "1" * 3000, "\u0665" * 5000,
    ],
    "QQFieldElem": [
        "+1/2", "1/+2", "1/ 2", "1_0/3", "2/4", "1/-2", "3/1", "0/5", "1/02", "1/0", "3/", "/3",
        "1/2/3", " 1/2", "1.5", "1e3", "\u0661/\u0662", "2/" + "4" * 5000,
    ],
}


@pytest.mark.parametrize(
    "tag, text", [(tag, text) for tag, texts in NON_CANONICAL.items() for text in texts]
)
def test_list_readers_reject_what_the_scalar_readers_reject(tag, text):
    gs = GlobalSerializerState()
    with pytest.raises(SchemaError) as one:
        load(MrdiDocument(TypeNode(tag), text), DeserializerState(Mode.IPC, gs))
    with pytest.raises(SchemaError) as many:
        doc = MrdiDocument(TypeNode("Vector", TypeNode(tag)), ["1", text, "2"])
        load(doc, DeserializerState(Mode.IPC, gs))
    assert str(many.value) == str(one.value).replace("data: ", "data/1: ", 1)


# -- accepted inputs: non-canonical term order is normalized -------------------


def load_data(value, data, mode=Mode.LONG_TERM):
    """``value``'s document with ``data`` in place of its payload, loaded."""
    gs = ipc_state(Rt, Qt, Ft, Rxy)
    doc = save(value, SerializerState(mode, gs))
    doc.data = data
    return load(parse_text(serialize_text(doc)), DeserializerState(mode, gs))


@pytest.mark.parametrize(
    "value, data, mode, terms",
    [
        (P, [["3", "4"], ["0", "1"]], Mode.LONG_TERM, [((3,), 4), ((0,), 1)]),
        (P, [["1", "2"], ["1", "5"], ["2", "0"]], Mode.LONG_TERM, [((1,), 7)]),
        (P, [["1", "2"], ["1", "-2"]], Mode.LONG_TERM, []),
        (P, ["0", "3", "0", "0"], Mode.IPC, [((1,), 3)]),
        (ft, [["0", "6"], ["2", "0"]], Mode.LONG_TERM, [((0,), 6)]),
        (Q, [[["0", "0"], "1"], [["2", "1"], "-1/2"]], Mode.LONG_TERM,
         [((2, 1), Fraction(-1, 2)), ((0, 0), 1)]),
        (Q, [[["0", "1"], "1"], [["0", "1"], "2"], [["1", "0"], "0"]], Mode.IPC, [((0, 1), 3)]),
    ],
    ids=["descending", "repeated-and-zero", "cancelling", "dense-trailing-zeros",
         "residues", "mpoly-ascending", "mpoly-repeated"],
)
def test_non_canonical_terms_are_normalized(value, data, mode, terms):
    got = load_data(value, data, mode)
    assert got == Polynomial.from_terms(value.parent, terms)
    assert got.terms == tuple(
        sorted(got.terms, key=lambda term: (sum(term[0]), term[0]), reverse=True)
    )


# -- integers past the interpreter's digit limit ----------------------------------

BIG = 10**5000 + 7  # 5001 digits, past the 4300-digit default of int() and str()


def big_values():
    return {
        "lt-univariate-coefficient": (Polynomial.from_terms(Rt, [((3,), BIG), ((0,), -BIG)]), True),
        "lt-univariate-degree": (Polynomial.from_terms(Rt, [((BIG,), 2), ((0,), 1)]), False),
        "qq-univariate": (
            Polynomial.from_terms(Qt, [((2,), Fraction(BIG, 3)), ((0,), Fraction(1, BIG))]), True
        ),
        "mpoly-exponent": (Polynomial.from_terms(Rxy, [((BIG, 1), 1), ((0, 2), -1)]), False),
        "mpoly-coefficient": (
            Polynomial.from_terms(Rxy, [((1, 1), Fraction(-BIG, BIG + 2)), ((0, 0), BIG)]), True
        ),
        "zz-vector": ([BIG, -BIG, 5], True),
        "qq-vector": ([Fraction(-1, BIG), Fraction(BIG, 7)], True),
        "zz-matrix": (ExactMatrix.from_rows(ZZ, [[BIG, 1], [0, -BIG]]), True),
        "zz-t-matrix": (ExactMatrix.from_rows(Rt, [[t.scale(BIG), ONE], [ONE, t]]), True),
    }


@pytest.mark.parametrize("case", sorted(big_values()))
def test_integers_past_the_digit_limit_round_trip_in_every_shape(case):
    value, dense_ok = big_values()[case]
    modes = [Mode.LONG_TERM, Mode.IPC] if dense_ok else [Mode.LONG_TERM]
    for mode in modes:
        gs = ipc_state(Rt, Qt, Rxy)
        raw = serialize_text(save(value, SerializerState(mode, gs)))
        assert b"1" + b"0" * 4999 + b"7" in raw
        got = load(parse_text(raw), DeserializerState(mode, gs))
        assert got == value
        assert serialize_text(save(got, SerializerState(mode, gs))) == raw


# -- the long-term writer is json.dumps(obj, indent=2) ----------------------------


def nested(levels, leaf):
    for i in range(levels):
        leaf = [leaf] if i % 2 else {"k": leaf}
    return leaf


ODD_TEXT = ["", "é", "☃", "\U0001d11e", "\x00\x1f\x7f", '"', "\\", '\\"', "\n\r\t\b\f", "\ud800"]

ADVERSARIAL = {
    "empties": [[], {}, [[]], [{}], {"a": []}, {"b": {}}, [[], [[]], {"c": [{}]}]],
    "text": ODD_TEXT,
    "keys": {text: {text: [text]} for text in ODD_TEXT},
    "deepest": nested(MAX_NESTING_DEPTH, "7"),
    "deepest-empty": nested(MAX_NESTING_DEPTH - 1, []),
}


def doc_tree(data, system="mrdikit", symbol="t"):
    """A long-term document holding ``data`` and the JSON tree it stands for."""
    doc = MrdiDocument(
        TypeNode("PolyRingElem", "11111111-2222-4333-8444-555555555555"),
        data,
        ns=NamespaceRecord(system, "0.1.0"),
        refs={
            "11111111-2222-4333-8444-555555555555": MrdiDocument(
                TypeNode("PolyRing"), {"base_ring": "ZZRing", "symbol": symbol}
            )
        },
    )
    tree = {
        "_ns": {"system": system, "version": "0.1.0"},
        "_type": {"name": "PolyRingElem", "params": "11111111-2222-4333-8444-555555555555"},
        "_refs": {
            "11111111-2222-4333-8444-555555555555": {
                "_type": "PolyRing",
                "data": {"base_ring": "ZZRing", "symbol": symbol},
            }
        },
        "data": data,
    }
    return doc, tree


def dumps(tree):
    return (json.dumps(tree, indent=2) + "\n").encode()


@pytest.mark.parametrize("case", sorted(ADVERSARIAL))
def test_writer_matches_json_dumps_on_adversarial_trees(case):
    doc, tree = doc_tree(ADVERSARIAL[case])
    assert serialize_text(doc) == dumps(tree)
    assert parse_text(serialize_text(doc)) == doc


def test_writer_matches_json_dumps_on_odd_envelope_text():
    for text in ODD_TEXT[1:]:
        doc, tree = doc_tree(["1"], system=text, symbol=text)
        assert serialize_text(doc) == dumps(tree)


def test_writer_matches_json_dumps_on_random_trees():
    rng = random.Random(2024)
    alphabet = "ab01-/\"\\\n\t\x00é☃\U0001d11e"

    def text():
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 4)))

    def tree(depth):
        roll = rng.random()
        if depth == 0 or roll < 0.4:
            return text()
        if roll < 0.7:
            return [tree(depth - 1) for _ in range(rng.randint(0, 4))]
        return {text(): tree(depth - 1) for _ in range(rng.randint(0, 4))}

    for _ in range(300):
        doc, expected = doc_tree(tree(6))
        assert serialize_text(doc) == dumps(expected)


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.mrdi")), ids=lambda p: p.name)
def test_writer_matches_json_dumps_on_golden_files(path):
    raw = path.read_bytes()
    assert serialize_text(parse_text(raw)) == raw == dumps(json.loads(raw))


@pytest.mark.parametrize(
    "data",
    [["1", 5], {"a": True}, [[None]], ["1.5", 1.5], {1: "a"}],
    ids=["int", "bool", "null", "float", "int-key"],
)
def test_writer_rejects_native_values(data):
    doc, _ = doc_tree(data)
    with pytest.raises(SchemaError, match="cannot write"):
        serialize_text(doc)
