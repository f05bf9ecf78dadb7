"""Whole-list coefficient codecs and the long-term text writer.

The error texts pinned here are the ones the term-by-term codec gave: the
list codecs must keep every message and every ``…/i`` location, and accept
exactly the same documents.  A document holding a value the algebra rejects
(a composite modulus, bad ring symbols, a negative dimension or exponent, a
constant map image) raises a SchemaError located at a document path, and so
does a worker's IPC load of such a ref document in a frame document's ``_refs``.
"""

import json
import random
import re
import time
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
from mrdikit.algebra.rings import PrimeField, RationalField, UnivariatePolyRing
from mrdikit.errors import MrdiKitError, SchemaError, ValidationError
from mrdikit.mrdi import (
    DeserializerState,
    GlobalSerializerState,
    Mode,
    SerializerState,
    decode_elements,
    decode_polynomial,
    encode_elements,
    load,
    parse_text,
    save,
    serialize_text,
    type_node,
    validate_document,
)
from mrdikit.mrdi import codec
from mrdikit.mrdi.numtext import int_from_text, int_to_text, read_integers, read_rationals
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


def long_matrix():
    """A 12x12 matrix of degree-8 entries over ZZ[t], the shape of the pooled
    determinant benchmark's input: a list of 144 polynomials of 9 terms."""
    rng = random.Random(12)
    entries = [
        Polynomial.from_terms(Rt, [((d,), rng.randint(-99, 99) or 1) for d in range(9)])
        for _ in range(144)
    ]
    return ExactMatrix(Rt, 12, 12, entries)


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
    doc = {"_type": type_node("PrimeField", {"modulus": modulus}), "data": {}}
    return load(doc, DeserializerState(Mode.LONG_TERM, GlobalSerializerState()))


PRELOAD_UUID = "0b5c9a3e-6f1d-4e2a-9c7b-8d4f2e1a3b5c"


def preload(ref_data):
    """A worker's IPC load of a ``PolyRing`` document whose ``_refs`` holds a
    ref document with ``ref_data``, as a Call's arguments carry it."""
    ref = {"_type": "PolyRing", "data": ref_data}
    doc = {"_type": type_node("PolyRing", PRELOAD_UUID), "_refs": {PRELOAD_UUID: ref}, "data": {}}
    return load(doc, DeserializerState(Mode.IPC, GlobalSerializerState()))


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


def load_ipc_map(phi, edit):
    return load_ipc(phi, edit, phi.source, phi.target)


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
    "lt-last-entry-of-long-matrix": lambda: load_long_term(
        edited(long_matrix(), put("entries", 143, 8, 1, "+5"))
    ),
    "lt-last-degree-of-long-matrix": lambda: load_long_term(
        edited(long_matrix(), put("entries", 143, 8, 0, "-8"))
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
    "ipc-last-entry-of-long-matrix": lambda: load_ipc(
        long_matrix(), put("entries", 143, 8, "05"), Rt
    ),
    "ipc-dense-native-int": lambda: load(
        {"_type": type_node("PolyRingElem", ipc_state(Rt).uuid_for(Rt)), "data": ["1", 5]},
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
    "ipc-map-image-exponent": lambda: load_ipc_map(fig1_map(), put("images", 1, 0, 0, 1, "01")),
    "ipc-map-image-coefficient": lambda: load_ipc_map(fig1_map(), put("images", 0, 0, 1, "+1")),
    "map-image-not-a-list": lambda: load_long_term(edited(fig1_map(), put("images", 1, "1"))),
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
    "ipc-last-entry-of-long-matrix": (
        "SchemaError",
        "data/entries/143/8: expected a decimal integer, got '05'",
    ),
    "lt-bad-pair": ("SchemaError", "data/1/2: expected a [degree, coefficient] pair"),
    "lt-last-degree-of-long-matrix": ("SchemaError", "data/entries/143/8: negative degree"),
    "lt-last-entry-of-long-matrix": (
        "SchemaError",
        "data/entries/143/8: expected a decimal integer, got '+5'",
    ),
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
    "ipc-map-image-exponent": (
        "SchemaError",
        "data/images/1/0: expected a decimal integer, got '01'",
    ),
    "ipc-map-image-coefficient": ("SchemaError", "data/images/0/0: malformed rational '+1'"),
    "map-image-not-a-list": ("SchemaError", "data/images/1: polynomial payload must be a sequence"),
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
        "data/1/2/0/1: non-text scalar True (numbers must be stored as text)",
    ),
    "parse-native-in-ref": (
        "SchemaError",
        "_refs/457c769f-39d8-4441-99c0-e5bdbcfbc85b/data/symbols/0: "
        "non-text scalar None (numbers must be stored as text)",
    ),
    "parse-native-number": (
        "SchemaError",
        "data/1/2/1: non-text scalar 5 (numbers must be stored as text)",
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
    doc["data"][0][2][1] = 5
    doc["data"][1].insert(1, {"a": [True, "1"], 3: ["x"], "b": {"c": None}})
    (ref_key,) = [k for k, ref in doc["_refs"].items() if ref["_type"] == "MPolyRing"]
    doc["_refs"][ref_key]["data"]["symbols"][1] = 2.5
    assert validate_document(doc) == [
        f"_refs/{ref_key}/data/symbols/1: non-text scalar 2.5 (numbers must be stored as text)",
        "data/0/2/1: non-text scalar 5 (numbers must be stored as text)",
        "data/1/1/a/0: non-text scalar True (numbers must be stored as text)",
        "data/1/1: non-text object key 3",
        "data/1/1/b/c: non-text scalar None (numbers must be stored as text)",
    ]


NON_CANONICAL = {
    "ZZRingElem": [
        "1_000", " 5", "5 ", "\t5", "+5", "\u0665", "05", "-0", "-05", "00", "-", "", "\u00b2",
        "+" + "1" * 5000, "0" + "1" * 5000, "1" * 3000 + " " + "1" * 3000, "\u0665" * 5000,
    ],
    "QQFieldElem": [
        "+1/2", "1/+2", "1/ 2", "1_0/3", "2/4", "1/-2", "3/1", "0/5", "1/02", "1/0", "3/", "/3",
        "1/2/3", " 1/2", "1.5", "1e3", "\u0661/\u0662", "2/" + "4" * 5000, "3/-2", "+3", "03",
        "-0", "-0/3", "0/1", "-3/1",
    ],
}


@pytest.mark.parametrize(
    "tag, text", [(tag, text) for tag, texts in NON_CANONICAL.items() for text in texts]
)
def test_list_readers_reject_what_the_scalar_readers_reject(tag, text):
    gs = GlobalSerializerState()
    with pytest.raises(SchemaError) as one:
        load({"_type": tag, "data": text}, DeserializerState(Mode.IPC, gs))
    with pytest.raises(SchemaError) as many:
        doc = {"_type": type_node("Vector", tag), "data": ["1", text, "2"]}
        load(doc, DeserializerState(Mode.IPC, gs))
    assert str(many.value) == str(one.value).replace("data: ", "data/1: ", 1)



@pytest.mark.parametrize("text", NON_CANONICAL["QQFieldElem"] + [True, None, 3])
def test_rational_list_reader_gives_up_on_non_canonical_text(text):
    assert read_rationals(["1/2", text, "-3"]) is None
    assert read_rationals([text]) is None


def test_rational_list_reader_gives_up_past_the_digit_limit():
    # Canonical text (7 does not divide a repunit of 5000 digits): the list
    # reader gives up and the item-by-item reader accepts it.
    big = "1" * 5000 + "/7"
    assert read_rationals(["1/2", big]) is None
    doc = {"_type": type_node("Vector", "QQFieldElem"), "data": ["1/2", big]}
    value = load(doc, DeserializerState(Mode.IPC, GlobalSerializerState()))
    assert list(value) == [Fraction(1, 2), Fraction(int_from_text("1" * 5000, "x"), 7)]


@pytest.mark.parametrize(
    "texts",
    [
        [],
        ["0"],
        ["-33/2", "-9", "13/8", "10/7", "0", "5", "-47/7", "1"],
        ["1/2", "-1/3", "22/7"],
        ["12345678901234567891/2", "-1/98765432109876543210"],
        ["-1", "2", "0", "7"],
    ],
)
def test_rational_list_reader_builds_reduced_fractions(texts):
    values = read_rationals(texts)
    assert values == [Fraction(text) for text in texts]
    for value, text in zip(values, texts):
        assert type(value) is Fraction and str(value) == text
        assert hash(value) == hash(Fraction(text))
        assert value + Fraction(1, 6) == Fraction(text) + Fraction(1, 6)

# -- accepted inputs: non-canonical term order is normalized -------------------


def load_data(value, data, mode=Mode.LONG_TERM):
    """``value``'s document with ``data`` in place of its payload, loaded."""
    gs = ipc_state(Rt, Qt, Ft, Rxy)
    doc = save(value, SerializerState(mode, gs))
    doc["data"] = data
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


# -- whole lists: one non-canonical item among canonical ones ------------------


def one_by_one(ring, payloads, mode):
    """Each payload read on its own, as a list that is not all canonical is."""
    state = DeserializerState(mode, ipc_state(ring))
    return [decode_polynomial(ring, item, state, f"data/{i}") for i, item in enumerate(payloads)]


def oracle(ring, payload, mode):
    """A payload's polynomial by ``from_terms`` on the terms as written."""
    if isinstance(ring.descriptor, UnivariatePolyRing) and mode is Mode.IPC:
        terms = [((d,), c) for d, c in enumerate(payload)]
    elif isinstance(ring.descriptor, UnivariatePolyRing):
        terms = [((int(d),), c) for d, c in payload]
    else:
        terms = [(tuple(map(int, m)), c) for m, c in payload]
    number = Fraction if isinstance(ring.descriptor.base, RationalField) else int
    return Polynomial.from_terms(ring, [(m, number(c)) for m, c in terms])


CANONICAL_ZZT = [P, t, Polynomial.zero(Rt), P * P]
MIXED = {
    "terms-out-of-order": (Rt, Mode.LONG_TERM, [["2", "3"], ["0", "1"], ["1", "-4"]]),
    "zero-coefficient": (Rt, Mode.LONG_TERM, [["0", "1"], ["1", "0"], ["4", "2"]]),
    "repeated-degree": (Rt, Mode.LONG_TERM, [["0", "1"], ["3", "2"], ["3", "5"]]),
    "cancelling-to-empty": (Rt, Mode.LONG_TERM, [["1", "2"], ["1", "-2"]]),
    "empty": (Rt, Mode.LONG_TERM, []),
    "ipc-trailing-zeros": (Rt, Mode.IPC, ["4", "0", "7", "0", "0"]),
    "ipc-all-zero": (Rt, Mode.IPC, ["0", "0", "0"]),
    "ipc-empty": (Rt, Mode.IPC, []),
    "mpoly-ascending": (Rxy, Mode.LONG_TERM, [[["0", "0"], "5"], [["2", "1"], "1/2"]]),
    "mpoly-repeated-and-zero": (
        Rxy, Mode.IPC, [[["1", "1"], "1"], [["0", "1"], "0"], [["1", "1"], "-3"]]
    ),
}


@pytest.mark.parametrize("case", sorted(MIXED))
def test_one_non_canonical_item_loads_as_item_by_item(case):
    ring, mode, odd = MIXED[case]
    values = CANONICAL_ZZT if ring is Rt else [Q, Q * Q, Polynomial.zero(Rxy), Q]
    gs = ipc_state(ring)
    doc = save(values, SerializerState(mode, gs))
    payloads = doc["data"][:2] + [odd] + doc["data"][2:]
    doc["data"] = payloads
    got = load(parse_text(serialize_text(doc)), DeserializerState(mode, gs))
    assert got == one_by_one(ring, payloads, mode)
    assert got == values[:2] + [oracle(ring, odd, mode)] + values[2:]
    for p in got:
        order = sorted(p.terms, key=lambda term: (sum(term[0]), term[0]), reverse=True)
        assert p.terms == tuple(order)
        assert all(c for _, c in p.terms)


def test_ipc_matrix_with_trailing_and_all_zero_entries():
    m = ExactMatrix.from_rows(Rt, [[P, t], [ONE, P]])
    entries = [["1", "2", "0", "0"], ["0", "0"], [], ["0", "1", "0"]]
    got = load_ipc(m, put("entries", entries), Rt)
    expected = [oracle(Rt, e, Mode.IPC) for e in entries]
    assert list(got.entries) == expected
    assert expected == [ONE + t.scale(2), Polynomial.zero(Rt), Polynomial.zero(Rt), t]
    resaved = save(got, SerializerState(Mode.IPC, ipc_state(Rt)))
    assert resaved["data"]["entries"] == [["1", "2"], [], [], ["0", "1"]]


def random_poly(rng, ring):
    base = ring.descriptor.base
    arity = 1 if isinstance(ring.descriptor, UnivariatePolyRing) else len(ring.descriptor.symbols)

    def coefficient():
        if isinstance(base, PrimeField):
            return rng.randrange(base.p)
        n = rng.randint(-(2**70), 2**70)
        if isinstance(base, RationalField) and rng.random() < 0.5:
            return Fraction(n, rng.randint(1, 2**40))
        return n

    terms = [
        (tuple(rng.randint(0, 12) for _ in range(arity)), coefficient())
        for _ in range(rng.randint(0, 6))
    ]
    return Polynomial.from_terms(ring, terms)


PROPERTY_RINGS = {
    "zz-t": Rt,
    "qq-t": Qt,
    "gf7-t": Ft,
    "zz-xyz": polynomial_ring(ZZ, "x", "y", "z")[0],
    "qq-xy": Rxy,
    "gf-large-uv": polynomial_ring(GF(2**61 - 1), "u", "v")[0],
}


@pytest.mark.parametrize("mode", [Mode.LONG_TERM, Mode.IPC], ids=["long-term", "ipc"])
@pytest.mark.parametrize("name", sorted(PROPERTY_RINGS))
def test_whole_lists_read_as_item_by_item(name, mode):
    ring = PROPERTY_RINGS[name]
    rng = random.Random(f"{name}-{mode.name}")
    for trial in range(40):
        values = [random_poly(rng, ring) for _ in range(rng.randint(1, 12))]
        gs = ipc_state(ring)
        raw = serialize_text(save(values, SerializerState(mode, gs)))
        doc = parse_text(raw)
        got = load(doc, DeserializerState(mode, gs))
        assert got == values == one_by_one(ring, doc["data"], mode)
        assert serialize_text(save(got, SerializerState(mode, gs))) == raw
        # The same list with one payload's terms reversed (out of order in
        # every ring but a dense IPC one) loads as its items do one by one.
        i = rng.randrange(len(values))
        doc["data"][i] = doc["data"][i][::-1]
        odd = load(parse_text(serialize_text(doc)), DeserializerState(mode, gs))
        assert odd == one_by_one(ring, doc["data"], mode)
        assert odd[:i] + odd[i + 1 :] == values[:i] + values[i + 1 :]


# -- extension lists: a monomial map's images --------------------------------------


def wide_map():
    """A map of 12 variables to 6, the shape of the pooled kernel benchmark's
    input: images of degree 1 and 2 with rational coefficients, one constant."""
    rng = random.Random(18)
    S, _ = polynomial_ring(QQ, *[f"x{i}" for i in range(12)])
    T, gens = polynomial_ring(QQ, *[f"s{i}" for i in range(6)])
    images = []
    for i in range(12):
        term = Polynomial.constant(T, Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4)))
        for _ in range(0 if i == 5 else rng.randint(1, 2)):
            term = term * rng.choice(gens)
        images.append(term)
    return MonomialMap(S, T, images)


def count_column_reads(monkeypatch):
    calls = []
    real = codec._read_polys

    def counted(ring, payloads, state):
        calls.append(len(payloads))
        return real(ring, payloads, state)

    monkeypatch.setattr(codec, "_read_polys", counted)
    return calls


def map_round_trip(phi, mode, edit=None):
    """``phi`` saved in ``mode``, its data edited, and loaded back, with the
    text of the first save and the state that reads it."""
    gs = ipc_state(phi.source, phi.target)
    raw = serialize_text(save(phi, SerializerState(mode, gs)))
    doc = parse_text(raw)
    if edit is not None:
        edit(doc["data"])
    state = DeserializerState(mode, gs)
    return load(parse_text(serialize_text(doc)), state), raw, doc, gs


@pytest.mark.parametrize("mode", [Mode.LONG_TERM, Mode.IPC], ids=["long-term", "ipc"])
def test_map_images_are_read_as_one_column(mode, monkeypatch):
    phi = wide_map()
    calls = count_column_reads(monkeypatch)
    got, raw, _, gs = map_round_trip(phi, mode)
    assert calls == [12]
    assert got == phi
    assert serialize_text(save(got, SerializerState(mode, gs))) == raw


@pytest.mark.parametrize("mode", [Mode.LONG_TERM, Mode.IPC], ids=["long-term", "ipc"])
def test_a_sequence_of_polynomials_of_one_ring_looks_up_its_writers_once(mode, monkeypatch):
    polys = [P.scale(k) for k in range(1, 6)]
    expected = [encode_elements(Rt, [p], mode)[0] for p in polys]
    poly_codec = codec._LIST_CODECS[UnivariatePolyRing]
    lookups = []

    def writers(desc, mode):
        lookups.append(desc)
        return poly_codec.writers(desc, mode)

    monkeypatch.setitem(
        codec._LIST_CODECS, UnivariatePolyRing, poly_codec._replace(writers=writers)
    )
    for value in (polys, tuple(polys)):
        state = SerializerState(mode, GlobalSerializerState(), collect_new_refs=True)
        assert save(value, state)["data"] == expected
    assert len(lookups) == 2


def odd_image(case, term, c, mode):
    """Image payload ``[term]`` of coefficient ``c`` written another way."""
    if case == "terms-reversed":  # after a zero term: ascending, the reverse of canonical
        return [[["0"] * len(term[0]), "0"], term]
    # "repeated-monomial": c = 1 + (c - 1) over one monomial
    return [[term[0], "1"], [term[0], encode_elements(QQ, [c - 1], mode)[0]]]


@pytest.mark.parametrize("mode", [Mode.LONG_TERM, Mode.IPC], ids=["long-term", "ipc"])
@pytest.mark.parametrize("case", ["repeated-monomial", "terms-reversed"])
def test_map_with_one_odd_image_loads_as_item_by_item(case, mode):
    phi = wide_map()
    i = 7
    (term,) = encode_elements(phi.target, [phi.images[i]], mode)[0]
    payload = odd_image(case, term, phi.images[i].terms[0][1], mode)
    got, _, doc, gs = map_round_trip(phi, mode, put("images", i, payload))
    assert got == phi
    state = DeserializerState(mode, gs)
    assert list(got.images) == [
        decode_polynomial(phi.target, item, state, f"data/images/{k}")
        for k, item in enumerate(doc["data"]["images"])
    ]


def test_map_image_past_the_digit_limit_loads_item_by_item(monkeypatch):
    S, _ = polynomial_ring(QQ, "a", "b")
    T, (s, u) = polynomial_ring(QQ, "s", "u")
    phi = MonomialMap(S, T, (s.scale(Fraction(BIG, 3)), u))
    calls = count_column_reads(monkeypatch)
    for mode in (Mode.LONG_TERM, Mode.IPC):
        calls.clear()
        got, raw, _, gs = map_round_trip(phi, mode)
        assert calls == [2, 1, 1]  # the column read gives up; then one read per image
        assert got == phi
        assert serialize_text(save(got, SerializerState(mode, gs))) == raw


def test_element_lists_locate_a_bad_item():
    state = DeserializerState(Mode.LONG_TERM, GlobalSerializerState())
    assert decode_elements(QQ, ["1", "-2/3"], state, "data/x") == [1, Fraction(-2, 3)]
    with pytest.raises(SchemaError, match=r"^data/x/1: malformed rational '2/4'$"):
        decode_elements(QQ, ["1", "2/4"], state, "data/x")
    payloads = encode_elements(Rt, [P, t], Mode.LONG_TERM)
    assert payloads == [[["0", "1"], ["1", "2"], ["2", "3"], ["3", "4"]], [["1", "1"]]]
    assert decode_elements(Rt, payloads, state, "data") == [P, t]


# -- a decoded matrix is built without coercing its entries again -----------------


@pytest.mark.parametrize("mode", [Mode.LONG_TERM, Mode.IPC], ids=["long-term", "ipc"])
@pytest.mark.parametrize(
    "matrix",
    [
        long_matrix(),
        ExactMatrix.from_rows(ZZ, [[1, -2], [3, 4]]),
        ExactMatrix.from_rows(QQ, [[Fraction(1, 2)], [Fraction(-3)]]),
        ExactMatrix.from_rows(GF(7), [[6, 0, 3]]),
        ExactMatrix.from_rows(Rt, []),
    ],
    ids=["zz-t-12x12", "zz", "qq", "gf7", "empty"],
)
def test_decoded_matrix_equals_the_coerced_one(matrix, mode):
    gs = ipc_state(Rt)
    doc = parse_text(serialize_text(save(matrix, SerializerState(mode, gs))))
    got = load(doc, DeserializerState(mode, gs))
    coerced = ExactMatrix(got.parent, got.nrows, got.ncols, got.entries)
    assert got == matrix == coerced
    assert type(got.entries) is tuple
    assert list(map(type, got.entries)) == list(map(type, coerced.entries))


def test_matrix_with_a_wrong_entry_count_still_raises():
    m = long_matrix()
    with pytest.raises(SchemaError, match=r"^data: expected 144 matrix entries$"):
        load_long_term(edited(m, lambda data: data["entries"].pop()))
    with pytest.raises(ValidationError, match="expected 144 entries for a 12x12 matrix, got 143"):
        ExactMatrix(Rt, 12, 12, m.entries[:-1])


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


def integer_texts(seed, count):
    """Seeded text for an integer reader: canonical integers with a character
    put in or replaced, and short runs of digits, signs, ``_``, ``/``, ASCII
    and Unicode whitespace and non-ASCII digits; then cases past the digit
    limit."""
    rng = random.Random(seed)
    alphabet = "0123456789-+_/ \t\n\x0b\x0c\r\x1c\x85\xa0\u2003\u3000\u0665\xb2\u0e51\uff11"
    for _ in range(count):
        if rng.random() < 0.5:
            text = str(rng.randint(-(10**12), 10**12))
            at = rng.randrange(len(text) + 1)
            cut = at + rng.randrange(2) * (at < len(text))
            yield text[:at] + rng.choice(alphabet) * rng.randrange(2) + text[cut:]
        else:
            yield "".join(rng.choices(alphabet, k=rng.randrange(6)))
    digits = "1" * 5000
    yield from [digits, "-" + digits, "0" + digits, "+" + digits, "-0" + digits, digits + " "]
    yield from [" " + digits, digits[:2500] + "_" + digits[2500:], "\u0665" * 5000, digits + "/7"]


CANONICAL_INTEGER = re.compile(r"0|-?[1-9][0-9]*")


def test_the_integer_readers_agree_on_what_is_canonical():
    for text in integer_texts(23, 20000):
        canonical = CANONICAL_INTEGER.fullmatch(text) is not None
        try:
            value = int_from_text(text, "x")
        except SchemaError:
            value = None
        assert (value is not None) == canonical, text
        if canonical:
            assert int_to_text(value) == text
        if len(text) <= 4300:  # past it the list reader gives up for the item reader
            assert read_integers([text]) == (None if value is None else [value]), text
        else:
            assert read_integers([text]) is None
    for value in (None, 3, True, 1.5, float("inf"), float("nan"), b"5", ["1"]):
        with pytest.raises(SchemaError):
            int_from_text(value, "x")
        assert read_integers([value]) is None


def test_a_matrix_shape_past_the_digit_limit_is_named_briefly():
    with pytest.raises(ValidationError) as info:
        ExactMatrix(ZZ, 10**2200, 10**2200, [])
    text = str(info.value)
    assert text.startswith("expected <int too long to show> entries for a 1000")
    assert text.endswith("(2201 characters) matrix, got 0") and len(text) < 300


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
    """A long-term document holding ``data``, its keys in another order than
    the text's, and the JSON tree its text holds."""
    doc = {
        "data": data,
        "_refs": {
            "11111111-2222-4333-8444-555555555555": {
                "data": {"base_ring": "ZZRing", "symbol": symbol},
                "_type": "PolyRing",
            }
        },
        "_type": type_node("PolyRingElem", "11111111-2222-4333-8444-555555555555"),
        "_ns": {"version": "0.1.0", "system": system},
    }
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
    with pytest.raises(SchemaError, match="^data(/[a-z0-9]+)*: non-text (scalar|object key) "):
        serialize_text(doc)


# -- lists holding containers are written one nesting level at a time -----------


def columnar_tree(rng, depth):
    """A list shaped like a payload column, or text: its items made alike
    (equal-width lists, which may hold empty lists), or ragged, or text and
    lists mixed, with now and then a dict among them."""
    if depth <= 0 or rng.random() < 0.15:
        return rng.choice(ODD_TEXT)
    shape = rng.choice(["equal", "equal", "ragged", "mixed", "dicts"])
    width = rng.randint(0, 3)

    def item():
        if shape == "ragged":
            return [columnar_tree(rng, depth - 2) for _ in range(rng.randint(0, 3))]
        if shape == "mixed" and rng.random() < 0.4:
            return rng.choice(ODD_TEXT)
        if shape == "dicts" and rng.random() < 0.3:
            return {rng.choice(ODD_TEXT): columnar_tree(rng, depth - 2)}
        if shape == "equal" and rng.random() < 0.1:
            return []
        return [columnar_tree(rng, depth - 2) for _ in range(width)]

    return [item() for _ in range(rng.randint(1, 6))]


def test_writer_matches_json_dumps_on_random_columnar_trees():
    rng = random.Random(28)
    for _ in range(1000):
        doc, tree = doc_tree(columnar_tree(rng, 8))
        assert serialize_text(doc) == dumps(tree)


@pytest.mark.parametrize(
    "data, error",
    [
        (
            [[["1", "2"], ["3", "4"]], [["5", "6"], ["7", 8]]],
            "data/1/1/1: non-text scalar 8 (numbers must be stored as text)",
        ),
        ([[["1", "2"], ["3", "4"]], [["5", "6"], "7", [None]]], "data/1/2/0: non-text scalar None"),
        ([[["1", "2"], ["3", {"a": "4", 5: "6"}]]], "data/0/1/1: non-text object key 5"),
        ([[["1"], [{"a": [["2"], [1.5]]}]]], "data/0/1/0/a/1/0: non-text scalar 1.5"),
    ],
    ids=["uniform", "mixed", "key", "under-a-dict"],
)
def test_a_bad_value_deep_in_a_column_is_located(data, error):
    doc, _ = doc_tree(data)
    with pytest.raises(SchemaError) as info:
        serialize_text(doc)
    assert str(info.value).startswith(error)


class Text(str):
    pass


class Items(list):
    pass


class Fields(dict):
    pass


def test_subclasses_are_written_as_their_bases():
    data = [
        Items([Text("a"), "b"]),
        Items(["c", Text("d")]),
        [Fields({Text("k"): Items([Text("x"), ["y"]])}), Text("e")],
        Items([Items([]), Fields(), [Text("f")]]),
    ]
    doc, tree = doc_tree(data)
    assert serialize_text(doc) == dumps(tree)
    doc, tree = doc_tree([Items([Text("a"), Items([Text("b")])]), [Text("c"), ["d"]]])
    assert serialize_text(doc) == dumps(tree)


def chain_of_lists(levels):
    """``levels`` containers nested one in the other: one-item lists around
    an empty dict."""
    node = {}
    for _ in range(levels - 1):
        node = [node]
    return node


def comb(levels):
    """``levels`` lists nested one in the other, each also holding text,
    on alternating sides."""
    node = "x"
    for i in range(levels):
        node = ["t", node] if i % 2 else [node, "t"]
    return node


@pytest.mark.parametrize("build", [chain_of_lists, comb], ids=["chain", "comb"])
def test_the_deepest_lists_are_written_quickly_and_one_more_level_is_refused(build):
    doc, tree = doc_tree(build(MAX_NESTING_DEPTH))
    start = time.perf_counter()
    raw = serialize_text(doc)
    assert time.perf_counter() - start < 0.5
    assert raw == dumps(tree)
    doc, _ = doc_tree(build(MAX_NESTING_DEPTH + 1))
    with pytest.raises(SchemaError, match=f": nested deeper than {MAX_NESTING_DEPTH} levels$"):
        serialize_text(doc)
