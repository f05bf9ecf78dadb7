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
from mrdikit.algebra.rings import MultivariatePolyRing, RationalField
from mrdikit.errors import (
    ContextNotPreloadedError,
    DanglingReferenceError,
    SchemaError,
    UnsupportedTypeError,
)
from mrdikit.mrdi import (
    DeserializerState,
    GlobalSerializerState,
    Mode,
    SerializerState,
    encode_polynomial,
    load,
    parse_text,
    save,
    serialize_text,
    type_node,
    validate_document,
)

GOLDEN = Path(__file__).parent / "golden"


def longterm_save(value, gs=None):
    gs = gs or GlobalSerializerState()
    return save(value, SerializerState(Mode.LONG_TERM, gs)), gs


def longterm_load(doc, gs=None):
    gs = gs or GlobalSerializerState()
    return load(doc, DeserializerState(Mode.LONG_TERM, gs))


def roundtrip(value):
    doc, _ = longterm_save(value)
    # through bytes, to exercise the full path
    return longterm_load(parse_text(serialize_text(doc)))


# -- basic round trips ---------------------------------------------------------


def test_roundtrip_scalars():
    assert roundtrip(0) == 0
    assert roundtrip(-(10**60)) == -(10**60)
    assert roundtrip(Fraction(-3, 7)) == Fraction(-3, 7)
    assert roundtrip(Fraction(5)) == Fraction(5)


def test_integers_past_the_str_digit_limit_roundtrip():
    # Python's int<->str conversion stops at 4300 digits by default.
    exact = 10**99_999 + 123
    big = random.Random(4300).getrandbits(332_200)
    Rt, t = univariate_ring(ZZ, "t")
    values = [exact, -big, Fraction(big, exact), t.scale(big) - Polynomial.constant(Rt, exact)]
    for mode in (Mode.LONG_TERM, Mode.IPC):
        gs = GlobalSerializerState()
        gs.register_context(Rt)
        for value in values:
            raw = serialize_text(save(value, SerializerState(mode, gs)))
            got = load(parse_text(raw), DeserializerState(mode, gs))
            assert got == value
            assert serialize_text(save(got, SerializerState(mode, gs))) == raw
    raw = serialize_text(save(exact, SerializerState(Mode.IPC, GlobalSerializerState())))
    assert b'"1' + b"0" * 99_996 + b'123"' in raw


def test_long_malformed_integers_rejected():
    gs = GlobalSerializerState()
    for text in ["1" * 5000 + "x", "1_" * 5000 + "1", "--" + "1" * 5000]:
        with pytest.raises(SchemaError, match="expected a decimal integer"):
            load({"_type": "ZZRingElem", "data": text}, DeserializerState(Mode.IPC, gs))
    with pytest.raises(SchemaError, match="malformed rational"):
        doc = {"_type": "QQFieldElem", "data": "1/" + "2" * 5000 + "x"}
        load(doc, DeserializerState(Mode.IPC, gs))


@pytest.mark.parametrize(
    "text",
    [
        "1_000", " 5", "5 ", "\t5", "+5", "\u0665", "05", "-0", "-05", "00", "-", "", "\u00b2",
        # past the 4300-digit limit, where the text is converted piecewise
        "+" + "1" * 5000, "0" + "1" * 5000, "1" * 3000 + " " + "1" * 3000, "\u0665" * 5000,
    ],
)
def test_non_canonical_integer_text_rejected(text):
    # Most of these load through int(), but none re-serializes to itself.
    gs = GlobalSerializerState()
    with pytest.raises(SchemaError, match="expected a decimal integer"):
        load({"_type": "ZZRingElem", "data": text}, DeserializerState(Mode.IPC, gs))


@pytest.mark.parametrize(
    "text", ["+1/2", "1/+2", "1/ 2", "1_0/3", "2/4", "1/-2", "3/1", "0/5", "1/02", "1/0"]
)
def test_non_canonical_rational_text_rejected(text):
    gs = GlobalSerializerState()
    with pytest.raises(SchemaError, match="malformed rational"):
        load({"_type": "QQFieldElem", "data": text}, DeserializerState(Mode.IPC, gs))


def test_canonical_number_text_loads_and_resaves_identically():
    gs = GlobalSerializerState()
    for tag, text in [("ZZRingElem", "0"), ("ZZRingElem", "-907"), ("QQFieldElem", "-3/7"),
                      ("QQFieldElem", "12"), ("QQFieldElem", "0")]:
        value = load({"_type": tag, "data": text}, DeserializerState(Mode.IPC, gs))
        assert save(value, SerializerState(Mode.IPC, gs))["data"] == text


def test_roundtrip_polynomials():
    R, (x, y) = polynomial_ring(QQ, "x", "y")
    p = x**3 - x * y + Polynomial.constant(R, 1)
    q = roundtrip(p)
    assert q == p
    assert q.parent is p.parent


def test_roundtrip_zero_polynomial_empty_data():
    R, _ = polynomial_ring(QQ, "x", "y")
    doc, _ = longterm_save(Polynomial.zero(R))
    assert doc["data"] == []
    assert longterm_load(doc) == Polynomial.zero(R)


def test_roundtrip_matrix_over_zz_t():
    Rt, t = univariate_ring(ZZ, "t")
    one = Polynomial.constant(Rt, 1)
    m = ExactMatrix.from_rows(Rt, [[t, one], [one, t]])
    assert roundtrip(m) == m


def test_roundtrip_containers():
    Rt, t = univariate_ring(ZZ, "t")
    value = ([t, t * t], (3, Fraction(1, 2), t))
    got = roundtrip(value)
    assert got == value
    assert isinstance(got[0], list) and isinstance(got[1], tuple)
    assert roundtrip([]) == []
    assert roundtrip(()) == ()


def test_roundtrip_ring_handles():
    R, _ = polynomial_ring(QQ, "x", "y")
    assert roundtrip(R) is R
    assert roundtrip(ZZ) is ZZ
    assert roundtrip(QQ) is QQ
    assert roundtrip(GF(101)) is GF(101)


def test_roundtrip_nested_ring_poly():
    Rt, t = univariate_ring(ZZ, "t")
    Ru, u = univariate_ring(Rt, "u")
    p = u.scale(t) * u + Polynomial.constant(Ru, 1)
    q = roundtrip(p)
    assert q == p
    assert q.parent is Ru


def test_unsupported_type_rejected():
    with pytest.raises(UnsupportedTypeError):
        longterm_save(object())
    with pytest.raises(UnsupportedTypeError):
        longterm_save(True)


# -- figure-style document layout ----------------------------------------------


def test_bivariate_example_document_shape():
    gs = GlobalSerializerState()
    R, (x, y) = polynomial_ring(QQ, "x", "y")
    p = x**3 - x * y + Polynomial.constant(R, 1)
    doc, _ = longterm_save(p, gs)
    assert doc["_type"]["name"] == "MPolyRingElem"
    ring_uuid = doc["_type"]["params"]
    assert ring_uuid == gs.uuid_for(R)
    assert doc["data"] == [[["3", "0"], "1"], [["1", "1"], "-1"], [["0", "0"], "1"]]
    assert set(doc["_refs"]) == {ring_uuid}
    ref = doc["_refs"][ring_uuid]
    assert ref["_type"] == "MPolyRing"
    assert ref["data"] == {"base_ring": "QQField", "symbols": ["x", "y"]}


def test_ipc_document_has_no_ns_or_refs():
    gs = GlobalSerializerState()
    R, (x, y) = polynomial_ring(QQ, "x", "y")
    gs.register_context(R)
    doc = save(x + y, SerializerState(Mode.IPC, gs))
    assert "_ns" not in doc and "_refs" not in doc
    raw = serialize_text(doc)
    assert b"_ns" not in raw and b"_refs" not in raw


def test_golden_fig1_file():
    gs = GlobalSerializerState(uuid_seed=20240820)
    R, (x, y) = polynomial_ring(QQ, "x", "y")
    p = x**3 - x * y + Polynomial.constant(R, 1)
    doc, _ = longterm_save(p, gs)
    expected = (GOLDEN / "fig1_poly.mrdi").read_bytes()
    assert serialize_text(doc) == expected


def test_golden_matrix_input_schema():
    from mrdikit.algebra import ExactMatrix

    gs = GlobalSerializerState(uuid_seed=424242)
    Rt, t = univariate_ring(ZZ, "t")
    one = Polynomial.constant(Rt, 1)
    m = ExactMatrix.from_rows(Rt, [[t, one], [one, t]])
    doc, _ = longterm_save(m, gs)
    raw = (GOLDEN / "matrix_zzt.mrdi").read_bytes()
    assert serialize_text(doc) == raw
    assert longterm_load(parse_text(raw)) == m


def test_golden_monomial_map_input_schema():
    from mrdikit.workloads import MonomialMap

    gs = GlobalSerializerState(uuid_seed=515151)
    S, _ = polynomial_ring(QQ, "x", "y", "z")
    T, (s, t) = polynomial_ring(QQ, "s", "t")
    phi = MonomialMap(S, T, (s * s, s * t, t * t))
    doc, _ = longterm_save(phi, gs)
    raw = (GOLDEN / "conic_map.mrdi").read_bytes()
    assert serialize_text(doc) == raw
    loaded = longterm_load(parse_text(raw))
    assert loaded == phi
    assert loaded.source is S and loaded.target is T


def test_parse_serialize_byte_identity_on_canonical_files():
    for name in ("fig1_poly.mrdi", "matrix_zzt.mrdi", "conic_map.mrdi"):
        raw = (GOLDEN / name).read_bytes()
        assert serialize_text(parse_text(raw)) == raw


# -- context registration -------------------------------------------------------


def test_register_context_idempotent():
    gs = GlobalSerializerState()
    R, _ = polynomial_ring(QQ, "x", "y")
    assert gs.register_context(R) == gs.register_context(R)


def test_register_context_distinct_rings():
    gs = GlobalSerializerState()
    R1, _ = polynomial_ring(QQ, "x", "y")
    R2, _ = univariate_ring(ZZ, "t")
    assert gs.register_context(R1) != gs.register_context(R2)


def test_nested_ring_refs_reference_inner_uuid():
    gs = GlobalSerializerState()
    Rt, t = univariate_ring(ZZ, "t")
    Ru, u = univariate_ring(Rt, "u")
    doc, _ = longterm_save(u.scale(t), gs)
    inner_uuid = gs.uuid_for(Rt)
    outer_uuid = gs.uuid_for(Ru)
    assert set(doc["_refs"]) == {inner_uuid, outer_uuid}
    assert doc["_refs"][outer_uuid]["data"]["base_ring"] == inner_uuid
    assert doc["_refs"][inner_uuid]["data"]["base_ring"] == "ZZRing"
    assert validate_document(doc) == []


def test_context_dedup_one_ref_for_many_polys():
    gs = GlobalSerializerState()
    R, (x, _) = polynomial_ring(QQ, "x", "y")
    values = [x**k for k in range(100)]
    doc, _ = longterm_save(values, gs)
    assert len(doc["_refs"]) == 1


def test_a_vector_over_a_fresh_equal_ring_saves_as_over_the_interned_one():
    # ``is`` between parents is only a fast path: equal rings are one ring.
    R, (x, y) = polynomial_ring(QQ, "x", "y")
    fresh = MultivariatePolyRing(RationalField(), ("x", "y"))
    assert fresh is not R
    values = [x**k - y for k in range(4)]
    mixed = [Polynomial(fresh, p.terms) if k % 2 else p for k, p in enumerate(values)]
    docs = [longterm_save(v, GlobalSerializerState(uuid_seed=5))[0] for v in (values, mixed)]
    assert serialize_text(docs[1]) == serialize_text(docs[0])
    assert len(docs[1]["_refs"]) == 1


def test_shared_uuid_same_parent_identity():
    gs_writer = GlobalSerializerState()
    R, (x, y) = polynomial_ring(QQ, "x", "y")
    doc1, _ = longterm_save(x + y, gs_writer)
    doc2, _ = longterm_save(x * y, gs_writer)
    gs_reader = GlobalSerializerState()
    a = load(doc1, DeserializerState(Mode.LONG_TERM, gs_reader))
    b = load(doc2, DeserializerState(Mode.LONG_TERM, gs_reader))
    assert a.parent is b.parent


def test_ipc_save_requires_preloaded_context():
    gs = GlobalSerializerState()
    R, (x, _) = polynomial_ring(QQ, "q1", "q2")
    with pytest.raises(ContextNotPreloadedError):
        save(x, SerializerState(Mode.IPC, gs))


def test_ipc_load_requires_preloaded_context():
    gs_writer = GlobalSerializerState()
    R, (x, _) = polynomial_ring(QQ, "x", "y")
    gs_writer.register_context(R)
    doc = save(x, SerializerState(Mode.IPC, gs_writer))
    with pytest.raises(ContextNotPreloadedError):
        load(doc, DeserializerState(Mode.IPC, GlobalSerializerState()))


def test_longterm_dangling_reference():
    doc = {
        "_ns": {"system": "mrdikit", "version": "0.1.0"},
        "_type": type_node("MPolyRingElem", "99999999-9999-4999-8999-999999999999"),
        "_refs": {},
        "data": [],
    }
    with pytest.raises(DanglingReferenceError):
        longterm_load(doc)


# -- univariate encodings ---------------------------------------------------------


def test_univariate_sparse_fixture():
    Rt, t = univariate_ring(ZZ, "t")
    p = t**3 + Polynomial.constant(Rt, 2)
    assert encode_polynomial(p, Mode.LONG_TERM) == [["0", "2"], ["3", "1"]]


def test_univariate_dense_fixture():
    Rt, t = univariate_ring(ZZ, "t")
    p = t**3 + Polynomial.constant(Rt, 2)
    assert encode_polynomial(p, Mode.IPC) == ["2", "0", "0", "1"]


def test_univariate_zero_fixture():
    Rt, _ = univariate_ring(ZZ, "t")
    zero = Polynomial.zero(Rt)
    assert encode_polynomial(zero, Mode.LONG_TERM) == []
    assert encode_polynomial(zero, Mode.IPC) == []


def test_mode_equivalence_matrix_and_nested():
    gs = GlobalSerializerState()
    Rt, t = univariate_ring(ZZ, "t")
    Ru, u = univariate_ring(Rt, "u")
    one = Polynomial.constant(Rt, 1)
    values = [
        ExactMatrix.from_rows(Rt, [[t**3, one], [one, t]]),
        u.scale(t * t) + u**4,
    ]
    for value in values:
        lt = save(value, SerializerState(Mode.LONG_TERM, gs))
        ipc = save(value, SerializerState(Mode.IPC, gs))
        a = load(lt, DeserializerState(Mode.LONG_TERM, gs))
        b = load(ipc, DeserializerState(Mode.IPC, gs))
        assert a == b == value


def test_mode_equivalence_random_univariate():
    rng = random.Random(314159)
    Rt, _ = univariate_ring(ZZ, "t")
    gs = GlobalSerializerState()
    gs.register_context(Rt)
    for _ in range(60):
        terms = [((d,), rng.randint(-99, 99)) for d in range(rng.randrange(8))]
        p = Polynomial.from_terms(Rt, terms)
        lt_doc, _ = longterm_save(p, gs)
        ipc_doc = save(p, SerializerState(Mode.IPC, gs))
        a = load(lt_doc, DeserializerState(Mode.LONG_TERM, gs))
        b = load(ipc_doc, DeserializerState(Mode.IPC, gs))
        assert a == b == p


# -- determinism ------------------------------------------------------------------


def test_save_is_deterministic_under_fixed_state():
    gs = GlobalSerializerState()
    R, (x, y) = polynomial_ring(QQ, "x", "y")
    value = [x + y, x * y, y**5]
    st = SerializerState(Mode.LONG_TERM, gs)
    raw1 = serialize_text(save(value, st))
    raw2 = serialize_text(save(value, SerializerState(Mode.LONG_TERM, gs)))
    assert raw1 == raw2


def test_roundtrip_file_bytes_stable():
    gs = GlobalSerializerState()
    Rt, t = univariate_ring(ZZ, "t")
    doc, _ = longterm_save(t**4 - t, gs)
    raw = serialize_text(doc)
    reader = GlobalSerializerState()
    value = load(parse_text(raw), DeserializerState(Mode.LONG_TERM, reader))
    raw2 = serialize_text(save(value, SerializerState(Mode.LONG_TERM, reader)))
    assert raw2 == raw


def test_version_mismatch_warns():
    gs = GlobalSerializerState()
    doc, _ = longterm_save(7, gs)
    bumped = {**doc, "_ns": {"system": "other", "version": "9.0.0"}}
    with pytest.warns(UserWarning, match="9.0.0"):
        load(bumped, DeserializerState(Mode.LONG_TERM, gs))


def test_long_document_strings_are_quoted_by_their_head():
    gs = GlobalSerializerState()
    doc, _ = longterm_save(7, gs)
    long_ns = {"system": "x" * 5000, "version": "9" * 5000}
    long_version = {"_ns": long_ns, "_type": doc["_type"], "data": doc["data"]}
    with pytest.warns(UserWarning) as caught:
        load(long_version, DeserializerState(Mode.LONG_TERM, gs))
    assert len(str(caught[0].message)) < 300
    with pytest.raises(UnsupportedTypeError) as info:
        load({"_type": "T" * 5000, "data": "7"}, DeserializerState(Mode.LONG_TERM, gs))
    assert str(info.value).startswith("unsupported type tag: 'TTT") and len(str(info.value)) < 300


# -- randomized round-trip sweep ---------------------------------------------------


def random_value(rng):
    kind = rng.randrange(8)
    Rxy, (x, y) = polynomial_ring(QQ, "x", "y")
    Rt, t = univariate_ring(ZZ, "t")
    Fp, s = univariate_ring(GF(10007), "s")
    if kind == 0:
        return rng.randint(-(10**30), 10**30)
    if kind == 1:
        return Fraction(rng.randint(-(10**12), 10**12), rng.randint(1, 10**12))
    if kind == 2:
        return Polynomial.from_terms(
            Rxy,
            [
                ((rng.randrange(5), rng.randrange(5)), Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                for _ in range(rng.randrange(6))
            ],
        )
    if kind == 3:
        return Polynomial.from_terms(
            Rt, [((rng.randrange(7),), rng.randint(-999, 999)) for _ in range(rng.randrange(5))]
        )
    if kind == 4:
        return Polynomial.from_terms(
            Fp, [((rng.randrange(7),), rng.randrange(10007)) for _ in range(rng.randrange(5))]
        )
    if kind == 5:
        n = rng.randrange(1, 4)
        return ExactMatrix.from_rows(
            Rt,
            [
                [
                    Polynomial.from_terms(
                        Rt, [((rng.randrange(4),), rng.randint(-50, 50)) for _ in range(rng.randrange(4))]
                    )
                    for _ in range(n)
                ]
                for _ in range(n)
            ],
        )
    if kind == 6:
        return [rng.randint(-100, 100) for _ in range(rng.randrange(5))]
    return (rng.randint(-5, 5), Fraction(rng.randint(1, 5)), rng.choice([Rxy, Rt, QQ]))


def test_randomized_roundtrips():
    rng = random.Random(8675309)
    gs_writer = GlobalSerializerState()
    gs_reader = GlobalSerializerState()
    for _ in range(150):
        value = random_value(rng)
        doc, _ = longterm_save(value, gs_writer)
        assert validate_document(doc) == []
        raw = serialize_text(doc)
        got = load(parse_text(raw), DeserializerState(Mode.LONG_TERM, gs_reader))
        assert got == value
