"""save/load between algebra values and mrdi documents (JSON objects).

One registry holds every serializable type, built-in or extension:
``register_codec`` files a Python type's type and data builders and a tag's
decoder, and save and load look each value and tag up once.  An extension
needs only it and a few helpers: ``context_uuid``/``context_from_uuid`` name
a polynomial ring by UUID in a type parameter and resolve it again, and
``encode_elements``/``decode_elements`` write and read a list of elements of
one ring the way built-in lists are, whole (``MonomialMap`` writes and reads
its images so).  ``encode_polynomial``/``decode_polynomial`` are the one-item
case, for a polynomial that shares no list with others.

Saving builds the ``_type`` subtree first, registering every parent context
it meets (a ring's base ring before the ring), then ``data``.  Long-term mode
emits ``_ns`` plus the accumulated refs; IPC mode emits a bare type/data pair
over contexts the global state already knows.  Loading follows a chain of
refs (each ring the next one's base) at most ``MAX_NESTING_DEPTH`` deep.
Type nodes are the JSON that ``_type`` holds, built by ``type_node`` and read
by ``type_parts``; each decoder reads its own parameters, so a container
takes an element type given as text or as an object.  A ring's type node
comes from ``_ring_type`` and is read by ``_ring_from_type``, which accepts
exactly what the first writes; an element's type node is its ring's with
``Elem`` appended to the tag, and a ref document inlines a leaf base ring's
type node.

A univariate payload is sparse ``[degree, coefficient]`` pairs in ascending
degree for storage, dense coefficients from degree zero up for IPC.  Element
lists are read and written whole, through one list codec per ring descriptor
type (``_LIST_CODECS``).  A list of polynomials is read as columns of all its
terms (``_read_polys``), and a single payload as a list of one.  A list whose
text is not all canonical is read again item by item, which raises the
SchemaError that locates the bad item.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from functools import partial
from itertools import accumulate, chain, compress
from operator import gt, lt
from typing import Callable, NamedTuple

from ..algebra.polynomials import Polynomial, coercer
from ..algebra.matrices import ExactMatrix
from ..algebra.rings import (
    GF,
    QQ,
    ZZ,
    ContextHandle,
    IntegerRing,
    MultivariatePolyRing,
    PrimeField,
    RationalField,
    RingDescriptor,
    UnivariatePolyRing,
    intern_context,
)
from ..errors import (
    QUOTE_LIMIT,
    ContextNotPreloadedError,
    DanglingReferenceError,
    SchemaError,
    UnsupportedTypeError,
    ValidationError,
    quote,
)
from .document import (
    FORMAT_VERSION,
    MAX_NESTING_DEPTH,
    SYSTEM_NAME,
    Mode,
    TypeTree,
    is_uuid_text,
    type_node,
    type_parts,
)
from .numtext import (
    fraction_from_text,
    fraction_to_text,
    int_from_text,
    int_to_text,
    read_integers,
    read_rationals,
    read_residues,
    residue_from_text,
)
from .states import DeserializerState, GlobalSerializerState, SerializerState

_LIST = {list}
_NUMBER_TYPES = {int, Fraction}
_POLY_RINGS = (UnivariatePolyRing, MultivariatePolyRing)

# python type -> (build_type(obj, state), build_data(obj, state))
_ENCODERS = {}
# tag -> decode(type_node, data, state)
_DECODERS = {}


def register_codec(py_type, tag, build_type, build_data, decode):
    """Make values of ``py_type`` serializable.

    ``build_type(obj, state)`` gives a value's ``_type`` node, JSON such as
    ``type_node`` builds, and ``build_data(obj, state)`` its ``data``, under
    a SerializerState.  ``decode(type_node, data, state)`` gives the value
    back under a DeserializerState, whose ``cursor()`` locates ``data`` for
    error messages; ``type_parts`` reads the node's tag and parameters.
    ``tag`` is the type tag ``decode`` reads, or a tuple of them when
    several tags load as ``py_type`` (a ring is a ZZRing, a QQField, ...).
    A subclass of ``py_type`` saves as ``py_type`` does.
    """
    _ENCODERS[py_type] = (build_type, build_data)
    for name in (tag,) if isinstance(tag, str) else tag:
        _DECODERS[name] = decode


def registered_type_tags():
    """Every type tag ``load`` reads (a live view of the decoder table)."""
    return _DECODERS.keys()


# ----------------------------------------------------------------------------
# Rings: one type node rule, context registration and ref documents
# ----------------------------------------------------------------------------


def _ring_type(ring: ContextHandle, state: SerializerState) -> TypeTree:
    """A ring's type node.  A polynomial ring's parameter is its UUID, which
    registers it in ``state``; with no state, as in its ref document, it has none."""
    desc = ring.descriptor
    if isinstance(desc, IntegerRing):
        return "ZZRing"
    if isinstance(desc, RationalField):
        return "QQField"
    if isinstance(desc, PrimeField):
        return type_node("PrimeField", {"modulus": str(desc.p)})
    if not isinstance(desc, _POLY_RINGS):
        raise UnsupportedTypeError(f"no type node for ring {desc!r}")
    tag = "PolyRing" if isinstance(desc, UnivariatePolyRing) else "MPolyRing"
    return type_node(tag, None if state is None else context_uuid(ring, state))


def _ring_from_type(tn: TypeTree, state: DeserializerState, where: str) -> ContextHandle:
    """The ring a ring type node names, the inverse of ``_ring_type``: a tag
    with other parameters than the ones ``_ring_type`` writes is an error."""
    name, params = type_parts(tn)
    if name == "ZZRing" and params is None:
        return ZZ
    if name == "QQField" and params is None:
        return QQ
    if name == "PrimeField" and isinstance(params, dict) and list(params) == ["modulus"]:
        return GF(int_from_text(params["modulus"], where))
    if name in ("PolyRing", "MPolyRing"):
        ring = context_from_uuid(params, state, where)
        if isinstance(ring.descriptor, UnivariatePolyRing) == (name == "PolyRing"):
            return ring
        raise SchemaError(f"{where}: {params} names {ring.descriptor!r}, not a {name}")
    raise SchemaError(
        f"{where}: {name[:QUOTE_LIMIT]} with parameters {quote(params)} is not a ring type"
    )


def _element_type(ring: ContextHandle, state: SerializerState) -> TypeTree:
    """An element's type node: its ring's, with ``Elem`` appended to the tag."""
    name, params = type_parts(_ring_type(ring, state))
    return type_node(name + "Elem", params)


def _element_ring(tn: TypeTree, state: DeserializerState, where: str) -> ContextHandle:
    """The parent ring an element type node names; an unregistered tag is
    unsupported."""
    name, params = type_parts(tn)
    if _decoder(name) is not _decode_element:
        raise SchemaError(f"{where}: {name[:QUOTE_LIMIT]} is not an element type")
    return _ring_from_type(type_node(name[: -len("Elem")], params), state, where)


def context_ref_document(ctx: ContextHandle, global_state: GlobalSerializerState) -> dict:
    """The `_refs` entry describing a polynomial ring context.

    The base ring is inlined for leaf rings, as its type node, and
    referenced by UUID when it is itself an interned polynomial ring
    (which must already be registered).
    """
    desc = ctx.descriptor
    if not isinstance(desc, _POLY_RINGS):
        raise UnsupportedTypeError(f"no ref document for non-polynomial ring {desc!r}")
    base = intern_context(desc.base)
    if isinstance(desc.base, _POLY_RINGS):
        base_json = global_state.uuid_for(base)
        if base_json is None:
            raise ContextNotPreloadedError(f"base ring of {desc!r} has no UUID; register it first")
    else:
        base_json = _ring_type(base, None)
    if isinstance(desc, UnivariatePolyRing):
        fields = {"base_ring": base_json, "symbol": desc.symbol}
    else:
        fields = {"base_ring": base_json, "symbols": list(desc.symbols)}
    return {"_type": _ring_type(ctx, None), "data": fields}


def context_uuid(ring: ContextHandle, state: SerializerState) -> str:
    """The UUID that names the polynomial ring ``ring`` in a type parameter.

    The ring and its polynomial base rings are registered in the global
    state; in long-term mode (or when ``state`` collects new refs) their ref
    documents join the document being saved.  In IPC mode a ring the global
    state does not know raises ContextNotPreloadedError.
    """
    desc = ring.descriptor
    if not isinstance(desc, _POLY_RINGS):
        raise UnsupportedTypeError(f"only polynomial rings are named by UUID, not {desc!r}")
    if isinstance(desc.base, _POLY_RINGS):
        context_uuid(intern_context(desc.base), state)
    uuid_key = state.global_state.uuid_for(ring)
    if uuid_key is None:
        if state.mode is Mode.IPC and not state.collect_new_refs:
            message = f"context not preloaded: {desc!r} is unknown to the global state"
            raise ContextNotPreloadedError(message)
        uuid_key = state.global_state.register_context(ring)
    if state.mode is Mode.LONG_TERM or state.collect_new_refs:
        if uuid_key not in state.pending_refs:
            state.pending_refs[uuid_key] = context_ref_document(ring, state.global_state)
    return uuid_key


def context_from_uuid(param, state: DeserializerState, where: str) -> ContextHandle:
    """The ring a UUID type parameter names: bound in the global state, or
    read from the document's ``_refs`` (``state.refs``) and bound.  A
    ``param`` that is not a UUID raises a SchemaError located at ``where``, a
    ref past ``MAX_NESTING_DEPTH`` refs deep one located at the ref."""
    if not is_uuid_text(param):
        raise SchemaError(f"{where}: expected a context UUID parameter, got {quote(param)}")
    ctx = state.global_state.resolve(param)
    if ctx is not None:
        return ctx
    if param in state.refs:
        if param in state._loading:
            raise SchemaError(f"cyclic reference through {param}")
        if len(state._loading) == MAX_NESTING_DEPTH:
            raise SchemaError(f"_refs/{param}: refs chained deeper than {MAX_NESTING_DEPTH} levels")
        state._loading.add(param)
        try:
            ctx = _context_from_ref(state.refs[param], state, f"_refs/{param}")
        except ValidationError as exc:  # the ring's own checks: a bad symbol or modulus
            raise SchemaError(f"_refs/{param}: {exc}") from None
        finally:
            state._loading.discard(param)
        state.global_state.bind(param, ctx)
        return ctx
    if state.mode is Mode.IPC:
        raise ContextNotPreloadedError(f"context not preloaded: {param}")
    raise DanglingReferenceError(f"dangling reference: {param}")


def _context_from_ref(ref: dict, state: DeserializerState, where: str) -> ContextHandle:
    """The polynomial ring a ref document describes by ``base_ring`` (a UUID,
    or a leaf ring's type node) and ``symbol`` or ``symbols``; its type must
    be what ``_ring_type`` gives that ring without a state."""
    data = ref["data"]
    fields = set(data) if isinstance(data, dict) else None
    if fields not in ({"base_ring", "symbol"}, {"base_ring", "symbols"}):
        raise SchemaError(f"{where}: ref documents must describe polynomial rings")
    base, at = data["base_ring"], f"{where}/base_ring"
    if is_uuid_text(base):
        base_desc = context_from_uuid(base, state, at).descriptor
    elif type_parts(base)[0] is not None:
        base_desc = _ring_from_type(base, state, at).descriptor
        if isinstance(base_desc, _POLY_RINGS):
            raise SchemaError(f"{at}: a polynomial base ring is named by its UUID")
    else:
        raise SchemaError(f"{at}: unknown base ring encoding {quote(base)}")
    symbols = data.get("symbol", data.get("symbols"))
    if "symbol" in data and isinstance(symbols, str):
        ring = intern_context(UnivariatePolyRing(base_desc, symbols))
    elif isinstance(symbols, list) and all(map(str.__instancecheck__, symbols)):
        ring = intern_context(MultivariatePolyRing(base_desc, tuple(symbols)))
    else:
        raise SchemaError(f"{where}: ring symbols must be text")
    if type_parts(ref["_type"]) != type_parts(_ring_type(ring, None)):
        raise SchemaError(
            f"{where}: the ref document of {quote(ring.descriptor)} has the wrong type"
        )
    return ring


# ----------------------------------------------------------------------------
# Element lists: one codec per ring descriptor type
# ----------------------------------------------------------------------------


class _ListCodec(NamedTuple):
    """How the elements of one kind of ring are written and read, a whole
    list at a time.

    ``writers(desc, mode)`` gives two functions from an element of ``desc``
    to its data: a fast one, which may raise ValueError for a number past
    the interpreter's digit limit, and one for any size.  ``decode(desc,
    items, state)`` gives the values of a list in a few passes over its
    columns, or None when some item is not all canonical text; the list is
    then read again item by item by ``decode_one(desc, item, state, where)``,
    which raises the SchemaError that locates a bad item at ``where`` (the
    same texts as reading item by item from the start).  A number past 4300
    digits also sends its list item by item.
    """

    writers: Callable
    decode: Callable
    decode_one: Callable


def _number_writers(desc, mode):
    return str, fraction_to_text  # fraction_to_text also writes integers


def _poly_writers(desc, mode):
    """The payload writers of a polynomial ring, the base ring's looked up
    once for a whole list."""
    base = desc.base
    fast, any_size = _list_codec(base, "encode").writers(base, mode)
    dense = mode is Mode.IPC and isinstance(desc, UnivariatePolyRing)
    zero = coercer(base)(0) if dense else None  # only a dense payload writes zeros
    return (
        partial(_poly_payload, desc, mode, str, fast, zero),
        partial(_poly_payload, desc, mode, int_to_text, any_size, zero),
    )


_POLY_CODEC = _ListCodec(
    _poly_writers,
    lambda desc, items, state: _read_polys(intern_context(desc), items, state),
    lambda desc, item, state, where: decode_polynomial(intern_context(desc), item, state, where),
)
_LIST_CODECS = {
    IntegerRing: _ListCodec(
        _number_writers,
        lambda desc, items, state: read_integers(items),
        lambda desc, item, state, where: int_from_text(item, where),
    ),
    RationalField: _ListCodec(
        _number_writers,
        lambda desc, items, state: read_rationals(items),
        lambda desc, item, state, where: fraction_from_text(item, where),
    ),
    PrimeField: _ListCodec(
        _number_writers,
        lambda desc, items, state: read_residues(desc, items),
        lambda desc, item, state, where: residue_from_text(desc, item, where),
    ),
    UnivariatePolyRing: _POLY_CODEC,
    MultivariatePolyRing: _POLY_CODEC,
}


def _list_codec(desc: RingDescriptor, verb: str) -> _ListCodec:
    codec = _LIST_CODECS.get(type(desc))
    if codec is None:
        raise UnsupportedTypeError(f"cannot {verb} coefficients of {desc!r}")
    return codec


def encode_elements(ring: ContextHandle, values, mode: Mode) -> list:
    """The data of each element of ``ring`` in ``values``, written in
    ``mode`` by writers looked up once for the whole list."""
    desc = ring.descriptor
    fast, any_size = _list_codec(desc, "encode").writers(desc, mode)
    try:
        return list(map(fast, values))
    except ValueError:  # a number past the interpreter's digit limit
        return list(map(any_size, values))


def decode_elements(ring: ContextHandle, payloads: list, state: DeserializerState, where: str):
    """The elements of ``ring`` that the list ``payloads`` holds, read in
    ``state``'s mode: a list of polynomials as one set of columns.  A list
    that is not all canonical text is read again item by item, which
    reports a bad item at ``where/i``."""
    desc = ring.descriptor
    codec = _list_codec(desc, "decode")
    values = codec.decode(desc, payloads, state)
    if values is None:
        values = [codec.decode_one(desc, x, state, f"{where}/{i}") for i, x in enumerate(payloads)]
    return values


# ----------------------------------------------------------------------------
# Polynomial payloads
# ----------------------------------------------------------------------------


def encode_polynomial(p: Polynomial, mode: Mode):
    """The ``data`` of a polynomial: ``[exponents, coefficient]`` pairs for a
    multivariate one; for a univariate one ``[degree, coefficient]`` pairs
    from the lowest degree up in long-term mode, dense coefficients from
    degree zero up in IPC mode."""
    return encode_elements(p.parent, (p,), mode)[0]


def _poly_payload(desc, mode: Mode, write_int, write_coeff, zero, p: Polynomial):
    if isinstance(desc, MultivariatePolyRing):
        return [[list(map(write_int, m)), write_coeff(c)] for m, c in p.terms]
    if mode is Mode.LONG_TERM:
        return [[write_int(d), write_coeff(c)] for (d,), c in reversed(p.terms)]
    if not p.terms:
        return []
    dense = [zero] * (p.terms[0][0][0] + 1)  # the leading term has the degree
    for (d,), c in p.terms:
        dense[d] = c
    return list(map(write_coeff, dense))


def _all_lists(items, length: int) -> bool:
    return set(map(type, items)) <= _LIST and set(map(len, items)) <= {length}


# The canonical text of every exponent below 256, read by one lookup each.
_SMALL_INTS = {str(n): n for n in range(256)}


def _read_exponents(items: list):
    """``items`` read as nonnegative integers, or None unless each is the
    canonical text of its value."""
    try:
        values = list(map(_SMALL_INTS.get, items))
    except TypeError:  # an unhashable item
        return None
    if None in values:
        values = read_integers(items)
        if values is not None and min(values) < 0:
            return None
    return values


def _read_polys(ring: ContextHandle, payloads: list, state: DeserializerState):
    """The polynomials of ``ring`` that ``payloads`` hold, read in
    ``state``'s mode a column at a time, or None unless every item is
    canonical text.

    The payloads are chained into one list of terms.  One pass reads every
    exponent (or degree), one list-codec pass every coefficient, and the
    terms are split again by payload length.  Zero coefficients (an IPC
    payload's dense padding) are dropped in one pass; a polynomial whose
    terms then stand in canonical order is built as it is, any other one by
    ``from_terms``, which sorts and adds up repeated monomials."""
    desc = ring.descriptor
    codec = _list_codec(desc.base, "decode")
    if not set(map(type, payloads)) <= _LIST:
        return None
    lengths = list(map(len, payloads))
    flat = list(chain.from_iterable(payloads))
    univariate = isinstance(desc, UnivariatePolyRing)
    if univariate and state.mode is Mode.IPC:
        exponents = list(chain.from_iterable(map(range, lengths)))
        items = flat
    elif not _all_lists(flat, 2):
        return None
    else:
        heads, items = (list(column) for column in zip(*flat)) if flat else ([], [])
        if univariate:
            exponents = _read_exponents(heads)
        elif _all_lists(heads, len(desc.symbols)):
            exponents = _read_exponents(list(chain.from_iterable(heads)))
        else:
            return None
    if exponents is None:
        return None
    coeffs = codec.decode(desc.base, items, state)
    if coeffs is None:
        return None
    if univariate:
        monos = list(zip(exponents))
        keys = exponents
    else:
        monos = list(zip(*[iter(exponents)] * len(desc.symbols)))
        keys = list(zip(map(sum, monos), monos))
    ends = list(accumulate(lengths, initial=0))
    keep = list(map(bool, coeffs))
    if not all(keep):
        monos, coeffs, keys = (list(compress(column, keep)) for column in (monos, coeffs, keys))
        kept = list(accumulate(keep, initial=0))
        ends = [kept[end] for end in ends]
    # A univariate payload is written lowest degree first, the reverse of canonical.
    ordered = list(map(lt if univariate else gt, keys, keys[1:]))
    terms = list(zip(monos, coeffs))
    polys = []
    for start, end in zip(ends, ends[1:]):
        chunk = terms[start:end]
        if univariate:
            chunk.reverse()
        if end - start < 2 or all(ordered[start : end - 1]):
            polys.append(Polynomial(ring, chunk))
        else:
            polys.append(Polynomial.from_terms(ring, chunk))
    return polys


def decode_polynomial(ring: ContextHandle, data, state: DeserializerState, where: str):
    """The polynomial of ``ring`` that the payload ``data`` holds, read in
    ``state``'s mode; a bad payload raises a SchemaError located at ``where``.

    A canonical payload is read as a list of one (``_read_polys``), any
    other term by term, which raises the error of the first bad term.  Terms
    in another order than canonical, zero coefficients and repeated
    monomials are normalized."""
    if not isinstance(data, list):
        raise SchemaError(f"{where}: polynomial payload must be a sequence")
    polys = _read_polys(ring, [data], state)
    if polys is not None:
        return polys[0]
    desc = ring.descriptor
    codec = _list_codec(desc.base, "decode")
    if isinstance(desc, UnivariatePolyRing) and state.mode is Mode.IPC:
        coeffs = [codec.decode_one(desc.base, c, state, f"{where}/{i}") for i, c in enumerate(data)]
        return Polynomial.from_terms(ring, [((d,), c) for d, c in enumerate(coeffs)])
    return Polynomial.from_terms(ring, _terms_one_by_one(desc, codec, data, state, where))


def _terms_one_by_one(desc, codec: _ListCodec, data: list, state: DeserializerState, where: str):
    """The terms of a long-term univariate or a multivariate payload, read
    one at a time so the first bad term raises its SchemaError."""
    terms = []
    for i, pair in enumerate(data):
        at = f"{where}/{i}"
        if isinstance(desc, UnivariatePolyRing):
            if not isinstance(pair, list) or len(pair) != 2:
                raise SchemaError(f"{at}: expected a [degree, coefficient] pair")
            degree = int_from_text(pair[0], at)
            if degree < 0:
                raise SchemaError(f"{at}: negative degree")
            mono = (degree,)
        else:
            if not isinstance(pair, list) or len(pair) != 2 or not isinstance(pair[0], list):
                raise SchemaError(f"{at}: expected an [exponents, coefficient] pair")
            if len(pair[0]) != len(desc.symbols):
                raise SchemaError(
                    f"{at}: exponent vector has length {len(pair[0])}, ring has {len(desc.symbols)}"
                )
            mono = tuple(int_from_text(e, at) for e in pair[0])
            if min(mono) < 0:
                raise SchemaError(f"{at}: negative exponent")
        terms.append((mono, codec.decode_one(desc.base, pair[1], state, at)))
    return terms


# ----------------------------------------------------------------------------
# The built-in types; save and load
# ----------------------------------------------------------------------------


_ZZ_ELEM = _element_type(ZZ, None)
_QQ_ELEM = _element_type(QQ, None)
_zz_type = lambda n, state: _ZZ_ELEM  # noqa: E731
_qq_type = lambda q, state: _QQ_ELEM  # noqa: E731
_zz_data = lambda n, state: int_to_text(n)  # noqa: E731
_qq_data = lambda q, state: fraction_to_text(q)  # noqa: E731
_poly_type = lambda p, state: _element_type(p.parent, state)  # noqa: E731
_poly_data = lambda p, state: encode_polynomial(p, state.mode)  # noqa: E731
_matrix_type = lambda m, state: type_node("Matrix", _element_type(m.parent, state))  # noqa: E731


def _value_ring(tn: TypeTree, state: DeserializerState, where: str) -> ContextHandle:
    """The parent ring of an element type node outside a Matrix.  A residue
    of GF(p) loads as an int, which saves as a ZZRingElem, so GF(p) elements
    are read only as Matrix entries."""
    ring = _element_ring(tn, state, where)
    if isinstance(ring.descriptor, PrimeField):
        raise SchemaError(f"{where}: GF(p) elements are stored only as Matrix entries")
    return ring


def _decode_element(tn: TypeTree, data, state: DeserializerState):
    where = state.cursor()
    desc = _value_ring(tn, state, where).descriptor
    return _list_codec(desc, "decode").decode_one(desc, data, state, where)


def _decode_ring(tn: TypeTree, data, state: DeserializerState) -> ContextHandle:
    where = state.cursor()
    if data != {}:
        raise SchemaError(f"{where}: a ring's payload must be {{}}")
    return _ring_from_type(tn, state, where)


def _matrix_data(m: ExactMatrix, state: SerializerState):
    entries = encode_elements(m.parent, m.entries, state.mode)
    return {"nrows": str(m.nrows), "ncols": str(m.ncols), "entries": entries}


def _decode_matrix(tn: TypeTree, data, state: DeserializerState) -> ExactMatrix:
    where = state.cursor()
    element = type_parts(tn)[1]
    if type_parts(element)[0] is None:
        raise SchemaError(f"{where}: Matrix needs an element type parameter")
    if not isinstance(data, dict) or set(data) != {"nrows", "ncols", "entries"}:
        raise SchemaError(f"{where}: Matrix payload needs nrows/ncols/entries")
    nrows = int_from_text(data["nrows"], where)
    ncols = int_from_text(data["ncols"], where)
    for name, size in (("nrows", nrows), ("ncols", ncols)):
        if size < 0:
            raise SchemaError(
                f"{where}/{name}: matrix dimensions must be nonnegative, got {quote(size)}"
            )
    raw = data["entries"]
    if not isinstance(raw, list) or len(raw) != nrows * ncols:
        raise SchemaError(f"{where}: expected {quote(nrows * ncols)} matrix entries")
    ring = _element_ring(element, state, where)
    entries = decode_elements(ring, raw, state, f"{where}/entries")
    return ExactMatrix.of_canonical(ring, nrows, ncols, entries)


def _vector_type(items: list, state: SerializerState) -> TypeTree:
    types = [_build_type(item, state) for item in items]
    if any(t != types[0] for t in types[1:]):
        raise UnsupportedTypeError(
            "lists serialize as homogeneous vectors; use a tuple for mixed types"
        )
    return type_node("Vector", types[0] if types else None)


def _tuple_type(items: tuple, state: SerializerState) -> TypeTree:
    types = {str(i): _build_type(item, state) for i, item in enumerate(items)}
    return type_node("Tuple", types or None)


def _sequence_data(items, state: SerializerState) -> list:
    kinds = set(map(type, items))  # numbers, or polynomials of one ring: one element list
    if kinds <= _NUMBER_TYPES:  # integers are rationals too
        return encode_elements(QQ, items, state.mode)
    if kinds == {Polynomial} and all(p.parent is items[0].parent for p in items):
        return encode_elements(items[0].parent, items, state.mode)
    return [_build_data(item, state) for item in items]


def _decode_items(types, data: list, state: DeserializerState) -> list:
    """The values of ``data`` read item by item, item i as ``types[i]``."""
    out = []
    for i, (tn, item) in enumerate(zip(types, data)):
        state.path.append(str(i))
        out.append(_decode(tn, item, state))
        state.path.pop()
    return out


def _decode_vector(tn: TypeTree, data, state: DeserializerState) -> list:
    where = state.cursor()
    element = type_parts(tn)[1]
    if not isinstance(data, list):
        raise SchemaError(f"{where}: Vector payload must be a sequence")
    if element is None and not data:
        return []
    name = type_parts(element)[0]
    if name is None or not data:
        raise SchemaError(f"{where}: a nonempty Vector has one element type, an empty one none")
    if _decoder(name) is _decode_element:
        ring = _value_ring(element, state, where)
        return decode_elements(ring, data, state, where)
    return _decode_items([element] * len(data), data, state)


def _decode_tuple(tn: TypeTree, data, state: DeserializerState) -> tuple:
    where = state.cursor()
    params = type_parts(tn)[1]
    if not isinstance(data, list):
        raise SchemaError(f"{where}: Tuple payload must be a sequence")
    if params is None and not data:
        return ()
    positions = [str(i) for i in range(len(data))]
    if not isinstance(params, dict) or not data or set(params) != set(positions):
        raise SchemaError(f"{where}: Tuple parameters must map the positions 0..n-1 to types")
    types = [params[key] for key in positions]
    if any(type_parts(slot)[0] is None for slot in types):
        raise SchemaError(f"{where}: every tuple slot must hold a type node")
    return tuple(_decode_items(types, data, state))


register_codec(int, ("ZZRingElem", "PrimeFieldElem"), _zz_type, _zz_data, _decode_element)
register_codec(Fraction, "QQFieldElem", _qq_type, _qq_data, _decode_element)
register_codec(
    Polynomial, ("PolyRingElem", "MPolyRingElem"), _poly_type, _poly_data, _decode_element
)
register_codec(
    ContextHandle,
    ("ZZRing", "QQField", "PrimeField", "PolyRing", "MPolyRing"),
    _ring_type,
    lambda ring, state: {},
    _decode_ring,
)
register_codec(ExactMatrix, "Matrix", _matrix_type, _matrix_data, _decode_matrix)
register_codec(list, "Vector", _vector_type, _sequence_data, _decode_vector)
register_codec(tuple, "Tuple", _tuple_type, _sequence_data, _decode_tuple)


def _encoder(obj):
    """The (build_type, build_data) pair of ``obj``'s type, or for a
    subclass of its nearest registered base; bool, a subclass of int, is
    not serializable."""
    cls = type(obj)
    encoder = _ENCODERS.get(cls)
    if encoder is None and cls is not bool:
        encoder = next((_ENCODERS[base] for base in cls.__mro__ if base in _ENCODERS), None)
    if encoder is None:
        raise UnsupportedTypeError(f"unsupported type: {cls.__name__}")
    return encoder


def _build_type(obj, state: SerializerState) -> TypeTree:
    return _encoder(obj)[0](obj, state)


def _build_data(obj, state: SerializerState):
    return _encoder(obj)[1](obj, state)


def save(obj, state: SerializerState) -> dict:
    """The document of ``obj`` under the given per-document state."""
    state.pending_refs.clear()
    type_tree = _build_type(obj, state)
    data = _build_data(obj, state)
    if state.mode is Mode.LONG_TERM:
        ns = {"system": SYSTEM_NAME, "version": FORMAT_VERSION}
        return {"_ns": ns, "_type": type_tree, "_refs": dict(state.pending_refs), "data": data}
    return {"_type": type_tree, "data": data}


def _decoder(name):
    """The decoder of tag ``name``; an unregistered tag is unsupported."""
    decoder = _DECODERS.get(name)
    if decoder is None:
        raise UnsupportedTypeError(f"unsupported type tag: {quote(name)}")
    return decoder


def _decode(tn: TypeTree, data, state: DeserializerState):
    """The value ``data`` holds as type ``tn``.  A value the algebra rejects
    (a composite modulus, a negative dimension, an invalid map) raises a
    SchemaError located at the value, like every other bad document."""
    decoder = _decoder(type_parts(tn)[0])
    try:
        return decoder(tn, data, state)
    except ValidationError as exc:
        raise SchemaError(f"{state.cursor()}: {exc}") from None


def load(doc: dict, state: DeserializerState):
    """Reconstruct the value stored in ``doc``, a document that keeps the
    shape rules, under the given state."""
    ns, ours = doc.get("_ns"), FORMAT_VERSION.split(".")[0]
    if ns is not None and ns["version"] and ns["version"].split(".")[0] != ours:
        warnings.warn(
            f"document written by {ns['system'][:QUOTE_LIMIT]} "
            f"{ns['version'][:QUOTE_LIMIT]}, "
            f"this is format major version {ours}; loading anyway",
            stacklevel=2,
        )
    state.refs = doc.get("_refs", {})
    state.path = []
    return _decode(doc["_type"], doc["data"], state)
