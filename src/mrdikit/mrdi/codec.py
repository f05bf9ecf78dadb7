"""save/load between algebra values and mrdi documents.

Serialization runs in two phases: a shallow pass over the value builds the
``_type`` subtree and registers every parent context it meets (depth-first,
so a ring's own base ring is registered before it), then the payload is
written to ``data``.  Long-term mode emits ``_ns`` plus the accumulated refs;
IPC mode emits a bare type/data pair and requires contexts to be known to the
global state already.

The univariate payload has two encodings selected by mode: sparse
``[degree, coefficient]`` pairs in ascending degree for storage, a dense
coefficient list from degree zero upward for IPC.

Coefficients, matrix entries and vectors of ring elements are written and
read a whole list at a time, through one list codec per ring descriptor type
(``_LIST_CODECS``).  A list whose text is not all canonical is read again one
item at a time, which raises the SchemaError that locates the bad item.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from functools import partial
from itertools import chain
from operator import attrgetter, gt

from ..algebra.polynomials import Polynomial
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
    domain_for,
    intern_context,
)
from ..errors import (
    ContextNotPreloadedError,
    DanglingReferenceError,
    SchemaError,
    UnsupportedTypeError,
)
from .document import (
    FORMAT_VERSION,
    Mode,
    MrdiDocument,
    NamespaceRecord,
    TypeNode,
    is_uuid_text,
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

_RING_TAGS = {"ZZRing", "QQField", "PrimeField", "PolyRing", "MPolyRing"}
# Tags of ring elements, whose lists are read by the ring's list codec.
_ELEMENT_TAGS = {"ZZRingElem", "QQFieldElem", "PrimeFieldElem", "PolyRingElem", "MPolyRingElem"}
# Every tag ``_decode`` handles itself.
_BUILTIN_TAGS = _RING_TAGS | _ELEMENT_TAGS | {"Matrix", "Vector", "Tuple"}
_LIST = {list}
_NUMBER_TYPES = {int, Fraction}

# tag -> decode(type_node, data, state); extended by register_codec.
_DECODERS = {}
# python type -> (tag, build_type(obj, state), build_data(obj, state))
_ENCODERS = {}


def register_codec(py_type, tag, build_type, build_data, decode):
    """Add a serializable type to the registry (used for e.g. monomial maps)."""
    _ENCODERS[py_type] = (tag, build_type, build_data)
    _DECODERS[tag] = decode


def registered_type_tags() -> set[str]:
    return set(_DECODERS) | _BUILTIN_TAGS


# ----------------------------------------------------------------------------
# Context registration and ref documents
# ----------------------------------------------------------------------------


def _leaf_type_node(desc: RingDescriptor) -> TypeNode:
    if isinstance(desc, IntegerRing):
        return TypeNode("ZZRing")
    if isinstance(desc, RationalField):
        return TypeNode("QQField")
    if isinstance(desc, PrimeField):
        return TypeNode("PrimeField", {"modulus": str(desc.p)})
    raise UnsupportedTypeError(f"not a leaf ring: {desc!r}")


def _leaf_data_encoding(desc: RingDescriptor):
    # Inline base-ring spelling used inside ref documents (a DataNode).
    if isinstance(desc, IntegerRing):
        return "ZZRing"
    if isinstance(desc, RationalField):
        return "QQField"
    if isinstance(desc, PrimeField):
        return {"name": "PrimeField", "params": {"modulus": str(desc.p)}}
    raise UnsupportedTypeError(f"not a leaf ring: {desc!r}")


def context_ref_document(ctx: ContextHandle, global_state: GlobalSerializerState) -> MrdiDocument:
    """The `_refs` entry describing a polynomial ring context.

    The base ring is inlined for leaf rings and referenced by UUID when it is
    itself an interned polynomial ring (which must already be registered).
    """
    desc = ctx.descriptor
    if isinstance(desc, (UnivariatePolyRing, MultivariatePolyRing)):
        base = desc.base
        if isinstance(base, (UnivariatePolyRing, MultivariatePolyRing)):
            base_enc = global_state.uuid_for(intern_context(base))
            if base_enc is None:
                raise ContextNotPreloadedError(
                    f"base ring of {desc!r} has no UUID; register it first"
                )
        else:
            base_enc = _leaf_data_encoding(base)
        if isinstance(desc, UnivariatePolyRing):
            return MrdiDocument(
                TypeNode("PolyRing"),
                {"base_ring": base_enc, "symbol": desc.symbol},
            )
        return MrdiDocument(
            TypeNode("MPolyRing"),
            {"base_ring": base_enc, "symbols": list(desc.symbols)},
        )
    raise UnsupportedTypeError(f"no ref document for non-polynomial ring {desc!r}")


def _register_poly_context(ctx: ContextHandle, state: SerializerState) -> str:
    desc = ctx.descriptor
    if isinstance(desc.base, (UnivariatePolyRing, MultivariatePolyRing)):
        _register_poly_context(intern_context(desc.base), state)
    uuid_key = state.global_state.uuid_for(ctx)
    if uuid_key is None:
        if state.mode is Mode.IPC and not state.collect_new_refs:
            raise ContextNotPreloadedError(
                f"context not preloaded: {desc!r} is unknown to the global state"
            )
        uuid_key = state.global_state.register_context(ctx)
    if state.mode is Mode.LONG_TERM or state.collect_new_refs:
        if uuid_key not in state.pending_refs:
            state.pending_refs[uuid_key] = context_ref_document(ctx, state.global_state)
    return uuid_key


def register_context(global_state: GlobalSerializerState, ctx: ContextHandle) -> str:
    """Bind ``ctx`` to a UUID in ``global_state`` (idempotent)."""
    return global_state.register_context(ctx)


def load_context_document(
    ref: MrdiDocument, global_state: GlobalSerializerState, uuid_key: str
) -> ContextHandle:
    """Reconstruct a ring from a ref document received on its own (IPC preload).

    Base rings referenced by UUID must already be bound in ``global_state``;
    the new binding is recorded under ``uuid_key``.
    """
    state = DeserializerState(Mode.IPC, global_state)
    ctx = _context_from_ref(ref, state, f"context {uuid_key}")
    global_state.bind(uuid_key, ctx)
    return ctx


def context_dependency_chain(ctx: ContextHandle) -> list[ContextHandle]:
    """A ring's polynomial-ring ancestry, innermost first, ending with ``ctx``.

    This is the post-order a sender must follow so every context arrives
    after its dependencies.
    """
    ancestry = []
    desc = ctx.descriptor
    if isinstance(desc, (UnivariatePolyRing, MultivariatePolyRing)):
        base = desc.base
        if isinstance(base, (UnivariatePolyRing, MultivariatePolyRing)):
            ancestry.extend(context_dependency_chain(intern_context(base)))
        ancestry.append(ctx)
    return ancestry


# ----------------------------------------------------------------------------
# Element lists: one codec per ring descriptor type
# ----------------------------------------------------------------------------


def _polys_from_data(desc, items, state, where):
    ring = intern_context(desc)
    return [_decode_poly_data(ring, item, state, f"{where}/{i}") for i, item in enumerate(items)]


class _ListCodec:
    """How the elements of one kind of ring are written and read, a whole
    list at a time.

    ``writers(mode)`` gives two functions from an element to its data: a
    fast one, which may raise ValueError for a number past the interpreter's
    digit limit, and one for any size.  ``decode(desc, items, state, where)``
    gives the values of a list, or None when an item needs reading on its
    own by ``decode_one(desc, item, state, where)``, which raises the
    SchemaError that locates a bad item at ``where``.  ``nonzero(value)`` is
    false for 0.
    """

    __slots__ = ("writers", "decode", "decode_one", "nonzero")

    def __init__(self, writers, decode, decode_one, nonzero):
        self.writers = writers
        self.decode = decode
        self.decode_one = decode_one
        self.nonzero = nonzero


def _number_writers(mode):
    return str, fraction_to_text  # fraction_to_text also writes integers


def _poly_writers(mode):
    write = partial(_encode_poly_data, mode=mode)
    return write, write


_POLY_CODEC = _ListCodec(
    _poly_writers,
    _polys_from_data,
    lambda desc, item, state, where: _decode_poly_data(intern_context(desc), item, state, where),
    attrgetter("terms"),
)
_LIST_CODECS = {
    IntegerRing: _ListCodec(
        _number_writers,
        lambda desc, items, state, where: read_integers(items),
        lambda desc, item, state, where: int_from_text(item, where),
        bool,
    ),
    RationalField: _ListCodec(
        _number_writers,
        lambda desc, items, state, where: read_rationals(items),
        lambda desc, item, state, where: fraction_from_text(item, where),
        bool,
    ),
    PrimeField: _ListCodec(
        _number_writers,
        lambda desc, items, state, where: read_residues(desc, items),
        lambda desc, item, state, where: residue_from_text(desc, item, where),
        bool,
    ),
    UnivariatePolyRing: _POLY_CODEC,
    MultivariatePolyRing: _POLY_CODEC,
}


def _list_codec(desc: RingDescriptor, verb: str) -> _ListCodec:
    codec = _LIST_CODECS.get(type(desc))
    if codec is None:
        raise UnsupportedTypeError(f"cannot {verb} coefficients of {desc!r}")
    return codec


def _encode_elements(desc: RingDescriptor, values, mode: Mode) -> list:
    """The data of each element of the ring ``desc`` in ``values``."""
    fast, any_size = _list_codec(desc, "encode").writers(mode)
    try:
        return list(map(fast, values))
    except ValueError:  # a number past the interpreter's digit limit
        return list(map(any_size, values))


def _decode_elements(desc: RingDescriptor, items: list, state: DeserializerState, where: str):
    """The elements of the ring ``desc`` that ``items`` hold; a bad item is
    reported at ``where/i``."""
    codec = _list_codec(desc, "decode")
    values = codec.decode(desc, items, state, where)
    if values is None:
        values = [
            codec.decode_one(desc, item, state, f"{where}/{i}") for i, item in enumerate(items)
        ]
    return values


# ----------------------------------------------------------------------------
# Polynomial payloads
# ----------------------------------------------------------------------------


def _encode_poly_data(p: Polynomial, mode: Mode):
    fast, any_size = _list_codec(p.parent.descriptor.base, "encode").writers(mode)
    try:
        return _poly_payload(p, mode, str, fast)
    except ValueError:  # a number past the interpreter's digit limit
        return _poly_payload(p, mode, int_to_text, any_size)


def _poly_payload(p: Polynomial, mode: Mode, write_int, write_coeff):
    desc = p.parent.descriptor
    if isinstance(desc, MultivariatePolyRing):
        return [[list(map(write_int, m)), write_coeff(c)] for m, c in p.terms]
    if mode is Mode.LONG_TERM:
        return [[write_int(d), write_coeff(c)] for (d,), c in reversed(p.terms)]
    if not p.terms:
        return []
    dense = [domain_for(desc.base).zero] * (p.degree() + 1)
    for (d,), c in p.terms:
        dense[d] = c
    return list(map(write_coeff, dense))


def _all_lists(items, length: int) -> bool:
    return set(map(type, items)) <= _LIST and set(map(len, items)) <= {length}


def _decode_poly_data(ring: ContextHandle, data, state: DeserializerState, where: str) -> Polynomial:
    """Whole columns of a payload at once when every item is canonical;
    otherwise term by term, which raises the error of the first bad term.
    Terms already in canonical order make the polynomial directly; any other
    order (or a zero coefficient, or a repeated monomial) is normalized."""
    desc = ring.descriptor
    base = desc.base
    if not isinstance(data, list):
        raise SchemaError(f"{where}: polynomial payload must be a sequence")
    codec = _list_codec(base, "decode")
    if isinstance(desc, UnivariatePolyRing) and state.mode is Mode.IPC:
        coeffs = _decode_elements(base, data, state, where)
        keep = list(map(codec.nonzero, coeffs))
        return Polynomial(ring, [((d,), coeffs[d]) for d in reversed(range(len(data))) if keep[d]])
    if _all_lists(data, 2):
        heads, items = (list(column) for column in zip(*data)) if data else ([], [])
        if isinstance(desc, UnivariatePolyRing):
            exponents = read_integers(heads)
            arity = 1
        else:
            arity = len(desc.symbols)
            exponents = None
            if _all_lists(heads, arity):
                exponents = read_integers(list(chain.from_iterable(heads)))
        if exponents is not None and (not exponents or min(exponents) >= 0):
            coeffs = codec.decode(base, items, state, where)
            if coeffs is not None:
                monos = list(zip(*[iter(exponents)] * arity))
                if isinstance(desc, UnivariatePolyRing):  # written lowest degree first
                    monos.reverse()
                    coeffs.reverse()
                keys = list(zip(map(sum, monos), monos))
                if all(map(gt, keys, keys[1:])) and all(map(codec.nonzero, coeffs)):
                    return Polynomial(ring, zip(monos, coeffs))
                return Polynomial.from_terms(ring, zip(monos, coeffs))
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
        terms.append((mono, codec.decode_one(desc.base, pair[1], state, at)))
    return terms


def encode_univariate(p: Polynomial, mode: Mode):
    """The two payload encodings for univariate polynomials (sparse/dense)."""
    if not isinstance(p.parent.descriptor, UnivariatePolyRing):
        raise UnsupportedTypeError("encode_univariate expects a univariate polynomial")
    return _encode_poly_data(p, mode)


# ----------------------------------------------------------------------------
# Type building (phase 1)
# ----------------------------------------------------------------------------


def _element_type_for_ring(ring: ContextHandle, state: SerializerState) -> TypeNode:
    desc = ring.descriptor
    if isinstance(desc, IntegerRing):
        return TypeNode("ZZRingElem")
    if isinstance(desc, RationalField):
        return TypeNode("QQFieldElem")
    if isinstance(desc, PrimeField):
        return TypeNode("PrimeFieldElem", {"modulus": str(desc.p)})
    if isinstance(desc, UnivariatePolyRing):
        return TypeNode("PolyRingElem", _register_poly_context(ring, state))
    if isinstance(desc, MultivariatePolyRing):
        return TypeNode("MPolyRingElem", _register_poly_context(ring, state))
    raise UnsupportedTypeError(f"no element type for ring {desc!r}")


def _build_type(obj, state: SerializerState) -> TypeNode:
    if isinstance(obj, bool):
        raise UnsupportedTypeError("booleans are not serializable")
    if isinstance(obj, int):
        return TypeNode("ZZRingElem")
    if isinstance(obj, Fraction):
        return TypeNode("QQFieldElem")
    if isinstance(obj, Polynomial):
        return _element_type_for_ring(obj.parent, state)
    if isinstance(obj, ExactMatrix):
        return TypeNode("Matrix", _element_type_for_ring(obj.parent, state))
    if isinstance(obj, ContextHandle):
        desc = obj.descriptor
        if isinstance(desc, UnivariatePolyRing):
            return TypeNode("PolyRing", _register_poly_context(obj, state))
        if isinstance(desc, MultivariatePolyRing):
            return TypeNode("MPolyRing", _register_poly_context(obj, state))
        return _leaf_type_node(desc)
    if isinstance(obj, list):
        if not obj:
            return TypeNode("Vector")
        elem_types = [_build_type(item, state) for item in obj]
        if any(t != elem_types[0] for t in elem_types[1:]):
            raise UnsupportedTypeError(
                "lists serialize as homogeneous vectors; use a tuple for mixed types"
            )
        return TypeNode("Vector", elem_types[0])
    if isinstance(obj, tuple):
        if not obj:
            return TypeNode("Tuple")
        return TypeNode(
            "Tuple",
            {str(i): _build_type(item, state) for i, item in enumerate(obj)},
        )
    encoder = _ENCODERS.get(type(obj))
    if encoder is not None:
        _, build_type, _ = encoder
        return build_type(obj, state)
    raise UnsupportedTypeError(f"unsupported type: {type(obj).__name__}")


# ----------------------------------------------------------------------------
# Data building (phase 2)
# ----------------------------------------------------------------------------


def _build_data(obj, state: SerializerState):
    if isinstance(obj, int):
        return int_to_text(obj)
    if isinstance(obj, Fraction):
        return fraction_to_text(obj)
    if isinstance(obj, Polynomial):
        return _encode_poly_data(obj, state.mode)
    if isinstance(obj, ExactMatrix):
        return {
            "nrows": str(obj.nrows),
            "ncols": str(obj.ncols),
            "entries": _encode_elements(obj.parent.descriptor, obj.entries, state.mode),
        }
    if isinstance(obj, ContextHandle):
        return {}
    if isinstance(obj, (list, tuple)):
        if set(map(type, obj)) <= _NUMBER_TYPES:  # integers are rationals too
            return _encode_elements(QQ.descriptor, obj, state.mode)
        return [_build_data(item, state) for item in obj]
    encoder = _ENCODERS.get(type(obj))
    if encoder is not None:
        _, _, build_data = encoder
        return build_data(obj, state)
    raise UnsupportedTypeError(f"unsupported type: {type(obj).__name__}")


def save(obj, state: SerializerState) -> MrdiDocument:
    """Serialize ``obj`` under the given per-document state."""
    state.pending_refs.clear()
    type_tree = _build_type(obj, state)
    data = _build_data(obj, state)
    if state.mode is Mode.LONG_TERM:
        return MrdiDocument(
            type_tree=type_tree,
            data=data,
            ns=NamespaceRecord(),
            refs=dict(state.pending_refs),
        )
    return MrdiDocument(type_tree=type_tree, data=data)


# ----------------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------------


def _resolve_context(uuid_key: str, state: DeserializerState) -> ContextHandle:
    ctx = state.global_state.resolve(uuid_key)
    if ctx is not None:
        return ctx
    doc = state.document
    refs = doc.refs if doc is not None and doc.refs is not None else {}
    if uuid_key in refs:
        if uuid_key in state._loading:
            raise SchemaError(f"cyclic reference through {uuid_key}")
        state._loading.add(uuid_key)
        try:
            ctx = _context_from_ref(refs[uuid_key], state, f"_refs/{uuid_key}")
        finally:
            state._loading.discard(uuid_key)
        state.global_state.bind(uuid_key, ctx)
        return ctx
    if state.mode is Mode.IPC:
        raise ContextNotPreloadedError(f"context not preloaded: {uuid_key}")
    raise DanglingReferenceError(f"dangling reference: {uuid_key}")


def _leaf_descriptor_from_encoding(enc, where: str) -> RingDescriptor:
    if enc == "ZZRing":
        return IntegerRing()
    if enc == "QQField":
        return RationalField()
    if isinstance(enc, dict) and enc.get("name") == "PrimeField":
        params = enc.get("params")
        if not isinstance(params, dict) or "modulus" not in params:
            raise SchemaError(f"{where}: PrimeField needs a modulus parameter")
        return PrimeField(int_from_text(params["modulus"], where))
    raise SchemaError(f"{where}: unknown base ring encoding {enc!r}")


def _context_from_ref(ref: MrdiDocument, state: DeserializerState, where: str) -> ContextHandle:
    tag = ref.type_tree.name
    data = ref.data
    if tag not in ("PolyRing", "MPolyRing") or not isinstance(data, dict):
        raise SchemaError(f"{where}: ref documents must describe polynomial rings")
    if "base_ring" not in data:
        raise SchemaError(f"{where}: missing base_ring")
    base_enc = data["base_ring"]
    if is_uuid_text(base_enc):
        base_desc = _resolve_context(base_enc, state).descriptor
    else:
        base_desc = _leaf_descriptor_from_encoding(base_enc, f"{where}/base_ring")
    if tag == "PolyRing":
        symbol = data.get("symbol")
        if not isinstance(symbol, str):
            raise SchemaError(f"{where}: missing symbol")
        return intern_context(UnivariatePolyRing(base_desc, symbol))
    symbols = data.get("symbols")
    if not isinstance(symbols, list) or not all(isinstance(s, str) for s in symbols):
        raise SchemaError(f"{where}: missing symbols")
    return intern_context(MultivariatePolyRing(base_desc, tuple(symbols)))


def _ring_for_element_type(tn: TypeNode, state: DeserializerState) -> ContextHandle:
    if tn.name == "ZZRingElem":
        return ZZ
    if tn.name == "QQFieldElem":
        return QQ
    if tn.name == "PrimeFieldElem":
        if not isinstance(tn.params, dict) or "modulus" not in tn.params:
            raise SchemaError("PrimeFieldElem needs a modulus parameter")
        return GF(int_from_text(tn.params["modulus"], "_type"))
    if tn.name in ("PolyRingElem", "MPolyRingElem"):
        if not is_uuid_text(tn.params):
            raise SchemaError(f"{tn.name} needs a parent context UUID parameter")
        return _resolve_context(tn.params, state)
    raise UnsupportedTypeError(f"no parent ring for element type {tn.name!r}")


def _decode(tn: TypeNode, data, state: DeserializerState):
    where = state.cursor()
    name = tn.name
    if name in _ELEMENT_TAGS:
        desc = _ring_for_element_type(tn, state).descriptor
        return _list_codec(desc, "decode").decode_one(desc, data, state, where)
    if name == "Matrix":
        if not isinstance(tn.params, TypeNode):
            raise SchemaError(f"{where}: Matrix needs an element type parameter")
        if not isinstance(data, dict) or set(data) != {"nrows", "ncols", "entries"}:
            raise SchemaError(f"{where}: Matrix payload needs nrows/ncols/entries")
        nrows = int_from_text(data["nrows"], where)
        ncols = int_from_text(data["ncols"], where)
        raw = data["entries"]
        if not isinstance(raw, list) or len(raw) != nrows * ncols:
            raise SchemaError(f"{where}: expected {nrows * ncols} matrix entries")
        ring = _ring_for_element_type(tn.params, state)
        entries = _decode_elements(ring.descriptor, raw, state, f"{where}/entries")
        return ExactMatrix(ring, nrows, ncols, entries)
    if name == "Vector":
        if not isinstance(data, list):
            raise SchemaError(f"{where}: Vector payload must be a sequence")
        if tn.params is None:
            if data:
                raise SchemaError(f"{where}: nonempty vector without an element type")
            return []
        if not isinstance(tn.params, TypeNode):
            raise SchemaError(f"{where}: Vector element type must be a type node")
        if data and tn.params.name in _ELEMENT_TAGS:
            ring = _ring_for_element_type(tn.params, state)
            return _decode_elements(ring.descriptor, data, state, where)
        out = []
        for i, item in enumerate(data):
            state.path.append(str(i))
            out.append(_decode(tn.params, item, state))
            state.path.pop()
        return out
    if name == "Tuple":
        if not isinstance(data, list):
            raise SchemaError(f"{where}: Tuple payload must be a sequence")
        if tn.params is None:
            if data:
                raise SchemaError(f"{where}: nonempty tuple without element types")
            return ()
        if not isinstance(tn.params, dict):
            raise SchemaError(f"{where}: Tuple parameters must map positions to types")
        try:
            slots = sorted(tn.params, key=int)
        except ValueError:
            raise SchemaError(f"{where}: Tuple parameter keys must be positions") from None
        if len(slots) != len(data):
            raise SchemaError(f"{where}: tuple arity mismatch")
        out = []
        for key, item in zip(slots, data):
            elem_tn = tn.params[key]
            if not isinstance(elem_tn, TypeNode):
                raise SchemaError(f"{where}: tuple slot {key} must hold a type node")
            state.path.append(key)
            out.append(_decode(elem_tn, item, state))
            state.path.pop()
        return tuple(out)
    if name == "ZZRing":
        return ZZ
    if name == "QQField":
        return QQ
    if name == "PrimeField":
        if not isinstance(tn.params, dict) or "modulus" not in tn.params:
            raise SchemaError(f"{where}: PrimeField needs a modulus parameter")
        return GF(int_from_text(tn.params["modulus"], where))
    if name in ("PolyRing", "MPolyRing"):
        if not is_uuid_text(tn.params):
            raise SchemaError(f"{where}: {name} needs a context UUID parameter")
        return _resolve_context(tn.params, state)
    decoder = _DECODERS.get(name)
    if decoder is not None:
        return decoder(tn, data, state)
    raise UnsupportedTypeError(f"unsupported type tag: {name!r}")


def load(doc: MrdiDocument, state: DeserializerState):
    """Reconstruct the value stored in ``doc`` under the given state."""
    if doc.ns is not None and doc.ns.version:
        ours = FORMAT_VERSION.split(".")[0]
        theirs = doc.ns.version.split(".")[0]
        if ours != theirs:
            warnings.warn(
                f"document written by {doc.ns.system} {doc.ns.version}, "
                f"this is format major version {ours}; loading anyway",
                stacklevel=2,
            )
    state.document = doc
    state.path = []
    return _decode(doc.type_tree, doc.data, state)
