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
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from math import gcd

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
from .states import DeserializerState, GlobalSerializerState, SerializerState

_RING_TAGS = {"ZZRing", "QQField", "PrimeField", "PolyRing", "MPolyRing"}

# tag -> decode(type_node, data, state); extended by register_codec.
_DECODERS = {}
# python type -> (tag, build_type(obj, state), build_data(obj, state))
_ENCODERS = {}


def register_codec(py_type, tag, build_type, build_data, decode):
    """Add a serializable type to the registry (used for e.g. monomial maps)."""
    _ENCODERS[py_type] = (tag, build_type, build_data)
    _DECODERS[tag] = decode


def registered_type_tags() -> set[str]:
    return set(_DECODERS) | _RING_TAGS


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
    chain = []
    desc = ctx.descriptor
    if isinstance(desc, (UnivariatePolyRing, MultivariatePolyRing)):
        base = desc.base
        if isinstance(base, (UnivariatePolyRing, MultivariatePolyRing)):
            chain.extend(context_dependency_chain(intern_context(base)))
        chain.append(ctx)
    return chain


# ----------------------------------------------------------------------------
# Scalar text encodings
# ----------------------------------------------------------------------------

# Python refuses int<->str conversions beyond sys.get_int_max_str_digits()
# (4300 by default).  Larger integers are converted piecewise instead: split
# by powers 10**(_CHUNK * 2**k), convert pieces of at most _CHUNK digits
# natively, and join.  The global limit is left alone.
_CHUNK = 1000


def _long_int_to_text(n: int) -> str:
    if n < 0:
        return "-" + _long_int_to_text(-n)
    powers = [10**_CHUNK]
    while powers[-1] ** 2 <= n:
        powers.append(powers[-1] ** 2)

    def digits(v: int, level: int) -> str:  # v < powers[level] ** 2
        if level < 0:
            return str(v)
        high, low = divmod(v, powers[level])
        if not high:
            return digits(low, level - 1)
        return digits(high, level - 1) + digits(low, level - 1).zfill(_CHUNK << level)

    return digits(n, len(powers) - 1)


def _long_int_from_text(text: str) -> int:
    """Canonical decimal text (see ``_int_from_text``) past the digit limit;
    ValueError for any other text."""
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()) or digits[0] == "0":
        raise ValueError(text)
    powers: dict[int, int] = {}

    def value(digits: str) -> int:
        if len(digits) <= _CHUNK:
            return int(digits)
        width = _CHUNK
        while 2 * width < len(digits):
            width *= 2
        if width not in powers:
            powers[width] = 10**width
        return value(digits[:-width]) * powers[width] + value(digits[-width:])

    if text[0] == "-":
        return -value(text[1:])
    return value(text)


def _int_to_text(n: int) -> str:
    try:
        return str(n)
    except ValueError:  # beyond the interpreter's digit limit
        return _long_int_to_text(n)


def _int_from_text(text, where) -> int:
    """The integer written as canonical decimal text: ASCII ``0`` or
    ``-?[1-9][0-9]*``, the only form ``_int_to_text`` writes.  Other text that
    ``int`` would accept (`` 5``, ``+5``, ``05``, ``1_000``, non-ASCII digits)
    raises SchemaError, so every integer read re-serializes to the same bytes.
    """
    if isinstance(text, str):
        try:
            value = int(text)
        except ValueError:  # malformed, or beyond the interpreter's digit limit
            try:
                return _long_int_from_text(text)
            except ValueError:
                pass
        else:
            # int() took an integer literal, so only its ends, underscores and
            # non-ASCII digits can be non-canonical (every ASCII character
            # int() strips as whitespace is at most " ").  This runs for every
            # integer read, so it avoids a pass over every digit.
            first = text[0]
            if (
                ("1" <= first <= "9" or text == "0" or (first == "-" and "1" <= text[1] <= "9"))
                and text.isascii()
                and "_" not in text
                and text[-1] > " "
            ):
                return value
    raise SchemaError(f"{where}: expected a decimal integer, got {text!r}")


def _fraction_to_text(q: Fraction) -> str:
    if q.denominator == 1:
        return _int_to_text(q.numerator)
    return f"{_int_to_text(q.numerator)}/{_int_to_text(q.denominator)}"


def _fraction_from_text(text, where) -> Fraction:
    if not isinstance(text, str):
        raise SchemaError(f"{where}: expected a rational as text, got {text!r}")
    num, sep, den = text.partition("/")
    try:
        numerator = _int_from_text(num, where)
        denominator = _int_from_text(den, where) if sep else 1
    except SchemaError:
        raise SchemaError(f"{where}: malformed rational {text!r}") from None
    # Canonical text writes a denominator only in lowest terms and when it is at least 2.
    if sep and (denominator < 2 or gcd(numerator, denominator) != 1):
        raise SchemaError(f"{where}: malformed rational {text!r}")
    return Fraction(numerator, denominator)


def _encode_base_value(desc: RingDescriptor, value, mode: Mode):
    if isinstance(desc, IntegerRing):
        return _int_to_text(value)
    if isinstance(desc, RationalField):
        return _fraction_to_text(value)
    if isinstance(desc, PrimeField):
        return _int_to_text(value)
    if isinstance(desc, (UnivariatePolyRing, MultivariatePolyRing)):
        return _encode_poly_data(value, mode)
    raise UnsupportedTypeError(f"cannot encode coefficients of {desc!r}")


def _decode_base_value(desc: RingDescriptor, data, state: DeserializerState, where: str):
    if isinstance(desc, IntegerRing):
        return _int_from_text(data, where)
    if isinstance(desc, RationalField):
        return _fraction_from_text(data, where)
    if isinstance(desc, PrimeField):
        residue = _int_from_text(data, where)
        if not 0 <= residue < desc.p:
            raise SchemaError(f"{where}: residue {residue} out of range for p={desc.p}")
        return residue
    if isinstance(desc, (UnivariatePolyRing, MultivariatePolyRing)):
        return _decode_poly_data(intern_context(desc), data, state, where)
    raise UnsupportedTypeError(f"cannot decode coefficients of {desc!r}")


# ----------------------------------------------------------------------------
# Polynomial payloads
# ----------------------------------------------------------------------------


def _encode_poly_data(p: Polynomial, mode: Mode):
    desc = p.parent.descriptor
    base = desc.base
    if isinstance(desc, UnivariatePolyRing):
        if mode is Mode.LONG_TERM:
            return [
                [str(m[0]), _encode_base_value(base, c, mode)]
                for m, c in reversed(p.terms)
            ]
        degree = p.degree()
        if degree < 0:
            return []
        by_degree = {m[0]: c for m, c in p.terms}
        from ..algebra.rings import domain_for

        zero = domain_for(base).zero
        return [
            _encode_base_value(base, by_degree.get(d, zero), mode)
            for d in range(degree + 1)
        ]
    return [
        [[str(e) for e in m], _encode_base_value(base, c, mode)]
        for m, c in p.terms
    ]


def _decode_poly_data(ring: ContextHandle, data, state: DeserializerState, where: str) -> Polynomial:
    desc = ring.descriptor
    base = desc.base
    if not isinstance(data, list):
        raise SchemaError(f"{where}: polynomial payload must be a sequence")
    terms = []
    if isinstance(desc, UnivariatePolyRing):
        if state.mode is Mode.LONG_TERM:
            for i, pair in enumerate(data):
                at = f"{where}/{i}"
                if not isinstance(pair, list) or len(pair) != 2:
                    raise SchemaError(f"{at}: expected a [degree, coefficient] pair")
                degree = _int_from_text(pair[0], at)
                if degree < 0:
                    raise SchemaError(f"{at}: negative degree")
                coeff = _decode_base_value(base, pair[1], state, at)
                terms.append(((degree,), coeff))
        else:
            for d, raw in enumerate(data):
                coeff = _decode_base_value(base, raw, state, f"{where}/{d}")
                terms.append(((d,), coeff))
    else:
        arity = len(desc.symbols)
        for i, pair in enumerate(data):
            at = f"{where}/{i}"
            if not isinstance(pair, list) or len(pair) != 2 or not isinstance(pair[0], list):
                raise SchemaError(f"{at}: expected an [exponents, coefficient] pair")
            if len(pair[0]) != arity:
                raise SchemaError(
                    f"{at}: exponent vector has length {len(pair[0])}, ring has {arity}"
                )
            mono = tuple(_int_from_text(e, at) for e in pair[0])
            coeff = _decode_base_value(base, pair[1], state, at)
            terms.append((mono, coeff))
    return Polynomial.from_terms(ring, terms)


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
        return _int_to_text(obj)
    if isinstance(obj, Fraction):
        return _fraction_to_text(obj)
    if isinstance(obj, Polynomial):
        return _encode_poly_data(obj, state.mode)
    if isinstance(obj, ExactMatrix):
        return {
            "nrows": str(obj.nrows),
            "ncols": str(obj.ncols),
            "entries": [_build_data(e, state) for e in obj.entries],
        }
    if isinstance(obj, ContextHandle):
        return {}
    if isinstance(obj, (list, tuple)):
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
        return PrimeField(_int_from_text(params["modulus"], where))
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
        return GF(_int_from_text(tn.params["modulus"], "_type"))
    if tn.name in ("PolyRingElem", "MPolyRingElem"):
        if not is_uuid_text(tn.params):
            raise SchemaError(f"{tn.name} needs a parent context UUID parameter")
        return _resolve_context(tn.params, state)
    raise UnsupportedTypeError(f"no parent ring for element type {tn.name!r}")


def _decode(tn: TypeNode, data, state: DeserializerState):
    where = state.cursor()
    name = tn.name
    if name == "ZZRingElem":
        return _int_from_text(data, where)
    if name == "QQFieldElem":
        return _fraction_from_text(data, where)
    if name == "PrimeFieldElem":
        ring = _ring_for_element_type(tn, state)
        return _decode_base_value(ring.descriptor, data, state, where)
    if name in ("PolyRingElem", "MPolyRingElem"):
        ring = _ring_for_element_type(tn, state)
        return _decode_poly_data(ring, data, state, where)
    if name == "Matrix":
        if not isinstance(tn.params, TypeNode):
            raise SchemaError(f"{where}: Matrix needs an element type parameter")
        if not isinstance(data, dict) or set(data) != {"nrows", "ncols", "entries"}:
            raise SchemaError(f"{where}: Matrix payload needs nrows/ncols/entries")
        nrows = _int_from_text(data["nrows"], where)
        ncols = _int_from_text(data["ncols"], where)
        raw = data["entries"]
        if not isinstance(raw, list) or len(raw) != nrows * ncols:
            raise SchemaError(f"{where}: expected {nrows * ncols} matrix entries")
        ring = _ring_for_element_type(tn.params, state)
        entries = []
        for i, item in enumerate(raw):
            state.path.append(f"entries/{i}")
            entries.append(_decode(tn.params, item, state))
            state.path.pop()
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
        return GF(_int_from_text(tn.params["modulus"], where))
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


# Built-in decoder table entries for tags handled inline above; registering
# them keeps registered_type_tags() complete for validation.
for _tag in (
    "ZZRingElem",
    "QQFieldElem",
    "PrimeFieldElem",
    "PolyRingElem",
    "MPolyRingElem",
    "Matrix",
    "Vector",
    "Tuple",
):
    _DECODERS.setdefault(_tag, None)
