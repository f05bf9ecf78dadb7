"""Extra remote functions and a serializable test type, loaded into workers
via MRDI_WORKER_INIT."""

import importlib.util
import os
import time
from dataclasses import dataclass

from mrdikit.algebra import QQ, Polynomial, polynomial_ring
from mrdikit.errors import SchemaError
from mrdikit.ipc import register_function
from mrdikit.mrdi import (
    context_from_uuid,
    context_uuid,
    decode_polynomial,
    encode_polynomial,
    register_codec,
    type_node,
    type_parts,
)
from mrdikit.mrdi import codec


@register_function("sleep_ms")
def sleep_ms(ms):
    time.sleep(ms / 1000.0)
    return ms


@register_function("add_one")
def add_one(n):
    return n + 1


@register_function("fail_on_three")
def fail_on_three(n):
    if n == 3:
        raise ValueError("three is right out")
    return n * 10


@register_function("exit_now")
def exit_now():
    os._exit(1)


@register_function("valueless_result")
def valueless_result():
    # A Result frame without a value, written ahead of the worker's own answer.
    os.write(1, b'\x00\x00\x00\x08\x03{"id":0}')
    return 0


@register_function("getenv")
def getenv(name):
    """The worker's value of the environment variable whose name has the
    code points ``name``, as code points; -1 when it is unset (text is not
    serializable)."""
    value = os.environ.get("".join(map(chr, name)))
    return -1 if value is None else list(map(ord, value))


@register_function("importable")
def importable(name):
    """1 when the module whose name has the code points ``name`` can be
    found on the worker's ``sys.path``, else 0."""
    return int(importlib.util.find_spec("".join(map(chr, name))) is not None)


# Lets each item of one parallel_map pick its own function: names are not
# serializable, positions in this tuple are.
_BY_INDEX = (sleep_ms, fail_on_three, exit_now)


@register_function("by_index")
def by_index(k, *args):
    return _BY_INDEX[k](*args)


# A worker rejects the first delivery of each ring whose symbol is this
# marker and loads any later one.
REJECT_ONCE_SYMBOL = "reject_once"
_rejected: set[str] = set()
_context_from_ref = codec._context_from_ref


def _reject_marked_rings_once(ref, state, where):
    data = ref.data
    if isinstance(data, dict) and data.get("symbol") == REJECT_ONCE_SYMBOL:
        if where not in _rejected:
            _rejected.add(where)
            raise SchemaError(f"{where}: ring {REJECT_ONCE_SYMBOL} is rejected once")
    return _context_from_ref(ref, state, where)


codec._context_from_ref = _reject_marked_rings_once


@register_function("fresh_ring_poly")
def fresh_ring_poly(seed):
    # Creates a context on the worker side that the coordinator never sent.
    ring, (a, b) = polynomial_ring(QQ, f"fr{seed}_a", f"fr{seed}_b")
    return a * b + Polynomial.constant(ring, seed)


# -- an extension type written against the public codec API only ---------------


@dataclass(frozen=True)
class PolyPair:
    """Two polynomials, each over its own ring."""

    first: Polynomial
    second: Polynomial


_SLOTS = ("first", "second")


def _pair_type(pair, state):
    return type_node(
        "PolyPair", {slot: context_uuid(getattr(pair, slot).parent, state) for slot in _SLOTS}
    )


def _pair_data(pair, state):
    return [encode_polynomial(getattr(pair, slot), state.mode) for slot in _SLOTS]


def _pair_decode(tn, data, state):
    where = state.cursor()
    params = type_parts(tn)[1]
    if not isinstance(params, dict) or set(params) != set(_SLOTS):
        raise SchemaError(f"{where}: PolyPair needs first and second ring parameters")
    if not isinstance(data, list) or len(data) != 2:
        raise SchemaError(f"{where}: PolyPair payload must hold two polynomials")
    rings = [context_from_uuid(params[slot], state, where) for slot in _SLOTS]
    polys = [
        decode_polynomial(ring, raw, state, f"{where}/{i}")
        for i, (ring, raw) in enumerate(zip(rings, data))
    ]
    return PolyPair(*polys)


register_codec(PolyPair, "PolyPair", _pair_type, _pair_data, _pair_decode)
