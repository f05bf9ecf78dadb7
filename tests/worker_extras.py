"""Extra remote functions and a serializable test type, loaded into workers
via MRDI_WORKER_INIT."""

import os
import time
from dataclasses import dataclass

from mrdikit.algebra import QQ, Polynomial, polynomial_ring
from mrdikit.errors import SchemaError
from mrdikit.ipc import register_function
from mrdikit.mrdi import (
    TypeNode,
    context_from_uuid,
    context_uuid,
    decode_polynomial,
    encode_polynomial,
    register_codec,
)


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


@register_function("getenv")
def getenv(name):
    """The worker's value of the environment variable whose name has the
    code points ``name``, as code points; -1 when it is unset (text is not
    serializable)."""
    value = os.environ.get("".join(map(chr, name)))
    return -1 if value is None else list(map(ord, value))


# Lets each item of one parallel_map pick its own function: names are not
# serializable, positions in this tuple are.
_BY_INDEX = (sleep_ms, fail_on_three, exit_now)


@register_function("by_index")
def by_index(k, *args):
    return _BY_INDEX[k](*args)


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
    return TypeNode(
        "PolyPair", {slot: context_uuid(getattr(pair, slot).parent, state) for slot in _SLOTS}
    )


def _pair_data(pair, state):
    return [encode_polynomial(getattr(pair, slot), state.mode) for slot in _SLOTS]


def _pair_decode(tn, data, state):
    where = state.cursor()
    if not isinstance(tn.params, dict) or set(tn.params) != set(_SLOTS):
        raise SchemaError(f"{where}: PolyPair needs first and second ring parameters")
    if not isinstance(data, list) or len(data) != 2:
        raise SchemaError(f"{where}: PolyPair payload must hold two polynomials")
    rings = [context_from_uuid(tn.params[slot], state, where) for slot in _SLOTS]
    polys = [
        decode_polynomial(ring, raw, state, f"{where}/{i}")
        for i, (ring, raw) in enumerate(zip(rings, data))
    ]
    return PolyPair(*polys)


register_codec(PolyPair, "PolyPair", _pair_type, _pair_data, _pair_decode)
