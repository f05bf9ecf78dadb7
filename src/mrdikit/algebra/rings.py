"""Ring descriptors and the process-wide context intern registry.

A ring is described structurally by a :class:`RingDescriptor` tree and used
operationally through a :class:`ContextHandle` obtained from
:func:`intern_context`.  Interning gives contexts identity semantics: equal
descriptors always map to the same handle, so ``a.parent is b.parent`` decides
whether two elements live in the same ring.  Elements themselves are plain
values (an int, a ``Fraction``, a residue, a ``Polynomial``); the coercion of
a value into its ring lives beside ``Polynomial`` in ``polynomials.py``.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field

from ..errors import ValidationError, quote
from .primes import is_prime


@dataclass(frozen=True)
class RingDescriptor:
    pass


@dataclass(frozen=True)
class IntegerRing(RingDescriptor):
    pass


@dataclass(frozen=True)
class RationalField(RingDescriptor):
    pass


@dataclass(frozen=True)
class PrimeField(RingDescriptor):
    p: int

    def __post_init__(self):
        if not isinstance(self.p, int) or self.p < 2:
            raise ValidationError(
                f"prime field modulus must be an integer >= 2, got {quote(self.p)}"
            )
        if not is_prime(self.p):
            raise ValidationError(f"{self.p} is not prime")


@dataclass(frozen=True)
class UnivariatePolyRing(RingDescriptor):
    base: RingDescriptor
    symbol: str

    def __post_init__(self):
        if not isinstance(self.base, RingDescriptor):
            raise ValidationError("base of a polynomial ring must be a RingDescriptor")
        if not self.symbol or not isinstance(self.symbol, str):
            raise ValidationError("polynomial ring symbol must be a nonempty string")


@dataclass(frozen=True)
class MultivariatePolyRing(RingDescriptor):
    base: RingDescriptor
    symbols: tuple[str, ...]

    def __post_init__(self):
        if not isinstance(self.base, RingDescriptor):
            raise ValidationError("base of a polynomial ring must be a RingDescriptor")
        syms = tuple(self.symbols)
        object.__setattr__(self, "symbols", syms)
        if not syms:
            raise ValidationError("multivariate ring needs at least one symbol")
        if any(not s or not isinstance(s, str) for s in syms):
            raise ValidationError("ring symbols must be nonempty strings")
        if len(set(syms)) != len(syms):
            raise ValidationError(f"duplicate ring symbols in {syms}")


def ring_symbols(descriptor: RingDescriptor) -> tuple[str, ...]:
    """Generator symbols of a polynomial ring descriptor."""
    if isinstance(descriptor, UnivariatePolyRing):
        return (descriptor.symbol,)
    if isinstance(descriptor, MultivariatePolyRing):
        return descriptor.symbols
    raise ValidationError(f"{descriptor!r} is not a polynomial ring")


def ring_arity(descriptor: RingDescriptor) -> int:
    return len(ring_symbols(descriptor))


@dataclass(frozen=True, eq=False)
class ContextHandle:
    """An interned ring.  Equality and hashing go through the identity token."""

    descriptor: RingDescriptor
    token: int = field(compare=False)

    def __eq__(self, other):
        return isinstance(other, ContextHandle) and self.token == other.token

    def __hash__(self):
        return hash(self.token)

    def __repr__(self):
        return f"ContextHandle({self.descriptor!r}, token={self.token})"


_registry_lock = threading.Lock()
_registry: dict[RingDescriptor, ContextHandle] = {}
_token_counter = itertools.count(1)


def intern_context(descriptor: RingDescriptor) -> ContextHandle:
    """Return the unique handle for ``descriptor``, creating it if needed.

    Thread safe; repeated calls with equal descriptors yield the same handle
    object for the lifetime of the process.
    """
    if not isinstance(descriptor, RingDescriptor):
        raise ValidationError(f"not a ring descriptor: {descriptor!r}")
    with _registry_lock:
        handle = _registry.get(descriptor)
        if handle is None:
            handle = ContextHandle(descriptor, next(_token_counter))
            _registry[descriptor] = handle
        return handle


ZZ = intern_context(IntegerRing())
QQ = intern_context(RationalField())


def GF(p: int) -> ContextHandle:
    return intern_context(PrimeField(p))
