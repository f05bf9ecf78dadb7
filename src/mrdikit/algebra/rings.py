"""Rings as descriptor values, and the process-wide intern registry.

A ring is a :class:`RingDescriptor`: a frozen tree that compares and hashes
by value, so ``ZZ == IntegerRing()``.  :func:`intern_context` keeps one
object per value, base rings included, so ``a.parent is b.parent`` is a fast
path for equal rings, never a condition for a correct result.  Elements are
plain values (an int, a ``Fraction``, a residue, a ``Polynomial``); the
coercion of a value into its ring lives beside ``Polynomial`` in
``polynomials.py``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

from ..errors import ValidationError, quote
from .primes import is_prime


@dataclass(frozen=True)
class RingDescriptor:
    @property
    def descriptor(self) -> RingDescriptor:
        # The ring itself, for perfbench/bench_inputs.py, which reads
        # ``ring.descriptor.symbols``; it goes when the benchmark is updated.
        return self


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


_registry_lock = threading.Lock()
_registry: dict[RingDescriptor, RingDescriptor] = {}


def intern_context(descriptor: RingDescriptor) -> RingDescriptor:
    """The one interned ring equal to ``descriptor``, whose base rings are
    interned too.

    Thread safe; repeated calls with equal descriptors yield the same object
    for the lifetime of the process.
    """
    if not isinstance(descriptor, RingDescriptor):
        raise ValidationError(f"not a ring descriptor: {descriptor!r}")
    ring = _registry.get(descriptor)
    if ring is None:
        if isinstance(descriptor, (UnivariatePolyRing, MultivariatePolyRing)):
            descriptor = replace(descriptor, base=intern_context(descriptor.base))
        with _registry_lock:
            ring = _registry.setdefault(descriptor, descriptor)
    return ring


ZZ = intern_context(IntegerRing())
QQ = intern_context(RationalField())


def GF(p: int) -> RingDescriptor:
    return intern_context(PrimeField(p))
