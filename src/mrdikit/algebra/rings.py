"""Ring descriptors, the process-wide context intern registry, and coefficient domains.

A ring is described structurally by a :class:`RingDescriptor` tree and used
operationally through a :class:`ContextHandle` obtained from
:func:`intern_context`.  Interning gives contexts identity semantics: equal
descriptors always map to the same handle, so ``a.parent is b.parent`` decides
whether two elements live in the same ring.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from fractions import Fraction

from ..errors import ValidationError
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
            raise ValidationError(f"prime field modulus must be an integer >= 2, got {self.p!r}")
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


# ----------------------------------------------------------------------------
# Coefficient domains.
#
# Polynomials and matrices hold raw coefficient values (int, Fraction, or a
# nested Polynomial) and do arithmetic through the small domain objects below,
# which know how to normalize, combine, and compare values of their ring.
# ----------------------------------------------------------------------------


class IntegerDomain:
    descriptor = IntegerRing()

    zero = 0
    one = 1

    @staticmethod
    def coerce(value):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationError(f"not an integer: {value!r}")
        return value

    @staticmethod
    def is_zero(value):
        return value == 0

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def mul(a, b):
        return a * b


class RationalDomain:
    descriptor = RationalField()

    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def coerce(value):
        if isinstance(value, bool):
            raise ValidationError(f"not a rational: {value!r}")
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, Fraction):
            return value
        raise ValidationError(f"not a rational: {value!r}")

    @staticmethod
    def is_zero(value):
        return value == 0

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def mul(a, b):
        return a * b


class PrimeFieldDomain:
    """Residues stored as plain ints in [0, p)."""

    def __init__(self, descriptor: PrimeField):
        # The descriptor validated p when it was built; no second primality test.
        self.p = descriptor.p
        self.descriptor = descriptor
        self.zero = 0
        self.one = 1 % self.p

    def coerce(self, value):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationError(f"not a prime field residue: {value!r}")
        return value % self.p

    @staticmethod
    def is_zero(value):
        return value == 0

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"0 has no inverse mod {self.p}")
        return pow(a, -1, self.p)


class PolynomialDomain:
    """Coefficients that are themselves polynomials over an inner ring."""

    def __init__(self, context: ContextHandle):
        from .polynomials import Polynomial  # cycle: polynomials build on rings

        self.context = context
        self.descriptor = context.descriptor
        self._poly_cls = Polynomial
        self.zero = Polynomial(context, ())
        self.one = Polynomial.constant(context, 1)

    def coerce(self, value):
        if isinstance(value, self._poly_cls):
            if value.parent != self.context:
                raise ValidationError("polynomial coefficient from a different ring")
            return value
        return self._poly_cls.constant(self.context, value)

    @staticmethod
    def is_zero(value):
        return not value.terms

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def mul(a, b):
        return a * b


def domain_for(descriptor: RingDescriptor):
    """Arithmetic domain for elements of the ring described by ``descriptor``."""
    if isinstance(descriptor, IntegerRing):
        return IntegerDomain
    if isinstance(descriptor, RationalField):
        return RationalDomain
    if isinstance(descriptor, PrimeField):
        return PrimeFieldDomain(descriptor)
    if isinstance(descriptor, (UnivariatePolyRing, MultivariatePolyRing)):
        return PolynomialDomain(intern_context(descriptor))
    raise ValidationError(f"no coefficient domain for {descriptor!r}")
