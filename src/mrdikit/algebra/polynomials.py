"""Sparse polynomials over an interned ring context, and the coercion of a
value into its ring.

Terms are kept in canonical form: sorted by degree-lexicographic order with
the leading monomial first, no zero coefficients, monomials pairwise distinct.
Structural equality of two polynomials is therefore mathematical equality.

Coefficients are plain values (int, ``Fraction``, a residue, or a nested
``Polynomial``) that combine with Python's operators; ``coercer`` gives, per
ring, the function that checks a value and returns it in canonical form.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable

from ..errors import ContextMismatchError, ValidationError
from .rings import (
    ContextHandle,
    IntegerRing,
    MultivariatePolyRing,
    PrimeField,
    RationalField,
    RingDescriptor,
    UnivariatePolyRing,
    intern_context,
    ring_arity,
    ring_symbols,
)

Monomial = tuple[int, ...]


def monomial_key(m: Monomial):
    """Sort key for degree-lex order (compare total degree, then exponents)."""
    return (sum(m), m)


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


class Polynomial:
    __slots__ = ("parent", "terms")

    def __init__(self, parent: ContextHandle, terms):
        # Trusted constructor: ``terms`` must already be canonical.
        self.parent = parent
        self.terms = tuple(terms)

    # -- construction ---------------------------------------------------

    @classmethod
    def from_terms(cls, parent: ContextHandle, terms: Iterable[tuple[Monomial, object]]):
        """Build a polynomial from (exponents, coefficient) pairs, normalizing."""
        if not isinstance(parent.descriptor, (UnivariatePolyRing, MultivariatePolyRing)):
            raise ValidationError(f"{parent.descriptor!r} is not a polynomial ring")
        arity = ring_arity(parent.descriptor)
        coerce = coercer(parent.descriptor.base)
        acc: dict[Monomial, object] = {}
        for exponents, coeff in terms:
            mono = tuple(exponents)
            if len(mono) != arity:
                raise ValidationError(
                    f"exponent vector {mono} has length {len(mono)}, ring has {arity} symbols"
                )
            if any(not isinstance(e, int) or e < 0 for e in mono):
                raise ValidationError(f"exponents must be nonnegative integers: {mono}")
            coeff = coerce(coeff)
            if mono in acc:
                coeff = coerce(acc[mono] + coeff)
            acc[mono] = coeff
        cleaned = [(m, c) for m, c in acc.items() if c]
        cleaned.sort(key=lambda t: monomial_key(t[0]), reverse=True)
        return cls(parent, cleaned)

    @classmethod
    def constant(cls, parent: ContextHandle, value):
        arity = ring_arity(parent.descriptor)
        return cls.from_terms(parent, [((0,) * arity, value)])

    @classmethod
    def zero(cls, parent: ContextHandle):
        return cls(parent, ())

    @classmethod
    def variable(cls, parent: ContextHandle, index: int):
        arity = ring_arity(parent.descriptor)
        if not 0 <= index < arity:
            raise ValidationError(f"variable index {index} out of range")
        exps = tuple(1 if i == index else 0 for i in range(arity))
        return cls.from_terms(parent, [(exps, 1)])

    # -- inspection ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def arity(self) -> int:
        return ring_arity(self.parent.descriptor)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m, _ in self.terms)

    def coefficient(self, exponents: Monomial):
        mono = tuple(exponents)
        for m, c in self.terms:
            if m == mono:
                return c
        return coercer(self.parent.descriptor.base)(0)

    # -- arithmetic -------------------------------------------------------

    def _check_parent(self, other, op):
        if not isinstance(other, Polynomial):
            raise TypeError(f"cannot {op} Polynomial and {type(other).__name__}")
        if other.parent != self.parent:
            raise ContextMismatchError(
                f"cannot {op} elements of {describe_descriptor(self.parent.descriptor)} "
                f"and {describe_descriptor(other.parent.descriptor)}"
            )

    def __add__(self, other):
        self._check_parent(other, "add")
        return Polynomial.from_terms(self.parent, list(self.terms) + list(other.terms))

    def __sub__(self, other):
        self._check_parent(other, "subtract")
        return self + (-other)

    def __neg__(self):
        coerce = coercer(self.parent.descriptor.base)
        return Polynomial(self.parent, [(m, coerce(-c)) for m, c in self.terms])

    def __mul__(self, other):
        self._check_parent(other, "multiply")
        coerce = coercer(self.parent.descriptor.base)
        acc: dict[Monomial, object] = {}
        for ma, ca in self.terms:
            for mb, cb in other.terms:
                m = monomial_mul(ma, mb)
                c = ca * cb
                if m in acc:
                    c = acc[m] + c
                acc[m] = c
        coeffs = map(coerce, acc.values())
        cleaned = [(m, c) for m, c in zip(acc, coeffs) if c]
        cleaned.sort(key=lambda t: monomial_key(t[0]), reverse=True)
        return Polynomial(self.parent, cleaned)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValidationError("polynomial powers must be nonnegative integers")
        result = Polynomial.constant(self.parent, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scale(self, value):
        """Multiply by a base-ring element."""
        coerce = coercer(self.parent.descriptor.base)
        value = coerce(value)
        scaled = [(m, coerce(c * value)) for m, c in self.terms]
        return Polynomial(self.parent, [(m, c) for m, c in scaled if c])

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.parent == other.parent
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.parent, self.terms))

    def __repr__(self):
        if not self.terms:
            return "0"
        symbols = ring_symbols(self.parent.descriptor)
        parts = []
        for m, c in self.terms:
            factors = [
                sym if e == 1 else f"{sym}^{e}"
                for sym, e in zip(symbols, m)
                if e
            ]
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(f"({c})*" + "*".join(factors))
        return " + ".join(parts)


def coercer(descriptor: RingDescriptor) -> Callable:
    """The function that checks a value of the ring ``descriptor`` and returns
    it in canonical form: an int for ZZ, a ``Fraction`` for QQ, a residue in
    [0, p) for GF(p), and for a polynomial ring a polynomial of that ring, a
    scalar becoming a constant.  A value of the wrong kind, or a polynomial of
    another ring, raises ValidationError."""
    if isinstance(descriptor, IntegerRing):
        return _integer
    if isinstance(descriptor, RationalField):
        return _rational
    if isinstance(descriptor, PrimeField):
        p = descriptor.p

        def residue(value):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValidationError(f"not a prime field residue: {value!r}")
            return value % p

        return residue
    if isinstance(descriptor, (UnivariatePolyRing, MultivariatePolyRing)):
        ring = intern_context(descriptor)

        def polynomial(value):
            if isinstance(value, Polynomial):
                if value.parent != ring:
                    raise ValidationError("polynomial coefficient from a different ring")
                return value
            return Polynomial.constant(ring, value)

        return polynomial
    raise ValidationError(f"no coefficient domain for {descriptor!r}")


def _integer(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"not an integer: {value!r}")
    return value


def _rational(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"not a rational: {value!r}")
    return Fraction(value)


def dense_coefficients(p: Polynomial, length: int) -> list:
    """Coefficients of a univariate polynomial of degree < ``length``,
    constant term first, with 0 for absent terms."""
    coeffs = [0] * length
    for (d,), c in p.terms:
        coeffs[d] = c
    return coeffs


def from_dense_coefficients(parent: ContextHandle, coeffs) -> Polynomial:
    """The univariate polynomial with reduced ``coeffs``, constant term first."""
    terms = [((d,), coeffs[d]) for d in reversed(range(len(coeffs))) if coeffs[d]]
    return Polynomial(parent, terms)


def describe_descriptor(d) -> str:
    if isinstance(d, IntegerRing):
        return "ZZ"
    if isinstance(d, RationalField):
        return "QQ"
    if isinstance(d, PrimeField):
        return f"GF({d.p})"
    if isinstance(d, (UnivariatePolyRing, MultivariatePolyRing)):
        return f"{describe_descriptor(d.base)}[{','.join(ring_symbols(d))}]"
    return repr(d)


def polynomial_ring(base: ContextHandle, *symbols: str):
    """Intern a multivariate ring and return (handle, generator polynomials)."""
    handle = intern_context(MultivariatePolyRing(base.descriptor, tuple(symbols)))
    gens = tuple(Polynomial.variable(handle, i) for i in range(len(symbols)))
    return handle, gens


def univariate_ring(base: ContextHandle, symbol: str):
    """Intern a univariate ring and return (handle, the generator)."""
    handle = intern_context(UnivariatePolyRing(base.descriptor, symbol))
    return handle, Polynomial.variable(handle, 0)
