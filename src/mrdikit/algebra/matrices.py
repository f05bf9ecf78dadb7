"""Exact matrices over an interned ring, with the linear algebra the workloads need.

Everything here is exact: rational row reduction uses ``Fraction``, prime
field determinants use machine integers reduced mod p, and nothing ever
rounds.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd
from operator import mul

from ..errors import ValidationError
from .polynomials import Polynomial, dense_coefficients, from_dense_coefficients
from .primes import is_prime
from .rings import (
    ContextHandle,
    IntegerRing,
    PrimeField,
    RationalField,
    UnivariatePolyRing,
    MultivariatePolyRing,
    domain_for,
    intern_context,
)


class ExactMatrix:
    __slots__ = ("parent", "nrows", "ncols", "entries")

    def __init__(self, parent: ContextHandle, nrows: int, ncols: int, entries):
        if nrows < 0 or ncols < 0:
            raise ValidationError("matrix dimensions must be nonnegative")
        domain = domain_for(parent.descriptor)
        entries = tuple(domain.coerce(e) for e in entries)
        if len(entries) != nrows * ncols:
            raise ValidationError(
                f"expected {nrows * ncols} entries for a {nrows}x{ncols} matrix, got {len(entries)}"
            )
        self.parent = parent
        self.nrows = nrows
        self.ncols = ncols
        self.entries = entries

    @classmethod
    def from_rows(cls, parent: ContextHandle, rows):
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValidationError("ragged rows")
        return cls(parent, nrows, ncols, [e for r in rows for e in r])

    def entry(self, i: int, j: int):
        return self.entries[i * self.ncols + j]

    def row(self, i: int):
        return list(self.entries[i * self.ncols : (i + 1) * self.ncols])

    def rows(self):
        return [self.row(i) for i in range(self.nrows)]

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def transpose(self) -> "ExactMatrix":
        entries = [self.entry(i, j) for j in range(self.ncols) for i in range(self.nrows)]
        return ExactMatrix(self.parent, self.ncols, self.nrows, entries)

    def __mul__(self, other):
        self._check_compat(other)
        if self.ncols != other.nrows:
            raise ValidationError("inner matrix dimensions differ")
        domain = domain_for(self.parent.descriptor)
        entries = []
        for i in range(self.nrows):
            for j in range(other.ncols):
                acc = domain.zero
                for k in range(self.ncols):
                    acc = domain.add(acc, domain.mul(self.entry(i, k), other.entry(k, j)))
                entries.append(acc)
        return ExactMatrix(self.parent, self.nrows, other.ncols, entries)

    def _check_compat(self, other):
        if not isinstance(other, ExactMatrix):
            raise TypeError(f"cannot combine ExactMatrix with {type(other).__name__}")
        if other.parent != self.parent:
            raise ValidationError("matrices over different rings")

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.parent == other.parent
            and (self.nrows, self.ncols) == (other.nrows, other.ncols)
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.parent, self.nrows, self.ncols, self.entries))

    def __repr__(self):
        return f"ExactMatrix({self.nrows}x{self.ncols} over {self.parent.descriptor!r})"


# ----------------------------------------------------------------------------
# Modular reduction ZZ[...] -> Fp[...]
# ----------------------------------------------------------------------------


def _reduction_ring(desc, prime: int) -> ContextHandle:
    """The ring over GF(prime) with the symbols of an integer polynomial ring."""
    if not isinstance(desc, (UnivariatePolyRing, MultivariatePolyRing)):
        raise ValidationError("expected a polynomial over a polynomial ring")
    if not isinstance(desc.base, IntegerRing):
        raise ValidationError("reduction needs integer coefficients")
    if not is_prime(prime):
        raise ValidationError(f"{prime} is not prime")
    if isinstance(desc, UnivariatePolyRing):
        return intern_context(UnivariatePolyRing(PrimeField(prime), desc.symbol))
    return intern_context(MultivariatePolyRing(PrimeField(prime), desc.symbols))


def _reduce_terms(target: ContextHandle, p: Polynomial, prime: int) -> Polynomial:
    # Reduction keeps the canonical term order, so the trusted constructor fits.
    return Polynomial(target, [(m, r) for m, c in p.terms if (r := c % prime)])


def reduce_poly_mod_prime(p: Polynomial, prime: int) -> Polynomial:
    """Reduce a polynomial with integer coefficients mod ``prime``."""
    return _reduce_terms(_reduction_ring(p.parent.descriptor, prime), p, prime)


def reduce_mod_prime(m: ExactMatrix, prime: int) -> ExactMatrix:
    """Entry-wise reduction of a matrix over ZZ[t] to one over Fp[t]."""
    target = _reduction_ring(m.parent.descriptor, prime)
    entries = [_reduce_terms(target, e, prime) for e in m.entries]
    return ExactMatrix(target, m.nrows, m.ncols, entries)


# ----------------------------------------------------------------------------
# Determinants over Fp[t] by evaluation + interpolation
# ----------------------------------------------------------------------------


def _det_mod_p(rows: list[list[int]], p: int) -> int:
    """Determinant mod p of a square matrix of residues in [0, p), by Gaussian
    elimination; each step drops the pivot row and column."""
    det = 1
    while rows:
        for k, row in enumerate(rows):
            if row[0]:
                break
        else:
            return 0
        if k:
            rows[0], rows[k] = rows[k], rows[0]
            det = -det
        pivot = rows[0][0]
        det = det * pivot % p
        inv = pow(pivot, -1, p)
        base = [b * inv % p for b in rows[0][1:]]
        rows = [
            [(a - f * b) % p for a, b in zip(row[1:], base)] if (f := row[0]) else row[1:]
            for row in rows[1:]
        ]
    return det % p


@lru_cache(maxsize=8)
def _consecutive_points(count: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Interpolation setup over ZZ for the points 0..D, D = count - 1.

    Returns the coefficients of prod (t - i), constant term first, and the
    Lagrange denominators prod_{j != i} (i - j) = (-1)^(D-i) * i! * (D-i)!.
    Both are the same for every prime, so they are reduced mod p per call.
    """
    master = [1]
    for x in range(count):
        master = [0] + master
        for j in range(len(master) - 1):
            master[j] -= master[j + 1] * x
    last = count - 1
    denominators = tuple(
        (-1) ** (last - i) * factorial(i) * factorial(last - i) for i in range(count)
    )
    return tuple(master), denominators


def _interpolate_mod_p(ys: list[int], p: int) -> list[int]:
    """Dense coefficients of the unique polynomial with poly(i) = ys[i] mod p
    for i = 0..D, constant term first.

    With weights w_i = ys[i] / denominator_i and power sums S_e = sum_i w_i i^e,
    synthetic division of the master polynomial M by (t - i) gives
    coefficient k = sum_e M[k + 1 + e] * S_e.
    """
    count = len(ys)
    master, denominators = _consecutive_points(count)
    master = [c % p for c in master]
    scaled = [y * pow(d, -1, p) % p for y, d in zip(ys, denominators)]
    sums = []
    for _ in range(count):
        sums.append(sum(scaled) % p)
        scaled = [w * i % p for i, w in enumerate(scaled)]
    return [sum(map(mul, master[k + 1 :], sums)) % p for k in range(count)]


def det_univariate_over_prime_field(m: ExactMatrix, degree_bound: int) -> Polynomial:
    """det of a square matrix over Fp[t], via evaluation at degree_bound + 1
    points, scalar determinants, and Lagrange interpolation.

    Requires p > degree_bound so that enough distinct evaluation points exist.
    """
    desc = m.parent.descriptor
    if not isinstance(desc, UnivariatePolyRing) or not isinstance(desc.base, PrimeField):
        raise ValidationError("expected a matrix over a univariate ring over a prime field")
    if not m.is_square:
        raise ValidationError("determinant of a nonsquare matrix")
    if degree_bound < 0:
        raise ValidationError("degree bound must be nonnegative")
    p = desc.base.p
    if p <= degree_bound:
        raise ValidationError(
            f"insufficient evaluation points: p={p} but degree bound is {degree_bound}"
        )
    n = m.nrows
    entries = [dense_coefficients(e, e.degree() + 1) for e in m.entries]
    width = max(map(len, entries), default=0)
    ys = []
    for x in range(degree_bound + 1):
        powers = [1] * width
        for d in range(1, width):
            powers[d] = powers[d - 1] * x % p
        values = [sum(map(mul, e, powers)) % p for e in entries]
        ys.append(_det_mod_p([values[i * n : (i + 1) * n] for i in range(n)], p))
    return from_dense_coefficients(m.parent, _interpolate_mod_p(ys, p))


# ----------------------------------------------------------------------------
# Exact rational row reduction
# ----------------------------------------------------------------------------


def rref_over_Q(m: ExactMatrix) -> tuple[ExactMatrix, tuple[int, ...]]:
    """Reduced row echelon form with exact Fraction arithmetic."""
    if not isinstance(m.parent.descriptor, RationalField):
        raise ValidationError("rref_over_Q expects a matrix over QQ")
    rows = [list(r) for r in m.rows()]
    nrows, ncols = m.nrows, m.ncols
    pivots = []
    pivot_row = 0
    for col in range(ncols):
        if pivot_row >= nrows:
            break
        sel = None
        for r in range(pivot_row, nrows):
            if rows[r][col] != 0:
                sel = r
                break
        if sel is None:
            continue
        rows[pivot_row], rows[sel] = rows[sel], rows[pivot_row]
        inv = Fraction(1) / rows[pivot_row][col]
        rows[pivot_row] = [v * inv for v in rows[pivot_row]]
        for r in range(nrows):
            if r != pivot_row and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[pivot_row])]
        pivots.append(col)
        pivot_row += 1
    flat = [e for r in rows for e in r]
    return ExactMatrix(m.parent, nrows, ncols, flat), tuple(pivots)


def _canonicalize_vector(vec: list[Fraction]) -> tuple[int, ...]:
    """Scale to integer entries with content 1 and positive leading entry."""
    lcm = 1
    for v in vec:
        lcm = lcm * v.denominator // gcd(lcm, v.denominator)
    ints = [int(v * lcm) for v in vec]
    content = 0
    for v in ints:
        content = gcd(content, v)
    if content > 1:
        ints = [v // content for v in ints]
    for v in ints:
        if v != 0:
            if v < 0:
                ints = [-x for x in ints]
            break
    return tuple(ints)


def nullspace_over_Q(m: ExactMatrix) -> list[tuple[int, ...]]:
    """Basis of the right kernel, one canonical primitive integer vector per
    free column of the reduced row echelon form."""
    reduced, pivots = rref_over_Q(m)
    pivot_set = set(pivots)
    free_cols = [c for c in range(m.ncols) if c not in pivot_set]
    basis = []
    for free in free_cols:
        vec = [Fraction(0)] * m.ncols
        vec[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced.entry(r, free)
        basis.append(_canonicalize_vector(vec))
    return basis
