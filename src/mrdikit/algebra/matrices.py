"""Exact matrices over an interned ring, with the linear algebra the workloads need.

Entries are plain values of the ring, put in canonical form by the ring's
``coercer`` when a matrix is built.  Everything here is exact: rational row
reduction uses ``Fraction``, modular determinants use integers reduced mod p,
or mod a product of several primes to serve them all in one pass, and
nothing ever rounds.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, prod
from operator import mul

from ..errors import ValidationError
from .polynomials import Polynomial, coercer, dense_coefficients, from_dense_coefficients
from .primes import crt_combine_balanced, is_prime
from .rings import (
    ContextHandle,
    IntegerRing,
    PrimeField,
    RationalField,
    UnivariatePolyRing,
    MultivariatePolyRing,
    intern_context,
)


class ExactMatrix:
    __slots__ = ("parent", "nrows", "ncols", "entries")

    def __init__(self, parent: ContextHandle, nrows: int, ncols: int, entries):
        if nrows < 0 or ncols < 0:
            raise ValidationError("matrix dimensions must be nonnegative")
        entries = tuple(map(coercer(parent.descriptor), entries))
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

    def __mul__(self, other):
        self._check_compat(other)
        if self.ncols != other.nrows:
            raise ValidationError("inner matrix dimensions differ")
        zero = coercer(self.parent.descriptor)(0)
        entries = []
        for i in range(self.nrows):
            for j in range(other.ncols):
                acc = zero
                for k in range(self.ncols):
                    acc = acc + self.entry(i, k) * other.entry(k, j)
                entries.append(acc)
        # The constructor puts each sum in canonical form (mod p over GF(p)).
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
# Determinants over Fp[t], one or several primes per pass, by evaluation +
# interpolation
# ----------------------------------------------------------------------------


def _det_mod(rows: list[list[int]], q: int, primes) -> int:
    """Determinant mod q of a square matrix of residues in [0, q), where q is
    the product of ``primes``, by Gaussian elimination; each step drops the
    pivot row and column.

    Pivots must be units mod q.  Rows are eliminated without dividing by the
    pivot (row * pivot - row[0] * pivot row), so one inverse of the product
    of those scalings at the end replaces one inverse per pivot.  A column
    without a unit pivot has an entry divisible by some prime of the group in
    every row; the remaining minor is then finished prime by prime and
    recombined by CRT.
    """
    det = scale = 1
    while rows:
        for k, row in enumerate(rows):
            if gcd(row[0], q) == 1:
                break
        else:
            if len(primes) == 1:
                return 0
            minors = [_det_mod([[a % p for a in row] for row in rows], p, (p,)) for p in primes]
            det *= crt_combine_balanced(minors, primes)
            break
        if k:
            rows[0], rows[k] = rows[k], rows[0]
            det = -det
        pivot = rows[0][0]
        det = det * pivot % q
        base = rows[0][1:]
        remaining = []
        for row in rows[1:]:
            if f := row[0]:
                remaining.append([(a * pivot - f * b) % q for a, b in zip(row[1:], base)])
                scale = scale * pivot % q
            else:
                remaining.append(row[1:])
        rows = remaining
    return det * pow(scale, -1, q) % q


@lru_cache(maxsize=8)
def _master_polynomial(count: int) -> tuple[int, ...]:
    """Coefficients of prod (t - i) over i = 0..count-1, over ZZ, constant
    term first.  The same for every modulus, so it is reduced per call."""
    master = [1]
    for x in range(count):
        master = [0] + master
        for j in range(len(master) - 1):
            master[j] -= master[j + 1] * x
    return tuple(master)


def _interpolate_mod(ys: list[int], q: int) -> list[int]:
    """Dense coefficients of the unique polynomial with poly(i) = ys[i] mod q
    for i = 0..D, constant term first; every prime factor of q exceeds D, so
    every Lagrange denominator prod_{j != i} (i - j) = (-1)^(D-i) * i! * (D-i)!
    is a unit, and one inverse of D! gives all their inverses.

    With weights w_i = ys[i] / denominator_i and power sums S_e = sum_i w_i i^e,
    synthetic division of the master polynomial M by (t - i) gives
    coefficient k = sum_e M[k + 1 + e] * S_e.
    """
    count = len(ys)
    last = count - 1
    master = [c % q for c in _master_polynomial(count)]
    inverse_factorials = [1] * count
    inverse_factorials[last] = pow(factorial(last), -1, q)
    for i in range(last, 0, -1):
        inverse_factorials[i - 1] = inverse_factorials[i] * i % q
    scaled = [
        (-y if (last - i) % 2 else y) * inverse_factorials[i] * inverse_factorials[last - i] % q
        for i, y in enumerate(ys)
    ]
    sums = []
    for _ in range(count):
        sums.append(sum(scaled) % q)
        scaled = [w * i % q for i, w in enumerate(scaled)]
    return [sum(map(mul, master[k + 1 :], sums)) % q for k in range(count)]


def _det_images(entries: list[list[int]], n: int, primes, degree_bound: int) -> list[list[int]]:
    """det mod p for each prime p of a group, as dense coefficient lists of
    length degree_bound + 1, of the n x n matrix whose row-major entries have
    the integer coefficient lists ``entries`` (constant term first).

    One pass serves the whole group: the entries are reduced modulo the
    product q of the primes, evaluated at 0..D with one powers table per
    point, eliminated mod q and interpolated mod q.  Every prime must exceed
    the degree bound and the primes must be distinct.
    """
    for p in primes:
        if p <= degree_bound:
            raise ValidationError(
                f"insufficient evaluation points: p={p} but degree bound is {degree_bound}"
            )
    q = prod(primes)
    entries = [[c % q for c in e] for e in entries]
    width = max(map(len, entries), default=0)
    ys = []
    for x in range(degree_bound + 1):
        powers = [1] * width
        for d in range(1, width):
            powers[d] = powers[d - 1] * x % q
        values = [sum(map(mul, e, powers)) % q for e in entries]
        ys.append(_det_mod([values[i * n : (i + 1) * n] for i in range(n)], q, primes))
    coefficients = _interpolate_mod(ys, q)
    return [[c % p for c in coefficients] for p in primes]


def _dense_entries(m: ExactMatrix) -> list[list[int]]:
    return [dense_coefficients(e, e.degree() + 1) for e in m.entries]


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
    (image,) = _det_images(_dense_entries(m), m.nrows, (desc.base.p,), degree_bound)
    return from_dense_coefficients(m.parent, image)


def det_univariate_mod_primes(m: ExactMatrix, primes, degree_bound: int) -> list[list[int]]:
    """The images det(m mod p) of a square matrix over ZZ[t], one dense
    coefficient list (constant term first, length degree_bound + 1) per prime
    of ``primes``, all computed in one pass modulo their product.

    Requires distinct primes, each greater than degree_bound.
    """
    desc = m.parent.descriptor
    if not isinstance(desc, UnivariatePolyRing) or not isinstance(desc.base, IntegerRing):
        raise ValidationError("expected a matrix over a univariate polynomial ring over ZZ")
    if not m.is_square:
        raise ValidationError("determinant of a nonsquare matrix")
    if degree_bound < 0:
        raise ValidationError("degree bound must be nonnegative")
    primes = tuple(primes)
    for p in primes:
        if not is_prime(p):
            raise ValidationError(f"{p} is not prime")
    if len(set(primes)) != len(primes):
        raise ValidationError(f"repeated prime in {list(primes)}")
    return _det_images(_dense_entries(m), m.nrows, primes, degree_bound)


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
