"""Exact matrices over an interned ring, with the linear algebra the workloads need.

Entries are plain values of the ring, put in canonical form by the ring's
``coercer`` when a matrix is built.  Everything here is exact: rational row
reduction uses ``Fraction``, and nothing ever rounds.

Determinants of a ZZ[t] matrix go by evaluation at integer points, exactly
over ZZ, and interpolation, in one of two ways:

- exactly: ``det_univariate_at_points`` takes det(M(x)) at each point by
  two-step fraction-free (Bareiss) elimination over ZZ, and
  ``interpolate_at_consecutive_points`` turns the values at consecutive
  integers into coefficients by Newton's divided differences, with no
  coefficient bound, no primes and no CRT.  A two-step pass clears two
  columns: with g the previous leading minor, each remaining entry becomes
  (p2 a_ij - u_i a_1j + v_i a_0j) / g, where p2 = (a_00 a_11 - a_10 a_01) / g
  is the next leading minor and u_i = (a_00 a_i1 - a_i0 a_01) / g,
  v_i = (a_10 a_i1 - a_i0 a_11) / g are exact 2 x 2 minors over g, taken once
  per row: 3 multiplications and 1 exact division per entry where one-step
  elimination needs 4 and 2 (Bareiss 1968, by Sylvester's identity);
- modularly: ``det_univariate_mod_primes`` gives det(M mod p) for many primes
  from one evaluation at 0..D, eliminating and interpolating in passes modulo
  a product of up to ``PRIME_GROUP`` primes, one pass serving all of its
  primes.  The caller lifts the images by CRT.

Both evaluate the entries at a point in one Horner pass over packed
integers (``_evaluations``): the degree-d coefficients of all entries share
one integer, in fields of whole bytes wide enough for the largest |value|,
at most the largest |coefficient| times 1 + X + ... + X^(w-1) for the
largest |point| X and the longest coefficient list w, plus a sign bit.

``mrdikit.workloads.determinant`` picks one per matrix.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, prod
from operator import mul

from ..errors import ValidationError, quote
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
                f"expected {quote(nrows * ncols)} entries for a {quote(nrows)}x{quote(ncols)} "
                f"matrix, got {len(entries)}"
            )
        self.parent = parent
        self.nrows = nrows
        self.ncols = ncols
        self.entries = entries

    @classmethod
    def of_canonical(cls, parent: ContextHandle, nrows: int, ncols: int, entries):
        """Trusted constructor: ``entries`` must already be ``nrows * ncols``
        values of ``parent`` in canonical form, as a codec load reads them."""
        m = cls.__new__(cls)
        m.parent = parent
        m.nrows = nrows
        m.ncols = ncols
        m.entries = tuple(entries)
        return m

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

# Most primes per modular pass.  The entries are evaluated once per call, so
# a pass costs its eliminations and interpolation modulo the product of its
# primes; a wider pass spreads the interpreter's cost per operation over more
# primes.  Per prime, passes of 6/8/10/14 primes cost 9.9/9.4/9.1/8.4 ms in
# one 28-prime call on the 12x12 degree-8 benchmark matrix and
# 2.7/2.3/2.3/2.1 ms in one 56-prime call on the 8x8 degree-6 one; 20 gain
# nothing over 14 (least CPU time of 6-8 runs, 2 vCPU, Python 3.11.7).
PRIME_GROUP = 14


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


def _evaluations(entries: list[list[int]], n: int, points):
    """For each integer point x, the n x n matrix (a list of rows) of the
    values at x, exactly over ZZ, of the entries with the integer coefficient
    lists ``entries`` (row-major, constant term first).

    All entries are evaluated at once on packed integers.  Entry e's value
    at x is at most c * (1 + X + ... + X^(w-1)) in absolute value, with c the
    largest |coefficient|, X the largest |point| and w the longest list, so a
    field of that bound's bit length plus a sign bit, rounded up to whole
    bytes, holds it.  The degree-d coefficients of all entries are packed
    into one integer P_d = sum_e c_(e,d) * 2^(field * e); one Horner pass
    (...(P_(w-1) x + P_(w-2)) x + ...) + P_0 then gives
    sum_e value_e(x) * 2^(field * e).  Adding half of 2^field to every field
    makes each one nonnegative and below 2^field, so no field borrows from
    the next, and one ``to_bytes`` cuts the sum into its fields.
    """
    points = tuple(points)
    count = len(entries)
    width = max(map(len, entries), default=0)
    reach = max(map(abs, points), default=0)
    largest = max((abs(c) for e in entries for c in e), default=0)
    size = (largest * sum(reach**d for d in range(width))).bit_length() // 8 + 1
    half = 1 << (8 * size - 1)
    bias = int.from_bytes(half.to_bytes(size, "little") * count, "little")
    columns = zip(*(e + [0] * (width - len(e)) for e in entries))
    packed = [
        int.from_bytes(b"".join((c + half).to_bytes(size, "little") for c in column), "little")
        - bias
        for column in columns
    ]
    for x in points:
        total = 0
        for coefficients in reversed(packed):
            total = total * x + coefficients
        fields = (total + bias).to_bytes(size * count, "little")
        values = [
            int.from_bytes(fields[i : i + size], "little") - half
            for i in range(0, size * count, size)
        ]
        yield [values[i * n : (i + 1) * n] for i in range(n)]


def _det_images(entries: list[list[int]], n: int, primes, degree_bound: int) -> list[list[int]]:
    """det mod p for each prime p of ``primes``, as dense coefficient lists of
    length degree_bound + 1, of the n x n matrix whose row-major entries have
    the integer coefficient lists ``entries`` (constant term first).

    The primes are split into passes of at most ``PRIME_GROUP`` primes, whose
    sizes differ by at most one.  Each entry is evaluated once per point
    0..D, exactly over ZZ; every pass takes those values modulo the product q
    of its primes, eliminates mod q and, after the last point, interpolates
    mod q.  Every prime must exceed the degree bound and the primes must be
    distinct.
    """
    for p in primes:
        if p <= degree_bound:
            raise ValidationError(
                f"insufficient evaluation points: p={p} but degree bound is {degree_bound}"
            )
    total, count = len(primes), -(-len(primes) // PRIME_GROUP)
    passes = [primes[i * total // count : (i + 1) * total // count] for i in range(count)]
    moduli = [prod(group) for group in passes]
    ys = [[] for _ in passes]
    for rows in _evaluations(entries, n, range(degree_bound + 1)):
        for group, q, out in zip(passes, moduli, ys):
            out.append(_det_mod([[v % q for v in row] for row in rows], q, group))
    images = []
    for group, q, out in zip(passes, moduli, ys):
        coefficients = _interpolate_mod(out, q)
        images.extend([c % p for c in coefficients] for p in group)
    return images


def _dense_entries(m: ExactMatrix) -> list[list[int]]:
    return [dense_coefficients(e, e.degree() + 1) for e in m.entries]


def _require_univariate_square(m, base: type, name: str) -> None:
    """Raise ValidationError unless ``m`` is a square ``ExactMatrix`` over a
    univariate polynomial ring whose coefficient ring is a ``base``."""
    desc = m.parent.descriptor if isinstance(m, ExactMatrix) else None
    if not isinstance(desc, UnivariatePolyRing) or not isinstance(desc.base, base):
        raise ValidationError(f"expected a matrix over a univariate polynomial ring over {name}")
    if not m.is_square:
        raise ValidationError("determinant of a nonsquare matrix")


def det_univariate_over_prime_field(m: ExactMatrix, degree_bound: int) -> Polynomial:
    """det of a square matrix over Fp[t], via evaluation at degree_bound + 1
    points, scalar determinants, and Lagrange interpolation.

    Requires p > degree_bound so that enough distinct evaluation points exist.
    """
    _require_univariate_square(m, PrimeField, "a prime field")
    if degree_bound < 0:
        raise ValidationError("degree bound must be nonnegative")
    (image,) = _det_images(_dense_entries(m), m.nrows, (m.parent.descriptor.base.p,), degree_bound)
    return from_dense_coefficients(m.parent, image)


def det_univariate_mod_primes(m: ExactMatrix, primes, degree_bound: int) -> list[list[int]]:
    """The images det(m mod p) of a square matrix over ZZ[t], one dense
    coefficient list (constant term first, length degree_bound + 1) per prime
    of ``primes``, from one evaluation of the entries shared by passes of at
    most ``PRIME_GROUP`` primes.

    Requires distinct primes, each greater than degree_bound.
    """
    _require_univariate_square(m, IntegerRing, "ZZ")
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
# Exact determinants over ZZ[t]: Bareiss elimination at integer points and
# Newton interpolation
# ----------------------------------------------------------------------------


def _det_bareiss(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by two-step fraction-free
    (Bareiss) elimination with row swaps; each pass drops two pivot rows and
    columns.

    Before a pass every remaining entry a_ij is a bordered minor of the
    matrix (up to the sign of the swaps), and g, the previous pass's second
    pivot (1 at the start), is the leading minor they border.  By Sylvester's
    identity the one-step values u_i = (a_00 a_i1 - a_i0 a_01) / g and
    v_i = (a_10 a_i1 - a_i0 a_11) / g are exact minors too, and so is
    (p2 a_ij - u_i a_1j + v_i a_0j) / g, the 3 x 3 determinant of rows 0, 1,
    i and columns 0, 1, j over g^2, with p2 = u_1 the next leading minor.
    A pass takes a pivot a_00 != 0 from column 0 and a row with u_i != 0 as
    row 1, swapping rows as needed; swapping two remaining rows swaps two
    rows of the matrix, which flips the sign.  A column with no such pivot
    makes the matrix singular.  The last 2 x 2 block's determinant over g,
    or the last 1 x 1 entry, is the determinant.
    """
    sign, g = 1, 1
    while len(rows) > 2:
        for k, row in enumerate(rows):
            if row[0]:
                break
        else:
            return 0
        if k:
            rows[0], rows[k] = rows[k], rows[0]
            sign = -sign
        first, rest = rows[0], rows[1:]
        a00, a01 = first[0], first[1]
        us = [(a00 * row[1] - row[0] * a01) // g for row in rest]
        for k, p2 in enumerate(us):
            if p2:
                break
        else:
            return 0
        if k:
            rest[0], rest[k] = rest[k], rest[0]
            us[0], us[k] = us[k], us[0]
            sign = -sign
        second = rest[0]
        a10, a11 = second[0], second[1]
        tail0, tail1 = first[2:], second[2:]
        remaining = []
        for row, u in zip(rest[1:], us[1:]):
            v = (a10 * row[1] - row[0] * a11) // g
            remaining.append(
                [(p2 * a - u * b + v * c) // g for a, b, c in zip(row[2:], tail1, tail0)]
            )
        rows, g = remaining, p2
    if len(rows) == 2:
        (a00, a01), (a10, a11) = rows
        return sign * ((a00 * a11 - a01 * a10) // g)
    return sign * rows[0][0] if rows else 1


def det_univariate_at_points(m: ExactMatrix, points) -> list[int]:
    """det(m)(x) for each integer x of ``points``, for a square matrix over
    ZZ[t]: the entries are evaluated at x exactly over ZZ and the scalar
    determinant is taken by two-step Bareiss elimination."""
    _require_univariate_square(m, IntegerRing, "ZZ")
    return [_det_bareiss(rows) for rows in _evaluations(_dense_entries(m), m.nrows, points)]


def interpolate_at_consecutive_points(start: int, values: list[int]) -> list[int]:
    """Dense coefficients, constant term first, of the polynomial p of degree
    below len(values) with p(start + i) = values[i]; p must have integer
    coefficients, as a determinant over ZZ[t] has.

    At consecutive integers the Newton coefficient c_j, the divided
    difference at x_0..x_j, is the j-th forward difference at x_0 divided by
    j!.  The divided differences of a polynomial with integer coefficients
    at integer points are integers, so each of these divisions is exact.
    The Newton form c_0 + (t - x_0)(c_1 + (t - x_1)(c_2 + ...)) is then
    expanded by Horner's rule.
    """
    c = []
    differences = list(values)
    factorial = 1
    for j in range(len(differences)):
        c.append(differences[0] // factorial)
        differences = [b - a for a, b in zip(differences, differences[1:])]
        factorial *= j + 1
    count = len(c)
    coefficients = c[-1:]
    for k in range(count - 2, -1, -1):
        x = start + k
        # coefficients * (t - x) + c[k]
        coefficients = [c[k] - x * coefficients[0]] + [
            a - x * b for a, b in zip(coefficients, coefficients[1:])
        ] + coefficients[-1:]
    return coefficients


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
