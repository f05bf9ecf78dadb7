"""Exact determinants of ZZ[t] matrices, by Bareiss elimination at integer
points or through modular images and CRT lifting.

The degree bound D is the smaller of the sums over rows and over columns of
the largest entry degree.  One size rule picks the path per matrix.
``_bareiss_bits`` predicts the bit length of Bareiss's last pivot at the
evaluation points: n times the largest coefficient's bits plus
d * log2(D/2 + 1) for the points (d the largest entry degree) plus
log2(n * (d + 1)) for the sums.  Below ``BAREISS_RATIO`` times the bit length
of the coefficient bound, the Bareiss path runs; above it, the multimodular
one, whose prime count depends on the bound alone.

Bareiss path: the D + 1 points -floor(D/2)..ceil(D/2) go out in one
``det_univariate_at_points`` call, or with a pool in one call per worker (at
most one per point) on contiguous ranges whose sizes differ by at most one.
Each call evaluates all entries at once per point, by one Horner pass over
integers that pack every entry's coefficient of one degree, and takes each
scalar determinant by two-step fraction-free elimination, which clears two
columns per pass; the coordinator interpolates the values exactly in
Newton form, each coefficient a forward difference divided once by j!.  No
bound, prime or CRT is involved.

Multimodular path: each prime p gives one modular image det(M mod p) over
Fp[t].  The primes go out in one ``det_mod_primes`` call, or with a pool in
one call per worker (at most one per prime), the shares differing by at most
one prime.  Each call evaluates every entry once, exactly over ZZ, at the
points 0..D by the same packed Horner pass, and serves its primes in passes
of at most ``PRIME_GROUP``: per pass the values are reduced modulo the
product Q of its primes, the scalar determinants are taken by Gaussian
elimination mod Q with unit pivots (prime by prime where a column has none),
and the image is interpolated mod Q from a master polynomial prod (t - i) and
closed-form Lagrange denominators, then reduced to one residue list per
prime.  The primes descend from just below
2^31 until their product clears twice the coefficient bound, so the signed
lift is exact.  The images are lifted coefficient-wise and incrementally, one
prime at a time whatever the split: each new prime extends every
coefficient's balanced lift from modulus P to P*p with one Garner step,
taking one inverse of P mod p for all coefficients.

Both paths give the unique determinant, so the result's bytes do not depend
on the path or the worker count.  The ``heuristic`` keyword is accepted and
ignored.
"""

from __future__ import annotations

from math import gcd, log2
from typing import Iterator

from ..algebra.matrices import (
    ExactMatrix,
    _require_univariate_square,
    det_univariate_mod_primes,
    det_univariate_at_points,
    det_univariate_over_prime_field,
    interpolate_at_consecutive_points,
    reduce_mod_prime,
)
from ..algebra.polynomials import Polynomial, from_dense_coefficients
from ..algebra.primes import crt_combine_balanced, descending_primes
from ..algebra.rings import IntegerRing
from ..errors import ValidationError
from ..ipc.registry import register_function

PRIME_CEILING = 2**31

# Bareiss at the points when its predicted final size (``_bareiss_bits``) is
# below this many times the bit length of the coefficient bound, else the
# multimodular path.  Serial CPU seconds, Bareiss / multimodular, by shape
# n x degree x coefficient bits (ratio): 20x4x256 (1.09) 2.2-2.9 / 5.7-6.2;
# 8x6x192 (1.15) 0.02 / 0.10-0.11; 12x8x64 (1.67) 0.08 / 0.25-0.28; 16x12x64
# (2.15) 0.66-0.74 / 1.5-1.7; 20x8x24 (2.75) 0.64-0.66 / 1.36-1.38; 16x8x16
# (3.32) 0.17-0.18 / 0.32-0.35; 16x10x16 (3.99) 0.25-0.29 / 0.46-0.48;
# 18x12x20 (4.18) 0.77-0.87 / 1.19-1.22; 24x12x16 (4.91) 3.3-3.5 / 3.8-3.9;
# 12x16x16 (5.90) 0.20-0.22 / 0.25-0.28; 6x40x32 (8.31) 0.06-0.08 /
# 0.07-0.10; 16x16x8 (9.08) 0.58-0.74 / 0.48-0.56; 16x12x4 (9.32) 0.25-0.30 /
# 0.26-0.30; 10x20x8 (10.8) 0.08-0.12 / 0.09-0.12; 12x12x2 (10.9) 0.083-0.090
# / 0.097-0.103; 14x20x8 (11.2) 0.58-0.69 / 0.35-0.43; 10x16x4 (11.9)
# 0.066-0.074 / 0.084-0.087; 12x16x4 (12.0) 0.14-0.17 / 0.13-0.15; 14x16x4
# (12.2) 0.29-0.33 / 0.25-0.27; 8x24x8 (12.7) 0.04-0.07 / 0.05-0.07; 12x24x8
# (13.2) 0.32-0.35 / 0.19-0.26; 10x40x16 (14.5) 0.51-0.59 / 0.27-0.34;
# 12x20x4 (14.9) 0.16-0.23 / 0.13-0.18; 8x32x8 (17.0) 0.11-0.12 / 0.10-0.12;
# 8x48x16 (17.2) 0.34-0.36 / 0.22-0.24; 8x40x8 (21.5) 0.20-0.22 / 0.17-0.19;
# 10x30x4 (22.3) 0.27-0.32 / 0.16-0.21; 8x64x8 (35.0) 0.77-0.86 / 0.35-0.43
# (two-step elimination and packed evaluation, 3-5 alternating runs each,
# 2 vCPU, Python 3.11.7).  Bareiss wins every shape up to 8.31 and the
# multimodular path every shape from 13.2; in between the paths tie or
# trade wins, the multimodular path mostly on matrices of 14 or more rows.
BAREISS_RATIO = 9.0


def degree_bound(m: ExactMatrix) -> int:
    """Bound on deg(det): the smaller of the sums over rows and over columns
    of the largest entry degree.  Each term of the Leibniz expansion takes
    one entry from every row and from every column, so both sums bound it."""
    _require_univariate_square(m, IntegerRing, "ZZ")
    n = m.nrows
    degrees = _entry_degrees(m)
    by_rows = sum(max(0, *degrees[i * n : (i + 1) * n]) for i in range(n))
    by_columns = sum(max(0, *degrees[j::n]) for j in range(n))
    return min(by_rows, by_columns)


def _entry_degrees(m: ExactMatrix) -> list[int]:
    """The degree of each entry of ``m`` over ZZ[t], -1 for zero: the
    exponent of its leading term, which a canonical polynomial lists
    first."""
    return [e.terms[0][0][0] if e.terms else -1 for e in m.entries]


def _poly_l1(p: Polynomial) -> int:
    return sum(abs(c) for _, c in p.terms)


def coefficient_bound(m: ExactMatrix) -> int:
    """Product of row sums of entry l1-norms; bounds every |det coefficient|.

    Expanding det as a signed sum over permutations, each coefficient of the
    result is at most the permanent of the matrix of l1-norms, which is at
    most this product.
    """
    _require_univariate_square(m, IntegerRing, "ZZ")
    bound = 1
    for i in range(m.nrows):
        row_sum = sum(_poly_l1(m.entry(i, j)) for j in range(m.ncols))
        bound *= row_sum
    return bound


def det_mod_p(matrix: ExactMatrix, p: int) -> Polynomial:
    """One modular image: det(matrix mod p) over Fp[t], the one-prime case of
    ``det_mod_primes`` as a polynomial."""
    bound = degree_bound(matrix)
    return det_univariate_over_prime_field(reduce_mod_prime(matrix, p), bound)


def det_mod_primes(matrix: ExactMatrix, primes: list[int]) -> list[list[int]]:
    """The modular images of det(matrix) for a list of primes, from one
    evaluation of the entries: per prime, the dense coefficients of
    det(matrix mod p), constant term first, length
    ``degree_bound(matrix) + 1``."""
    return det_univariate_mod_primes(matrix, primes, degree_bound(matrix))


register_function("det_mod_primes", det_mod_primes)
register_function("det_univariate_at_points", det_univariate_at_points)


def _usable_primes(stream: Iterator[int], floor: int) -> Iterator[int]:
    for p in stream:
        if p > floor:
            yield p


def _extend_lift(lifted: list[int], modulus: int, residues: list[int], p: int) -> list[int]:
    """Extend every coefficient's balanced lift from ``modulus`` to ``modulus * p``
    with the dense coefficients of one modular image; ``modulus`` 1 starts the
    lift.

    Each coefficient takes the Garner step of ``crt_combine_balanced([x, r],
    [modulus, p])``, with one inverse of ``modulus`` mod p for all of them.
    From a balanced x, x + modulus * k with 0 <= k < p lies in
    (-modulus/2, modulus * p - modulus/2], so one subtraction of
    ``modulus * p`` above its half balances it.
    """
    if modulus == 1:
        return [crt_combine_balanced([r], [p]) for r in residues]
    if gcd(modulus, p) != 1:
        raise ValidationError(f"modulus {p} is not coprime to the product of the moduli before it")
    inverse = pow(modulus, -1, p)
    extended = modulus * p
    half = extended // 2
    out = []
    for x, r in zip(lifted, residues):
        x += modulus * ((r - x) * inverse % p)
        out.append(x - extended if x > half else x)
    return out


def _share_out(fn, m: ExactMatrix, items: list, pool) -> list:
    """``fn(m, items)``: one call without a pool, else one call per worker (at
    most one per item) on contiguous shares whose sizes differ by at most one,
    the results concatenated in order.  ``fn`` is registered under its own
    name."""
    if pool is None:
        return fn(m, items)
    n, count = len(items), min(len(pool.workers), len(items))
    shares = [(m, items[i * n // count : (i + 1) * n // count]) for i in range(count)]
    return [value for result in pool.parallel_map(fn.__name__, shares) for value in result]


def _bareiss_bits(m: ExactMatrix, bound_d: int) -> float:
    """The predicted bit length of Bareiss's last pivot at the evaluation
    points, n * (b + d * log2(D/2 + 1) + log2(n * (d + 1))), with b the
    largest coefficient's bit length and d the largest entry degree."""
    n = m.nrows
    b = max((abs(c).bit_length() for e in m.entries for _, c in e.terms), default=0)
    d = max(_entry_degrees(m), default=0)
    return n * (b + d * log2(bound_d / 2 + 1) + log2(n * (d + 1) or 1))


def modular_determinant(m: ExactMatrix, pool=None, heuristic: bool = False) -> Polynomial:
    """Exact determinant of a square matrix over ZZ[t].

    Bareiss elimination at the points -floor(D/2)..ceil(D/2) when
    ``_bareiss_bits`` stays below ``BAREISS_RATIO`` times the bit length of
    the coefficient bound, else the multimodular path.  With a pool, the
    points or the primes are shared out through ``parallel_map``, one call per
    worker; the serial and pooled paths produce identical results.
    ``heuristic`` is accepted and ignored: both modes compute the exact
    result.
    """
    _require_univariate_square(m, IntegerRing, "ZZ")
    bound_b = coefficient_bound(m)
    bound_d = degree_bound(m)
    if bound_b == 0:
        return Polynomial.zero(m.parent)  # a row vanished; det is 0
    if _bareiss_bits(m, bound_d) < BAREISS_RATIO * bound_b.bit_length():
        start = -(bound_d // 2)
        points = list(range(start, start + bound_d + 1))
        values = _share_out(det_univariate_at_points, m, points, pool)
        return from_dense_coefficients(m.parent, interpolate_at_consecutive_points(start, values))

    stream = _usable_primes(descending_primes(PRIME_CEILING), bound_d)
    primes = []
    product = 1
    while product <= 2 * bound_b:
        try:
            p = next(stream)
        except StopIteration:
            raise ValidationError("prime stream exhausted before clearing the bound")
        primes.append(p)
        product *= p
    lifted = [0] * (bound_d + 1)
    modulus = 1
    for p, image in zip(primes, _share_out(det_mod_primes, m, primes, pool)):
        lifted = _extend_lift(lifted, modulus, image, p)
        modulus *= p
    return from_dense_coefficients(m.parent, lifted)
