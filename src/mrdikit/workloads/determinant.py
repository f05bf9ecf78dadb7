"""Exact determinants of ZZ[t] matrices, by evaluation at integer points and
interpolation, over ZZ or modulo products of primes.

The degree bound D is the smaller of the sums over rows and over columns of
the largest entry degree.  Both paths run one pipeline on the D + 1 points
-floor(D/2)..ceil(D/2).  The points go out in one call, or with a pool in one
call per worker (at most one per point) on contiguous ranges whose sizes
differ by at most one.  Each call evaluates all entries at once per point, by
one Horner pass over integers that pack every entry's coefficient of one
degree, and takes one scalar determinant per point; the coordinator
interpolates the values in Newton form, each coefficient a forward difference
times 1/j!.  The paths differ only in the scalar determinant and the
arithmetic:

- Bareiss path (``det_univariate_at_points``): two-step fraction-free
  elimination over ZZ, which clears two columns per pass, and exact
  interpolation.  No bound, prime or CRT is involved.
- Multimodular path (``det_mod_primes``): the primes descend from just below
  2^31 until their product clears twice the coefficient bound, so the signed
  lift is exact.  The coordinator splits them once into passes of at most
  ``PRIME_GROUP``, and every call gets all the passes.  Per point, the
  values are reduced modulo each pass's product q and the scalar
  determinant is taken by Gaussian elimination mod q with unit pivots (prime
  by prime where a column has none).  The coordinator interpolates each
  pass mod q and lifts coefficient-wise, one pass at a time: each q extends
  every coefficient's balanced lift from modulus P to P*q with one Garner
  step (``primes.crt_extend``), taking one inverse of P mod q for all
  coefficients.

One size rule picks the path per matrix.  ``_bareiss_bits`` predicts the bit
length of Bareiss's last pivot at the evaluation points: n times the largest
coefficient's bits plus d * log2(D/2 + 1) for the points (d the largest
entry degree) plus log2(n * (d + 1)) for the sums.  Below ``BAREISS_RATIO``
times the bit length of the coefficient bound, the Bareiss path runs; above
it, the multimodular one, whose prime count depends on the bound alone.  The
largest bit length and the bound come from one pass over the coefficients.

Both paths give the unique determinant, so the result's bytes do not depend
on the path or the worker count.  The ``heuristic`` keyword is accepted and
ignored.
"""

from __future__ import annotations

from math import log2, prod

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
from ..algebra.primes import crt_extend, descending_primes
# Imported only so the traced benchmark can probe it by this module's name;
# the lift calls ``crt_extend`` directly.
from ..algebra.primes import crt_combine_balanced  # noqa: F401
from ..algebra.rings import IntegerRing
from ..errors import ValidationError
from ..ipc.registry import register_function

PRIME_CEILING = 2**31

# Most primes per modular pass.  The entries are evaluated once per point for
# all passes, so a pass costs its eliminations and interpolation modulo the
# product of its primes; a wider pass spreads the interpreter's cost per
# operation over more primes.  Per prime, passes of 6/8/10/14 primes cost
# 9.9/9.4/9.1/8.4 ms in one 28-prime call on the 12x12 degree-8 benchmark
# matrix and 2.7/2.3/2.3/2.1 ms in one 56-prime call on the 8x8 degree-6 one;
# 20 gain nothing over 14 (least CPU time of 6-8 runs, 2 vCPU, Python 3.11.7).
PRIME_GROUP = 14

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


def _coefficient_sizes(m: ExactMatrix) -> tuple[list[int], int]:
    """The l1-norm of each entry's coefficients, row-major, and the bit length
    of the largest |coefficient|, from one pass over the absolute
    coefficients."""
    norms, largest = [], 0
    for e in m.entries:
        magnitudes = [abs(c) for _, c in e.terms]
        norms.append(sum(magnitudes))
        largest = max([largest, *magnitudes])
    return norms, largest.bit_length()


def _product_of_row_sums(norms: list[int], n: int) -> int:
    return prod(sum(norms[i * n : (i + 1) * n]) for i in range(n))


def coefficient_bound(m: ExactMatrix) -> int:
    """Product of row sums of entry l1-norms; bounds every |det coefficient|.

    Expanding det as a signed sum over permutations, each coefficient of the
    result is at most the permanent of the matrix of l1-norms, which is at
    most this product.
    """
    _require_univariate_square(m, IntegerRing, "ZZ")
    return _product_of_row_sums(_coefficient_sizes(m)[0], m.nrows)


def det_mod_p(matrix: ExactMatrix, p: int) -> Polynomial:
    """One modular image: det(matrix mod p) over Fp[t], the one-prime case of
    ``det_mod_primes`` as a polynomial."""
    bound = degree_bound(matrix)
    return det_univariate_over_prime_field(reduce_mod_prime(matrix, p), bound)


def det_mod_primes(
    matrix: ExactMatrix, points: list[int], passes: list[list[int]]
) -> list[list[int]]:
    """For each integer point x of ``points``, det(matrix(x)) mod the product
    of each pass's primes, from one evaluation of the entries per point."""
    return det_univariate_mod_primes(matrix, points, passes)


register_function("det_mod_primes", det_mod_primes)
register_function("det_univariate_at_points", det_univariate_at_points)


def _passes(primes: list[int]) -> list[list[int]]:
    """``primes`` split in order into passes of at most ``PRIME_GROUP`` primes,
    whose sizes differ by at most one."""
    total, count = len(primes), -(-len(primes) // PRIME_GROUP)
    return [primes[i * total // count : (i + 1) * total // count] for i in range(count)]


def _share_out(fn, m: ExactMatrix, points: list[int], pool, *rest) -> list:
    """``fn(m, points, *rest)``: one call without a pool, else one call per
    worker (at most one per point) on contiguous shares of the points whose
    sizes differ by at most one, the results concatenated in order.  ``fn``
    is registered under its own name."""
    if pool is None:
        return fn(m, points, *rest)
    n, count = len(points), min(len(pool.workers), len(points))
    shares = [(m, points[i * n // count : (i + 1) * n // count], *rest) for i in range(count)]
    return [value for result in pool.parallel_map(fn.__name__, shares) for value in result]


def _bareiss_bits(m: ExactMatrix, bound_d: int, b: int) -> float:
    """The predicted bit length of Bareiss's last pivot at the evaluation
    points, n * (b + d * log2(D/2 + 1) + log2(n * (d + 1))), with b the
    largest coefficient's bit length and d the largest entry degree."""
    n = m.nrows
    d = max(_entry_degrees(m), default=0)
    return n * (b + d * log2(bound_d / 2 + 1) + log2(n * (d + 1) or 1))


def modular_determinant(m: ExactMatrix, pool=None, heuristic: bool = False) -> Polynomial:
    """Exact determinant of a square matrix over ZZ[t].

    Bareiss elimination at the points -floor(D/2)..ceil(D/2) when
    ``_bareiss_bits`` stays below ``BAREISS_RATIO`` times the bit length of
    the coefficient bound, else the multimodular path at the same points.
    With a pool, the points are shared out through ``parallel_map``, one call
    per worker; the serial and pooled paths produce identical results.
    ``heuristic`` is accepted and ignored: both modes compute the exact
    result.
    """
    _require_univariate_square(m, IntegerRing, "ZZ")
    norms, b = _coefficient_sizes(m)
    bound_b = _product_of_row_sums(norms, m.nrows)
    bound_d = degree_bound(m)
    if bound_b == 0:
        return Polynomial.zero(m.parent)  # a row vanished; det is 0
    start = -(bound_d // 2)
    points = list(range(start, start + bound_d + 1))
    if _bareiss_bits(m, bound_d, b) < BAREISS_RATIO * bound_b.bit_length():
        values = _share_out(det_univariate_at_points, m, points, pool)
        return from_dense_coefficients(m.parent, interpolate_at_consecutive_points(start, values))

    # The primes descend, so the first one at or below D ends the stream.
    primes, product = [], 1
    for p in descending_primes(PRIME_CEILING):
        if p <= bound_d:
            break
        primes.append(p)
        product *= p
        if product > 2 * bound_b:
            break
    if product <= 2 * bound_b:
        raise ValidationError("prime stream exhausted before clearing the bound")
    passes = _passes(primes)
    values = _share_out(det_mod_primes, m, points, pool, passes)
    lifted, modulus = [0] * (bound_d + 1), 1
    for group, column in zip(passes, zip(*values)):
        q = prod(group)
        image = interpolate_at_consecutive_points(start, column, q)
        lifted = crt_extend(lifted, modulus, image, q)
        modulus *= q
    return from_dense_coefficients(m.parent, lifted)
