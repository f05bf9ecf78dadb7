"""Determinants of ZZ[t] matrices through modular images and CRT lifting.

Each prime p gives one modular image det(M mod p) over Fp[t].  A round's
primes go out in one ``det_mod_primes`` call, or with a pool in one call per
worker (at most one per prime), the workers' shares differing by at most one
prime.  Each call evaluates every entry once, exactly over ZZ, at the points
0..D (D the degree bound), and serves its primes in passes of at most
``PRIME_GROUP``: per pass the values are reduced modulo the product Q of its
primes, the scalar determinants are taken by Gaussian elimination mod Q with
unit pivots (prime by prime where a column has none), and the image is
interpolated mod Q from a master polynomial prod (t - i) and closed-form
Lagrange denominators, then reduced to one residue list per prime.

The images are lifted coefficient-wise and incrementally, one prime at a
time whatever the split: each new prime extends every coefficient's
balanced lift from modulus P to P*p with one Garner step, taking one inverse
of P mod p for all coefficients, so no prime is ever combined twice.
Provable mode takes primes descending from just below 2^31 until their
product clears twice the coefficient bound, so the signed lift is exact, and
computes them in one round.  Heuristic mode computes ``PRIME_GROUP`` primes
per worker per round and stops once at least three primes are in and two
consecutive extensions have left every lifted coefficient unchanged; the
rounds only add images computed past that prime, never change it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import gcd
from typing import Iterator, Optional

from ..algebra.matrices import (
    PRIME_GROUP,
    ExactMatrix,
    det_univariate_mod_primes,
    det_univariate_over_prime_field,
    reduce_mod_prime,
)
from ..algebra.polynomials import Polynomial, from_dense_coefficients
from ..algebra.primes import crt_combine_balanced, descending_primes
from ..algebra.rings import IntegerRing, UnivariatePolyRing
from ..errors import ValidationError
from ..ipc.registry import register_function

PRIME_CEILING = 2**31


def _require_zz_t_square(m: ExactMatrix) -> None:
    desc = m.parent.descriptor
    if not isinstance(desc, UnivariatePolyRing) or not isinstance(desc.base, IntegerRing):
        raise ValidationError("expected a matrix over a univariate polynomial ring over ZZ")
    if not m.is_square:
        raise ValidationError("determinant of a nonsquare matrix")


def degree_bound(m: ExactMatrix) -> int:
    """Row-wise bound on deg(det): sum over rows of the largest entry degree."""
    _require_zz_t_square(m)
    total = 0
    for i in range(m.nrows):
        row_max = max((m.entry(i, j).degree() for j in range(m.ncols)), default=-1)
        total += max(row_max, 0)
    return total


def _poly_l1(p: Polynomial) -> int:
    return sum(abs(c) for _, c in p.terms)


def coefficient_bound(m: ExactMatrix) -> int:
    """Product of row sums of entry l1-norms; bounds every |det coefficient|.

    Expanding det as a signed sum over permutations, each coefficient of the
    result is at most the permanent of the matrix of l1-norms, which is at
    most this product.
    """
    _require_zz_t_square(m)
    bound = 1
    for i in range(m.nrows):
        row_sum = sum(_poly_l1(m.entry(i, j)) for j in range(m.ncols))
        bound *= row_sum
    return bound


@dataclass
class DetJob:
    """The plan for one modular determinant run."""

    matrix: ExactMatrix
    degree_bound: int
    coefficient_bound: int
    primes: list[int] = field(default_factory=list)


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


def modular_determinant(
    m: ExactMatrix,
    pool=None,
    heuristic: bool = False,
    prime_stream: Optional[Iterator[int]] = None,
    job: Optional[DetJob] = None,
) -> Polynomial:
    """Exact determinant of a square matrix over ZZ[t].

    With a pool, each round's primes are shared out through ``parallel_map``,
    one call per worker; the serial and pooled paths produce identical
    results.  ``heuristic`` stops as soon as the lifted result survives two
    extra primes unchanged instead of clearing the provable bound.  ``job``,
    when given, records the plan (bounds and primes used).
    """
    _require_zz_t_square(m)
    bound_b = coefficient_bound(m)
    bound_d = degree_bound(m)
    if job is not None:
        job.matrix = m
        job.degree_bound = bound_d
        job.coefficient_bound = bound_b
    if bound_b == 0:
        return Polynomial.zero(m.parent)  # a row vanished; det is 0
    stream = _usable_primes(
        prime_stream if prime_stream is not None else descending_primes(PRIME_CEILING),
        bound_d,
    )

    workers = len(pool.workers) if pool is not None else 0

    def images(primes):
        """One residue list per prime: one call without a pool, else one call
        per worker (at most one per prime), the shares differing by at most
        one prime."""
        if pool is None:
            return det_mod_primes(m, primes)
        n, count = len(primes), min(workers, len(primes))
        shares = [(m, primes[i * n // count : (i + 1) * n // count]) for i in range(count)]
        results = pool.parallel_map("det_mod_primes", shares)
        return [image for result in results for image in result]

    lifted = [0] * (bound_d + 1)
    modulus = 1
    if not heuristic:
        primes = []
        product = 1
        while product <= 2 * bound_b:
            try:
                p = next(stream)
            except StopIteration:
                raise ValidationError("prime stream exhausted before clearing the bound")
            primes.append(p)
            product *= p
        for p, image in zip(primes, images(primes)):
            lifted = _extend_lift(lifted, modulus, image, p)
            modulus *= p
        if job is not None:
            job.primes = list(primes)
        return from_dense_coefficients(m.parent, lifted)

    # Heuristic: extend prime by prime until two consecutive extensions leave
    # the lifted coefficients unchanged.  Each round computes PRIME_GROUP
    # primes per worker; the rounds only affect how much work is wasted past
    # the stopping point, never the result.
    batch = PRIME_GROUP * max(workers, 1)
    primes: list[int] = []
    stable = 0
    while True:
        fresh = list(itertools.islice(stream, batch))
        if not fresh:
            raise ValidationError("prime stream exhausted during heuristic run")
        for p, image in zip(fresh, images(fresh)):
            extended = _extend_lift(lifted, modulus, image, p)
            if primes and extended == lifted:
                stable += 1
            else:
                stable = 0
            primes.append(p)
            lifted = extended
            modulus *= p
            if len(primes) >= 3 and stable >= 2:
                if job is not None:
                    job.primes = list(primes)
                return from_dense_coefficients(m.parent, lifted)
