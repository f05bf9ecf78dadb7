"""Determinants of ZZ[t] matrices through modular images and CRT lifting.

Each prime p gives one modular image det(M mod p) over Fp[t].  Images are
computed a group of primes at a time (``PRIME_GROUP`` of them, one remote call
per group with a pool): the integer entries are reduced once modulo the
product Q of the group's primes, turned into dense residue lists, evaluated
at the points 0..D (D the degree bound) with one powers table per point, the
scalar determinants are taken by Gaussian elimination mod Q with unit
pivots (prime by prime where a column has none), and the image is
interpolated mod Q from a master polynomial prod (t - i) and closed-form
Lagrange denominators, then reduced to one residue list per prime.

The images are lifted coefficient-wise and incrementally, one prime at a
time whatever the grouping: each new prime extends every coefficient's
balanced lift from modulus P to P*p with one Garner step
(``crt_combine_balanced`` on two moduli), so no prime is ever combined
twice.  Provable mode takes primes descending from just below 2^31 until
their product clears twice the coefficient bound, so the signed lift is
exact.  Heuristic mode stops instead once at least three primes are in and
two consecutive extensions have left every lifted coefficient unchanged;
grouping only adds images computed past that prime, never changes it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..algebra.matrices import (
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

# Primes per modular pass.  Per prime, one pass modulo the product of 4
# primes near 2^31 costs about 3x less than a single-prime pass and one over
# 8 primes about 4x less (8x8 and 12x12 benchmark matrices), with the gain
# flattening past 6; heuristic mode may compute up to 7 images past its
# stopping prime per group.
PRIME_GROUP = 8


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
    """The modular images of det(matrix) for a group of primes, in one pass:
    per prime, the dense coefficients of det(matrix mod p), constant term
    first, length ``degree_bound(matrix) + 1``."""
    return det_univariate_mod_primes(matrix, primes, degree_bound(matrix))


register_function("det_mod_primes", det_mod_primes)


def _usable_primes(stream: Iterator[int], floor: int) -> Iterator[int]:
    for p in stream:
        if p > floor:
            yield p


def _extend_lift(lifted: list[int], modulus: int, residues: list[int], p: int) -> list[int]:
    """Extend every coefficient's balanced lift from ``modulus`` to ``modulus * p``
    with the dense coefficients of one modular image; ``modulus`` 1 starts the
    lift."""
    if modulus == 1:
        return [crt_combine_balanced([r], [p]) for r in residues]
    return [crt_combine_balanced([x, r], [modulus, p]) for x, r in zip(lifted, residues)]


def modular_determinant(
    m: ExactMatrix,
    pool=None,
    heuristic: bool = False,
    prime_stream: Optional[Iterator[int]] = None,
    job: Optional[DetJob] = None,
) -> Polynomial:
    """Exact determinant of a square matrix over ZZ[t].

    With a pool, groups of primes run through ``parallel_map``; the serial
    and pooled paths produce identical results.  ``heuristic``
    stops as soon as the lifted result survives two extra primes unchanged
    instead of clearing the provable bound.  ``job``, when given, records the
    plan (bounds and primes used).
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

    def images(primes, width):
        """One residue list per prime, computed in passes of at most ``width``
        primes; the passes differ in size by at most one prime."""
        n, count = len(primes), -(-len(primes) // width)
        groups = [primes[i * n // count : (i + 1) * n // count] for i in range(count)]
        if pool is None:
            results = [det_mod_primes(m, group) for group in groups]
        else:
            results = pool.parallel_map("det_mod_primes", [(m, group) for group in groups])
        return [image for result in results for image in result]

    workers = len(pool.workers) if pool is not None else 0
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
        # Narrower groups when there are too few primes to give every worker one.
        width = min(PRIME_GROUP, -(-len(primes) // workers)) if workers else PRIME_GROUP
        for p, image in zip(primes, images(primes, width)):
            lifted = _extend_lift(lifted, modulus, image, p)
            modulus *= p
        if job is not None:
            job.primes = list(primes)
        return from_dense_coefficients(m.parent, lifted)

    # Heuristic: extend prime by prime until two consecutive extensions leave
    # the lifted coefficients unchanged.  Each round computes one group per
    # worker; the groups only affect how much work is wasted past the
    # stopping point, never the result.
    batch = PRIME_GROUP * max(workers, 1)
    primes: list[int] = []
    stable = 0
    while True:
        fresh = list(itertools.islice(stream, batch))
        if not fresh:
            raise ValidationError("prime stream exhausted during heuristic run")
        for p, image in zip(fresh, images(fresh, PRIME_GROUP)):
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
