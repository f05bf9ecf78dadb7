"""Seeded synthetic instances for the bench suites.

Deterministic by construction: the same seed always yields the same matrix
or map, so result digests can be compared across worker counts and runs.
"""

from __future__ import annotations

import random

from ..algebra.matrices import ExactMatrix
from ..algebra.multidegree import iter_monomials
from ..algebra.polynomials import Polynomial, polynomial_ring, univariate_ring
from ..algebra.rings import QQ, ZZ
from .kernel import MonomialMap

DETCRT_SEED = 0xD37C47
KERNEL_SEED = 0x6E41

DETCRT_SIZE = 16
DETCRT_DEGREE = 12
KERNEL_SOURCE_VARS = 6
KERNEL_TARGET_VARS = 3
KERNEL_IMAGE_DEGREE = 2
KERNEL_TOTAL_DEGREE = 4


def detcrt_instance(seed: int = DETCRT_SEED) -> ExactMatrix:
    """A dense 16x16 matrix over ZZ[t] with degree-12 entries and 64-bit coefficients."""
    rng = random.Random(seed)
    ring, _ = univariate_ring(ZZ, "t")
    rows = []
    for _ in range(DETCRT_SIZE):
        row = []
        for _ in range(DETCRT_SIZE):
            terms = [
                ((d,), rng.randint(-(2**63), 2**63 - 1))
                for d in range(DETCRT_DEGREE + 1)
            ]
            row.append(Polynomial.from_terms(ring, terms))
        rows.append(row)
    return ExactMatrix.from_rows(ring, rows)


def kernel_instance(seed: int = KERNEL_SEED) -> MonomialMap:
    """A 6-variable monomial map onto 3 variables with degree-2 single-term images.

    All images share one target degree, so each multidegree meets a single
    total degree and the per-degree grouping covers its full kernel component.
    """
    rng = random.Random(seed)
    source, _ = polynomial_ring(QQ, *[f"x{i}" for i in range(1, KERNEL_SOURCE_VARS + 1)])
    target, _ = polynomial_ring(QQ, *[f"s{i}" for i in range(1, KERNEL_TARGET_VARS + 1)])
    choices = list(iter_monomials(KERNEL_TARGET_VARS, KERNEL_IMAGE_DEGREE))
    images = []
    for _ in range(KERNEL_SOURCE_VARS):
        mono = rng.choice(choices)
        coeff = rng.choice([c for c in range(-9, 10) if c != 0])
        images.append(Polynomial.from_terms(target, [(mono, coeff)]))
    return MonomialMap(source, target, tuple(images))
