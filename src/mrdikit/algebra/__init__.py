from .rings import (
    ZZ,
    QQ,
    GF,
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
from .polynomials import (
    Monomial,
    Polynomial,
    coercer,
    polynomial_ring,
    univariate_ring,
)
from .matrices import ExactMatrix
from .multidegree import (
    Multidegree,
    iter_monomials,
    monomials_by_multidegree,
)
from .primes import crt_combine_balanced, descending_primes, is_prime

__all__ = [
    "ZZ",
    "QQ",
    "GF",
    "ExactMatrix",
    "IntegerRing",
    "Monomial",
    "Multidegree",
    "MultivariatePolyRing",
    "Polynomial",
    "PrimeField",
    "RationalField",
    "RingDescriptor",
    "UnivariatePolyRing",
    "coercer",
    "crt_combine_balanced",
    "descending_primes",
    "intern_context",
    "is_prime",
    "iter_monomials",
    "monomials_by_multidegree",
    "polynomial_ring",
    "ring_arity",
    "ring_symbols",
    "univariate_ring",
]
