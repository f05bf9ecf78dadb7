"""Seeded inputs for the benchmark workloads.

Each workload has a fixed shape; the seed picks the coefficients and, for the
monomial map, which variables carry which image.  Every seed therefore gives
an instance of the same size and cost, so runs with different seeds can be
compared.  These generators are independent of ``mrdikit.workloads.synthetic``,
whose instances the acceptance tests keep.
"""

from __future__ import annotations

import random
from fractions import Fraction

from mrdikit.algebra import QQ, ZZ, ExactMatrix, Polynomial, polynomial_ring, univariate_ring
from mrdikit.mrdi import GlobalSerializerState, Mode, SerializerState, codec, textio
from mrdikit.workloads.kernel import MonomialMap

DETCRT_POOL_SHAPE = {"size": 12, "degree": 8, "bits": 64}
DETCRT_HEURISTIC_SHAPE = {"size": 8, "degree": 6, "bits": 192}
# 6 linear images s_i and 6 quadratic images s_i*s_(i+1): 12 -> 6 variables,
# image degrees mixed 1 and 2.
KERNEL_SHAPE = {"targets": 6, "total_degree": 5}
DOCS_SHAPE = {
    "matrices": 3, "matrix_size": 8, "matrix_degree": 8, "matrix_bits": 64,
    "det_results": 3, "det_degree": 64, "det_bits": 1024,
    "qq_polys": 3, "qq_terms": 120, "qq_bits": 96,
    "maps": 2, "kernel_lists": 2,
}


def _signed(rng: random.Random, bits: int) -> int:
    return rng.randint(-(2 ** (bits - 1)), 2 ** (bits - 1) - 1)


def _rational(rng: random.Random, bits: int) -> Fraction:
    while True:
        num = _signed(rng, bits)
        if num:
            return Fraction(num, rng.randint(1, 2**bits))


def zz_t_matrix(rng: random.Random, ring, size: int, degree: int, bits: int) -> ExactMatrix:
    """Dense square matrix whose entries have every coefficient up to ``degree``."""
    rows = [
        [
            Polynomial.from_terms(ring, [((d,), _signed(rng, bits) or 1) for d in range(degree + 1)])
            for _ in range(size)
        ]
        for _ in range(size)
    ]
    return ExactMatrix.from_rows(ring, rows)


def detcrt_matrix(seed: int, shape: dict) -> ExactMatrix:
    ring, _ = univariate_ring(ZZ, "t")
    return zz_t_matrix(random.Random(seed), ring, shape["size"], shape["degree"], shape["bits"])


def monomial_map(rng: random.Random, targets: int, prefix: str = "") -> MonomialMap:
    """Map 2*targets source variables onto ``targets`` variables: each target
    variable is the image of one source variable, each cyclic neighbour
    product s_i*s_(i+1) of another.  The seed permutes the target labels,
    shuffles images among the sources and draws nonzero rational coefficients."""
    source, _ = polynomial_ring(QQ, *[f"{prefix}x{i}" for i in range(1, 2 * targets + 1)])
    target, _ = polynomial_ring(QQ, *[f"{prefix}s{i}" for i in range(1, targets + 1)])
    label = list(range(targets))
    rng.shuffle(label)
    monomials = []
    for i in range(targets):
        for members in ((i,), (i, (i + 1) % targets)):
            exponents = [0] * targets
            for j in members:
                exponents[label[j]] += 1
            monomials.append(tuple(exponents))
    rng.shuffle(monomials)
    images = []
    for mono in monomials:
        coeff = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        images.append(Polynomial.from_terms(target, [(mono, coeff)]))
    return MonomialMap(source, target, tuple(images))


def kernel_map(seed: int, shape: dict) -> MonomialMap:
    return monomial_map(random.Random(seed), shape["targets"])


def long_term_bytes(value, uuid_seed: int) -> bytes:
    state = SerializerState(Mode.LONG_TERM, GlobalSerializerState(uuid_seed=uuid_seed))
    return textio.serialize_text(codec.save(value, state))


def _qq_poly(rng: random.Random, ring, terms: int, bits: int) -> Polynomial:
    arity = len(ring.descriptor.symbols)
    monos = set()
    while len(monos) < terms:
        monos.add(tuple(rng.randint(0, 4) for _ in range(arity)))
    return Polynomial.from_terms(ring, [(m, _rational(rng, bits)) for m in sorted(monos)])


def _kernel_list(rng: random.Random, phi: MonomialMap, entries: int = 12):
    """A kernel-component list shaped like ``mrdikit kernel`` output:
    ``[(multidegree, [binomials]), ...]`` over the map's source ring."""
    ring = phi.source
    arity = len(ring.descriptor.symbols)
    value = []
    for index in range(entries):
        gens = []
        for _ in range(2):
            a = tuple(rng.randint(0, 2) for _ in range(arity))
            b = tuple(rng.randint(0, 2) for _ in range(arity))
            if a == b:
                b = a[:-1] + (a[-1] + 1,)
            gens.append(
                Polynomial.from_terms(ring, [(a, _rational(rng, 16)), (b, _rational(rng, 16))])
            )
        value.append(([index, rng.randint(0, 9), rng.randint(0, 9)], gens))
    return value


def docs_corpus(seed: int, shape: dict = DOCS_SHAPE):
    """``[(label, value)]`` for the long-term documents and for the IPC
    documents (copies of the first matrix, determinant result and QQ
    polynomial).  Every long-term document lives over rings of its own."""
    rng = random.Random(seed)
    long_term = []
    for i in range(shape["matrices"]):
        ring, _ = univariate_ring(ZZ, f"m{i}t")
        value = zz_t_matrix(
            rng, ring, shape["matrix_size"], shape["matrix_degree"], shape["matrix_bits"]
        )
        long_term.append((f"matrix{i}", value))
    for i in range(shape["det_results"]):
        ring, _ = univariate_ring(ZZ, f"d{i}t")
        terms = [((d,), _signed(rng, shape["det_bits"]) or 1) for d in range(shape["det_degree"] + 1)]
        long_term.append((f"det{i}", Polynomial.from_terms(ring, terms)))
    for i in range(shape["qq_polys"]):
        ring, _ = polynomial_ring(QQ, *[f"q{i}{v}" for v in "abcd"])
        long_term.append((f"qqpoly{i}", _qq_poly(rng, ring, shape["qq_terms"], shape["qq_bits"])))
    maps = [monomial_map(rng, 6, prefix=f"k{i}") for i in range(shape["maps"])]
    for i, phi in enumerate(maps):
        long_term.append((f"map{i}", phi))
    for i in range(shape["kernel_lists"]):
        long_term.append((f"kernel{i}", _kernel_list(rng, maps[i % len(maps)])))
    by_label = dict(long_term)
    ipc = [(f"ipc-{label}", by_label[label]) for label in ("matrix0", "det0", "qqpoly0")]
    return long_term, ipc
