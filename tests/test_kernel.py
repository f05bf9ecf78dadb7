import random
from fractions import Fraction

import pytest
import sympy

from mrdikit.algebra import QQ, Polynomial, iter_monomials, polynomial_ring
from mrdikit.errors import ContextMismatchError, ValidationError
from mrdikit.ipc import spawn_pool
from mrdikit.workloads import MonomialMap, components_of_kernel, evaluate_map


def twisted_conic():
    S, (x, y, z) = polynomial_ring(QQ, "x", "y", "z")
    T, (s, t) = polynomial_ring(QQ, "s", "t")
    phi = MonomialMap(S, T, (s * s, s * t, t * t))
    return phi, (x, y, z)


def segre_2x2():
    S, gens = polynomial_ring(QQ, "x11", "x12", "x21", "x22")
    T, (s1, s2, t1, t2) = polynomial_ring(QQ, "s1", "s2", "t1", "t2")
    phi = MonomialMap(S, T, (s1 * t1, s1 * t2, s2 * t1, s2 * t2))
    return phi, gens


# -- construction and evaluation -------------------------------------------------


def test_monomial_map_validation():
    S, (x, y) = polynomial_ring(QQ, "x", "y")
    T, (s,) = polynomial_ring(QQ, "s")
    with pytest.raises(ValidationError):
        MonomialMap(S, T, (s,))  # wrong arity
    with pytest.raises(ValidationError):
        MonomialMap(S, T, (s, s + Polynomial.constant(T, 1)))  # two terms
    with pytest.raises(ValidationError):
        MonomialMap(S, T, (s, Polynomial.constant(T, 2)))  # constant image


def test_variable_degrees_are_image_exponents():
    phi, _ = twisted_conic()
    assert phi.variable_degrees == ((2, 0), (1, 1), (0, 2))


def test_evaluate_conic_relation_vanishes():
    phi, (x, y, z) = twisted_conic()
    assert evaluate_map(phi, x * z - y * y).is_zero


def test_evaluate_constants_and_linear():
    phi, (x, y, z) = twisted_conic()
    one_src = Polynomial.constant(phi.source, 1)
    assert evaluate_map(phi, one_src) == Polynomial.constant(phi.target, 1)
    got = evaluate_map(phi, x + y)
    assert got == phi.images[0] + phi.images[1]  # s^2 + s*t


def test_evaluate_requires_source_parent():
    phi, _ = twisted_conic()
    other, (w,) = polynomial_ring(QQ, "w")
    with pytest.raises(ContextMismatchError):
        evaluate_map(phi, w)


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(4242)
    phi, _ = twisted_conic()
    for _ in range(25):
        def rand_poly():
            return Polynomial.from_terms(
                phi.source,
                [
                    (
                        tuple(rng.randrange(3) for _ in range(3)),
                        Fraction(rng.randint(-5, 5)),
                    )
                    for _ in range(rng.randrange(4))
                ],
            )

        a, b = rand_poly(), rand_poly()
        assert evaluate_map(phi, a * b) == evaluate_map(phi, a) * evaluate_map(phi, b)
        assert evaluate_map(phi, a + b) == evaluate_map(phi, a) + evaluate_map(phi, b)


# -- the two named kernels --------------------------------------------------------


def test_twisted_conic_kernel():
    phi, (x, y, z) = twisted_conic()
    components = components_of_kernel(phi, 2)
    assert components == {(2, 2): [x * z - y * y]}


def test_segre_kernel():
    phi, (x11, x12, x21, x22) = segre_2x2()
    components = components_of_kernel(phi, 2)
    assert components == {(1, 1, 1, 1): [x11 * x22 - x12 * x21]}


def test_injective_map_has_empty_kernel():
    S, (x, y) = polynomial_ring(QQ, "x", "y")
    T, (s, t) = polynomial_ring(QQ, "s", "t")
    phi = MonomialMap(S, T, (s, t))
    for d in (1, 2, 3, 4):
        assert components_of_kernel(phi, d) == {}


def test_kernel_rejects_degree_zero():
    phi, _ = twisted_conic()
    with pytest.raises(ValidationError):
        components_of_kernel(phi, 0)


def test_every_generator_vanishes_and_is_homogeneous():
    phi, _ = twisted_conic()
    components = components_of_kernel(phi, 4)
    degs = phi.variable_degrees
    for md, gens in components.items():
        for g in gens:
            assert evaluate_map(phi, g).is_zero
            for mono, _ in g.terms:
                weighted = tuple(
                    sum(e * d[j] for e, d in zip(mono, degs)) for j in range(len(md))
                )
                assert weighted == md


def test_minimalize_drops_products_of_lower_generators():
    phi, (x, y, z) = twisted_conic()
    minimal = components_of_kernel(phi, 3, minimalize=True)
    full = components_of_kernel(phi, 3, minimalize=False)
    # degree 3 adds nothing new to a minimal generating set for the conic
    assert set(minimal) == {(2, 2)}
    # without minimalization the degree-3 multiples of xz - y^2 show up
    extra = {md for md in full if md != (2, 2)}
    assert extra
    for md in extra:
        for g in full[md]:
            assert evaluate_map(phi, g).is_zero


# -- mixed image degrees --------------------------------------------------------------


def test_mixed_degree_kernel_is_found():
    S, (x, y) = polynomial_ring(QQ, "x", "y")
    T, (s,) = polynomial_ring(QQ, "s")
    phi = MonomialMap(S, T, (s, s * s))
    assert components_of_kernel(phi, 2) == {(2,): [x * x - y]}
    assert components_of_kernel(phi, 4) == {(2,): [x * x - y]}


def test_mixed_degree_weighted_bound():
    S, (x, y) = polynomial_ring(QQ, "x", "y")
    T, (s,) = polynomial_ring(QQ, "s")
    phi = MonomialMap(S, T, (s * s, s**3))
    # degree 2 covers multidegrees up to 2 * 2 = 4; x^3 - y^2 lives in 6
    assert components_of_kernel(phi, 2) == {}
    assert components_of_kernel(phi, 3) == {(6,): [x**3 - y * y]}


def cyclic_map(targets=6):
    """The kernel-pool benchmark shape: s_i is the image of one source
    variable and the neighbour product s_i*s_(i+1) of another."""
    S, gens = polynomial_ring(QQ, *[f"cx{i}" for i in range(2 * targets)])
    T, ts = polynomial_ring(QQ, *[f"cs{i}" for i in range(targets)])
    images = []
    for i in range(targets):
        images.append(ts[i] * Polynomial.constant(T, Fraction(i + 2, 3)))
        images.append(ts[i] * ts[(i + 1) % targets] * Polynomial.constant(T, Fraction(-1, i + 1)))
    return MonomialMap(S, T, tuple(images)), gens


def test_cyclic_map_has_one_generator_per_neighbour_pair():
    phi, _ = cyclic_map()
    components = components_of_kernel(phi, 5)
    gens = [g for gs in components.values() for g in gs]
    assert len(gens) == 6
    for md, gs in components.items():
        assert sorted(md, reverse=True)[:3] == [1, 1, 0]
        for g in gs:
            assert evaluate_map(phi, g).is_zero
            assert len(g.terms) == 2 and g.terms[0][1] > 0


@pytest.mark.parametrize("minimalize", [True, False])
def test_mixed_degree_kernel_is_pool_invariant(minimalize):
    phi, _ = cyclic_map()
    rng = random.Random(0x5EED)
    maps = [(phi, 5)] + [(random_monomial_map(rng), 4) for _ in range(4)]
    serial = [components_of_kernel(m, d, minimalize=minimalize) for m, d in maps]
    for workers in (1, 2, 4):
        with spawn_pool(workers) as pool:
            pooled = [components_of_kernel(m, d, pool=pool, minimalize=minimalize) for m, d in maps]
        assert pooled == serial
        assert [list(c) for c in pooled] == [list(c) for c in serial]


# -- randomized oracle ---------------------------------------------------------------


def random_monomial_map(rng):
    """Images of independently drawn total degrees 1..3."""
    n_source = rng.randrange(2, 5)
    n_target = rng.randrange(2, 4)
    src_syms = [f"rk{rng.randrange(10**9)}_{i}" for i in range(n_source)]
    tgt_syms = [f"rt{rng.randrange(10**9)}_{i}" for i in range(n_target)]
    S, _ = polynomial_ring(QQ, *src_syms)
    T, _ = polynomial_ring(QQ, *tgt_syms)
    images = tuple(
        Polynomial.from_terms(
            T,
            [
                (
                    rng.choice(list(iter_monomials(n_target, rng.randrange(1, 4)))),
                    Fraction(rng.choice([c for c in range(-4, 5) if c])),
                )
            ],
        )
        for _ in range(n_source)
    )
    return MonomialMap(S, T, images)


def oracle_fibers(phi, max_degree):
    """Every source monomial of degree 1..max_degree, grouped by directly
    computed image exponents, keeping the multidegrees md with
    |md| <= max_degree * (smallest image degree): those groups are complete."""
    n = len(phi.images)
    image_exps = [img.terms[0][0] for img in phi.images]
    bound = max_degree * min(sum(exp) for exp in image_exps)
    groups = {}
    for t in range(1, max_degree + 1):
        for mono in iter_monomials(n, t):
            key = tuple(
                sum(e * exp[j] for e, exp in zip(mono, image_exps))
                for j in range(len(image_exps[0]))
            )
            if sum(key) <= bound:
                groups.setdefault(key, []).append(mono)
    return groups


def oracle_kernel_blocks(phi, max_degree):
    """Independent brute force: solve each complete fiber's nullspace with
    sympy.  Keyed by multidegree alone."""
    image_coeffs = [img.terms[0][1] for img in phi.images]
    blocks = {}
    for key, monos in oracle_fibers(phi, max_degree).items():
        coeffs = []
        for mono in monos:
            c = Fraction(1)
            for ci, e in zip(image_coeffs, mono):
                c *= Fraction(ci) ** e
            coeffs.append(c)
        row = sympy.Matrix([[sympy.Rational(c) for c in coeffs]])
        basis = row.nullspace()
        if basis:
            blocks[key] = (monos, [list(v) for v in basis])
    return blocks


def poly_to_vector(poly, monos):
    lookup = {m: i for i, m in enumerate(monos)}
    vec = [sympy.Integer(0)] * len(monos)
    for mono, coeff in poly.terms:
        vec[lookup[mono]] = sympy.Rational(coeff)
    return vec


def spans_match(vectors_a, vectors_b, width):
    a = sympy.Matrix(len(vectors_a), width, lambda i, j: vectors_a[i][j]) if vectors_a else sympy.zeros(0, width)
    b = sympy.Matrix(len(vectors_b), width, lambda i, j: vectors_b[i][j]) if vectors_b else sympy.zeros(0, width)
    stacked = a.col_join(b)
    return a.rank() == b.rank() == stacked.rank()


def test_random_maps_match_bruteforce_oracle():
    rng = random.Random(0xC0FFEE)
    for _ in range(8):
        phi = random_monomial_map(rng)
        max_degree = rng.randrange(2, 5)
        got = components_of_kernel(phi, max_degree, minimalize=False)
        blocks = oracle_kernel_blocks(phi, max_degree)
        assert set(got) == set(blocks)
        for md, gens in got.items():
            monos, oracle_basis = blocks[md]
            vectors = [poly_to_vector(g, monos) for g in gens]
            assert spans_match(vectors, oracle_basis, len(monos))


def check_minimal_ranks(phi, max_degree):
    """In every complete fiber, the new generators number the fiber's kernel
    rank minus the rank of lower generators times monomials, and together
    with those products they span the fiber's kernel."""
    got = components_of_kernel(phi, max_degree, minimalize=True)
    fibers = oracle_fibers(phi, max_degree)
    blocks = oracle_kernel_blocks(phi, max_degree)
    for md, monos in fibers.items():
        products = []
        for lower_md, gens in got.items():
            delta = tuple(a - b for a, b in zip(md, lower_md))
            if lower_md == md or min(delta) < 0:
                continue
            for mono in fibers[delta]:
                factor = Polynomial.from_terms(phi.source, [(mono, 1)])
                products.extend(poly_to_vector(g * factor, monos) for g in gens)
        rank = sympy.Matrix(products).rank() if products else 0
        kernel_rank = len(blocks[md][1]) if md in blocks else 0
        new = [poly_to_vector(g, monos) for g in got.get(md, [])]
        assert len(new) == kernel_rank - rank, f"fiber {md}"
        if new:
            assert sympy.Matrix(products + new).rank() == kernel_rank, f"fiber {md}"


def test_minimal_generators_match_rank_oracle():
    rng = random.Random(0xFACADE)
    for _ in range(8):
        check_minimal_ranks(random_monomial_map(rng), rng.randrange(2, 5))
    phi, _ = twisted_conic()
    check_minimal_ranks(phi, 4)
