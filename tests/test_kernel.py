import hashlib
import random
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

from mrdikit.algebra import (
    QQ,
    Polynomial,
    iter_monomials,
    monomials_by_multidegree,
    polynomial_ring,
)
from mrdikit.algebra.polynomials import monomial_key
from mrdikit.errors import ContextMismatchError, ValidationError
from mrdikit.ipc import spawn_pool
from mrdikit.mrdi import (
    DeserializerState,
    GlobalSerializerState,
    Mode,
    SerializerState,
    load,
    parse_text,
    save,
    serialize_text,
)
from mrdikit.workloads import MonomialMap, components_of_kernel, evaluate_map, kernel_instance
from mrdikit.workloads.synthetic import KERNEL_TOTAL_DEGREE
from mrdikit.workloads.kernel import _fiber_codes, kernel_block


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
        MonomialMap(S, T, (s, Polynomial.zero(T)))  # zero image
    # a nonzero constant is a single term: x -> s, y -> 2
    assert MonomialMap(S, T, (s, Polynomial.constant(T, 2))).variable_degrees == ((1,), (0,))


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


def test_kernel_sends_nothing_through_a_pool():
    phi, _ = cyclic_map()
    events = []
    with spawn_pool(2, tap=events.append) as pool:
        pooled = components_of_kernel(phi, 5, pool=pool)
        assert [e for e in events if e[0] == "send"] == []
    assert pooled == components_of_kernel(phi, 5)
    assert list(pooled) == list(components_of_kernel(phi, 5))


def graph_component_starts(supports):
    """First position of each component of the fiber graph, by a search over
    monomials joined when their supports meet."""
    seen, starts = set(), []
    for i in range(len(supports)):
        if i in seen:
            continue
        starts.append(i)
        stack = [i]
        seen.add(i)
        while stack:
            a = stack.pop()
            for b, mask in enumerate(supports):
                if b not in seen and mask & supports[a]:
                    seen.add(b)
                    stack.append(b)
    return starts


def test_kernel_block_matches_graph_search():
    rng = random.Random(0xB10C)
    fibers = [
        [rng.randrange(1, 1 << rng.randrange(1, 10)) for _ in range(rng.randrange(1, 12))]
        for _ in range(300)
    ]
    assert kernel_block(fibers) == [graph_component_starts(f) for f in fibers]


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
    """Every source monomial of degree 0..max_degree, grouped by directly
    computed image exponents, keeping the multidegrees md with
    |md| <= max_degree * (smallest degree of a nonconstant image): those
    groups are complete among the monomials of degree at most max_degree."""
    n = len(phi.images)
    image_exps = [img.terms[0][0] for img in phi.images]
    bound = max_degree * min((sum(exp) for exp in image_exps if any(exp)), default=0)
    groups = {}
    for t in range(max_degree + 1):
        for mono in iter_monomials(n, t):
            key = tuple(
                sum(e * exp[j] for e, exp in zip(mono, image_exps))
                for j in range(len(image_exps[0]))
            )
            if sum(key) <= bound:
                groups.setdefault(key, []).append(mono)
    return groups


def ordered_oracle_fibers(phi, max_degree, least=2):
    """The fibers of ``oracle_fibers`` with ``least`` or more monomials, in
    (|md|, md) order, each listing its monomials in degree-lex order, leading
    first."""
    return sorted(
        (
            (md, sorted(monos, key=monomial_key, reverse=True))
            for md, monos in oracle_fibers(phi, max_degree).items()
            if len(monos) >= least
        ),
        key=lambda item: (sum(item[0]), item[0]),
    )


def decoded(codes, runs):
    """Runs of packed codes as (multidegree, exponent tuples) pairs."""
    return [(codes.multidegree(run[0]), [codes.exponents(c) for c in run]) for run in runs]


def decoded_fibers(phi, max_degree):
    """The kernel's fibers with two or more monomials."""
    return decoded(*_fiber_codes(phi, max_degree))


def test_fibers_equal_the_oracle_in_order():
    rng = random.Random(0xF1BE5)
    cases = [(cyclic_map()[0], 5)]
    cases += [(random_monomial_map(rng), rng.randrange(1, 5)) for _ in range(16)]
    for phi, max_degree in cases:
        assert decoded_fibers(phi, max_degree) == ordered_oracle_fibers(phi, max_degree)


def walk_fibers(phi, max_degree):
    """Every fiber of the kernel's packed walk, single monomials included."""
    codes, _ = _fiber_codes(phi, max_degree)
    return decoded(codes, codes.fibers(codes.walk()))


def map_with_exponents(rng, exponents):
    """A map whose images have the given exponent vectors and seeded nonzero
    rational coefficients."""
    tag = rng.randrange(10**9)
    S, _ = polynomial_ring(QQ, *[f"wx{tag}_{i}" for i in range(len(exponents))])
    T, _ = polynomial_ring(QQ, *[f"ws{tag}_{j}" for j in range(len(exponents[0]))])
    images = tuple(
        Polynomial.from_terms(T, [(exp, Fraction(rng.choice([-5, -2, 1, 3]), rng.randrange(1, 5)))])
        for exp in exponents
    )
    return MonomialMap(S, T, images)


def check_walk(phi, max_degree):
    """The packed walk lists exactly the oracle's fibers, in order; returns them."""
    fibers = walk_fibers(phi, max_degree)
    assert fibers == ordered_oracle_fibers(phi, max_degree, least=1)
    assert decoded_fibers(phi, max_degree) == ordered_oracle_fibers(phi, max_degree)
    return fibers


def random_exponents(rng, targets, low, high):
    """One exponent vector of total degree in [low, high]."""
    return rng.choice(list(iter_monomials(targets, rng.randrange(low, high + 1))))


def test_walk_exponent_equal_to_bound_over_min_weight():
    # x0 -> s and x1 -> s^2 share fibers up to x0^T, whose exponent T fills
    # its complemented field down to 0 (D = T·1 // 1)
    rng = random.Random(0xE1)
    for _ in range(6):
        targets = rng.randrange(1, 4)
        unit = (1,) + (0,) * (targets - 1)
        exps = [unit, (2,) + (0,) * (targets - 1)]
        exps += [random_exponents(rng, targets, 1, 3) for _ in range(rng.randrange(0, 3))]
        max_degree = rng.randrange(2, 6)
        fibers = check_walk(map_with_exponents(rng, exps), max_degree)
        lead = (max_degree,) + (0,) * (len(exps) - 1)
        assert any(monos[0] == lead and len(monos) > 1 for _, monos in fibers)


def test_walk_full_multidegree_field():
    # squarefree images with two copies of s: x0^T has the multidegree
    # coordinate T = bound · (largest entry), which fills its field when
    # T + 1 is a power of two
    rng = random.Random(0xE2)
    for max_degree in (1, 3, 7, 2, 5):
        exps = [(1, 0), (1, 0), (0, 1), (1, 1)]
        exps += [rng.choice([(1, 0), (0, 1), (1, 1)]) for _ in range(rng.randrange(0, 2))]
        phi = map_with_exponents(rng, exps)
        fibers = check_walk(phi, max_degree)
        assert any(md == (max_degree, 0) for md, _ in fibers)
        codes, _ = _fiber_codes(phi, max_degree)
        if max_degree in (1, 3, 7):
            assert codes.field_mask == max_degree  # the coordinate sets every bit


def test_walk_one_variable():
    rng = random.Random(0xE3)
    for _ in range(6):
        targets = rng.randrange(1, 4)
        max_degree = rng.randrange(1, 6)
        exps = [random_exponents(rng, targets, 1, 3)]
        fibers = check_walk(map_with_exponents(rng, exps), max_degree)
        assert [monos for _, monos in fibers] == [[(e,)] for e in range(max_degree + 1)]


def test_walk_all_weights_one():
    rng = random.Random(0xE4)
    for _ in range(8):
        targets = rng.randrange(1, 4)
        exps = [random_exponents(rng, targets, 1, 1) for _ in range(rng.randrange(2, 6))]
        check_walk(map_with_exponents(rng, exps), rng.randrange(1, 5))


def test_walk_variable_heavier_than_the_bound():
    rng = random.Random(0xE5)
    for _ in range(6):
        targets = rng.randrange(1, 3)
        max_degree = rng.randrange(1, 4)
        exps = [random_exponents(rng, targets, 1, 2) for _ in range(rng.randrange(2, 4))]
        d_min = min(sum(e) for e in exps)
        heavy = random_exponents(rng, targets, max_degree * d_min + 1, max_degree * d_min + 3)
        position = rng.randrange(len(exps) + 1)
        exps.insert(position, heavy)
        fibers = check_walk(map_with_exponents(rng, exps), max_degree)
        assert all(mono[position] == 0 for _, monos in fibers for mono in monos)


def test_heavy_variable_beyond_the_bound_never_appears():
    S, (x, y, z) = polynomial_ring(QQ, "x", "y", "z")
    T, (s,) = polynomial_ring(QQ, "s")
    phi = MonomialMap(S, T, (s**3, s, s))
    # weight bound 2 * 1: x alone weighs 3, so the walk never uses it
    groups = monomials_by_multidegree(S, phi.variable_degrees, max_weight=2)
    assert groups == {
        (0,): [(0, 0, 0)],
        (1,): [(0, 1, 0), (0, 0, 1)],
        (2,): [(0, 2, 0), (0, 1, 1), (0, 0, 2)],
    }
    assert decoded_fibers(phi, 2) == ordered_oracle_fibers(phi, 2)
    assert components_of_kernel(phi, 2) == {(1,): [y - z]}
    # at T = 3 x joins the weight-3 fiber, after the degree-3 monomials
    assert decoded_fibers(phi, 3) == ordered_oracle_fibers(phi, 3)
    assert components_of_kernel(phi, 3) == {(1,): [y - z], (3,): [y**3 - x]}


def test_weight_bound_rejects_bad_bounds():
    S, _ = polynomial_ring(QQ, "x", "y")
    with pytest.raises(ValidationError):
        monomials_by_multidegree(S, [(1, 0), (0, 0)], max_weight=3)  # y would be free
    with pytest.raises(ValidationError):
        monomials_by_multidegree(S, [(1, 0), (0, 1)], max_weight=-1)
    with pytest.raises(ValidationError):
        monomials_by_multidegree(S, [(1, 0), (0, 1)], 2, max_weight=3)
    with pytest.raises(ValidationError):
        monomials_by_multidegree(S, [(1, 0), (0, 1)])


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


def with_constant_images(rng, phi):
    """``phi`` with one or two of its images replaced by nonzero rational
    constants (possibly all of them)."""
    images = list(phi.images)
    for i in rng.sample(range(len(images)), rng.randrange(1, 3)):
        c = Fraction(rng.choice([-3, -1, 2, 5]), rng.randrange(1, 4))
        images[i] = Polynomial.constant(phi.target, c)
    return MonomialMap(phi.source, phi.target, tuple(images))


def check_against_oracle(phi, max_degree):
    """Within every complete fiber, the generators together with the
    multiples m·(x_i − c_i) of the zero-multidegree generators (constant
    images), of degree at most ``max_degree``, span exactly the fiber's
    kernel."""
    got = components_of_kernel(phi, max_degree, minimalize=False)
    blocks = oracle_kernel_blocks(phi, max_degree)
    zero = (0,) * len(phi.images[0].terms[0][0])
    linear = got.get(zero, []) if any(not any(d) for d in phi.variable_degrees) else []
    if linear:
        assert set(got) <= set(blocks)
    else:
        assert set(got) == set(blocks)
    for md, (monos, oracle_basis) in blocks.items():
        vectors = [poly_to_vector(g, monos) for g in got.get(md, [])]
        for m in monos:
            if sum(m) < max_degree:
                factor = Polynomial.from_terms(phi.source, [(m, 1)])
                vectors += [poly_to_vector(g * factor, monos) for g in linear]
        assert spans_match(vectors, oracle_basis, len(monos)), f"fiber {md}"


def test_random_maps_match_bruteforce_oracle():
    rng = random.Random(0xC0FFEE)
    for _ in range(8):
        check_against_oracle(random_monomial_map(rng), rng.randrange(2, 5))
    for _ in range(6):
        check_against_oracle(with_constant_images(rng, random_monomial_map(rng)), rng.randrange(2, 5))


def test_constant_images():
    S, (x, y, z, w) = polynomial_ring(QQ, "x", "y", "z", "w")
    T, (s,) = polynomial_ring(QQ, "s")

    def const(c):
        return Polynomial.constant(T, Fraction(c))

    # x -> 2, z -> -2/3: x − 2 and 3z + 2 under the zero multidegree, first
    phi = MonomialMap(S, T, (const(2), s, const(Fraction(-2, 3)), s * s))
    three_z = z.scale(3)
    two = Polynomial.constant(S, 2)
    expected = {(0,): [x - two, three_z + two], (2,): [y * y - w]}
    for minimalize in (True, False):
        got = components_of_kernel(phi, 2, minimalize=minimalize)
        assert got == expected and list(got) == list(expected)
        for gens in got.values():
            assert all(evaluate_map(phi, g).is_zero for g in gens)
    # d_min is taken over the nonconstant images: s^2 alone gives bound 2·2
    phi = MonomialMap(S, T, (const(1), s * s, const(-1), s**3))
    assert components_of_kernel(phi, 3) == {
        (0,): [x - Polynomial.constant(S, 1), z + Polynomial.constant(S, 1)],
        (6,): [y**3 - w * w],
    }
    # every image constant: the map's kernel is generated by x_i − c_i
    phi = MonomialMap(S, T, tuple(const(c) for c in (1, 2, 3, Fraction(1, 2))))
    one = Polynomial.constant(S, 1)
    assert components_of_kernel(phi, 4, minimalize=False) == {
        (0,): [x - one, y - two, z - one.scale(3), w.scale(2) - one],
    }


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


# -- pinned output bytes ----------------------------------------------------------


def kernel_output_cases():
    """(name, map, degree): the synthetic bench map, the golden conic map and
    four seeded random maps."""
    golden = Path(__file__).parent / "golden" / "conic_map.mrdi"
    state = DeserializerState(Mode.LONG_TERM, GlobalSerializerState())
    conic = load(parse_text(golden.read_bytes()), state)
    cases = [("synthetic", kernel_instance(), KERNEL_TOTAL_DEGREE), ("conic", conic, 4)]
    rng = random.Random(0xD16E72)
    cases += [(f"random{i}", random_monomial_map(rng), 4) for i in range(4)]
    return cases


def kernel_output_bytes(phi, degree, minimalize):
    """Long-term bytes of the components in the order the dict holds them."""
    components = components_of_kernel(phi, degree, minimalize=minimalize)
    value = [(list(md), gens) for md, gens in components.items()]
    state = SerializerState(Mode.LONG_TERM, GlobalSerializerState(uuid_seed=0x5EED))
    return serialize_text(save(value, state))


# sha256 of ``kernel_output_bytes``, recorded before the walk packed each
# monomial into one integer.
PINNED_KERNEL_DIGESTS = {
    "synthetic-min": "96ab5161aea1184a43e59b0bd94ccdb153e0e3d365a52a4bec11afce8f61855f",
    "synthetic-full": "dc254c09bde911fa4bdaed087de93372f705d7e67785c3acd0edb6da07c56e46",
    "conic-min": "5867580401e905dcdd9f2965ad87b98fb0d7b53e02d56be3dbe3f468341f81f4",
    "conic-full": "24d80a5085394c91d682102536c1e642858885a2cc37e529d64abdec0ac4bc9c",
    "random0-min": "beec491272de1b30a05cae06a85ce55d93b56069c96b82045d182351b45d6811",
    "random0-full": "8b3f01ca0c5faa9831e062cd432e63d3f7dae3ea73e7c7da989d9616eb98f742",
    "random1-min": "c02ad349ebbd1327ec9b26efc676b9c651448e9f5e12b663aaecba8bc5e062f9",
    "random1-full": "d50c4a2c8af817e11762522a6841fd0ba26ff3c039c83310eed302e6d678c756",
    "random2-min": "3a4937c0da7b7359757c5ac8e602e42d57c9264eed5245ced539a4503bdd09a5",
    "random2-full": "39805f308e5b2180177ebc4cf545d35cdfc66791763794f442abce23da0121d8",
    "random3-min": "b5042871426c2079b8fa985799a1426aaf201ece0d5c0dae8f563fe793966b03",
    "random3-full": "63cf48be926193a1ec91e8fdff876df59669fcab6d429faa4c5c7d12282c864d",
}


def test_kernel_output_bytes_are_pinned():
    got = {
        f"{name}-{'min' if minimalize else 'full'}": hashlib.sha256(
            kernel_output_bytes(phi, degree, minimalize)
        ).hexdigest()
        for name, phi, degree in kernel_output_cases()
        for minimalize in (True, False)
    }
    assert got == PINNED_KERNEL_DIGESTS
