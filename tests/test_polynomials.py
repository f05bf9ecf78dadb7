import random
from fractions import Fraction

import pytest

from mrdikit.algebra import (
    GF,
    QQ,
    ZZ,
    Polynomial,
    polynomial_ring,
    univariate_ring,
)
from mrdikit.errors import ContextMismatchError, ValidationError


def random_poly(rng, ring, max_terms=6, max_exp=4, coeff_range=20, coefficient=None):
    """A random polynomial of ``ring``; ``coefficient(rng)`` draws a
    coefficient, an integer in [-coeff_range, coeff_range] by default."""
    arity = len(ring.symbols) if hasattr(ring, "symbols") else 1
    terms = []
    for _ in range(rng.randrange(max_terms + 1)):
        mono = tuple(rng.randrange(max_exp + 1) for _ in range(arity))
        coeff = rng.randint(-coeff_range, coeff_range) if coefficient is None else coefficient(rng)
        terms.append((mono, coeff))
    return Polynomial.from_terms(ring, terms)


def test_additive_identity():
    R, (x, y) = polynomial_ring(QQ, "x", "y")
    p = x**3 - x * y + Polynomial.constant(R, 1)
    assert p + Polynomial.zero(R) == p


def test_textbook_product():
    R, (x, y) = polynomial_ring(QQ, "x", "y")
    assert (x - y) * (x + y) == x**2 - y**2


def test_parent_mismatch_raises():
    _, (x, _) = polynomial_ring(QQ, "x", "y")
    _, (u, _) = polynomial_ring(QQ, "u", "v")
    with pytest.raises(ContextMismatchError):
        x * u
    with pytest.raises(ContextMismatchError):
        x + u


def test_canonical_form_terms_sorted_and_nonzero():
    R, (x, y) = polynomial_ring(QQ, "x", "y")
    p = Polynomial.from_terms(
        R, [((0, 0), 1), ((3, 0), 1), ((1, 1), -1), ((2, 2), 5), ((2, 2), -5)]
    )
    # degree-lex order, leading monomial first, the cancelled (2,2) term gone
    assert [m for m, _ in p.terms] == [(3, 0), (1, 1), (0, 0)]
    assert all(c != 0 for _, c in p.terms)


def test_zero_polynomial_is_empty_sequence():
    R, (x, _) = polynomial_ring(QQ, "x", "y")
    assert (x - x).terms == ()
    assert (x - x).is_zero


def test_exponent_arity_checked():
    R, _ = polynomial_ring(QQ, "x", "y")
    with pytest.raises(ValidationError):
        Polynomial.from_terms(R, [((1,), 1)])


def test_prime_field_coefficients_normalize():
    R, t = univariate_ring(GF(7), "t")
    p = Polynomial.from_terms(R, [((1,), 9), ((0,), -1)])
    assert p.terms == (((1,), 2), ((0,), 6))
    assert p + p == Polynomial.from_terms(R, [((1,), 4), ((0,), 5)])


def test_nested_ring_coefficients():
    Rt, t = univariate_ring(ZZ, "t")
    Ru, u = univariate_ring(Rt, "u")
    p = u.scale(t) + Polynomial.constant(Ru, 1)  # t*u + 1
    q = p * p
    coefficients = dict(q.terms)
    assert coefficients[(2,)] == t * t
    assert coefficients[(1,)] == t + t
    assert coefficients[(0,)] == Polynomial.constant(Rt, 1)


_Rt, _ = univariate_ring(ZZ, "t")
# ring, and how to draw a random coefficient (an integer when None)
AXIOM_RINGS = {
    "QQ-x-y-z": (polynomial_ring(QQ, "x", "y", "z")[0], None),
    "ZZ-x-y": (polynomial_ring(ZZ, "x", "y")[0], None),
    "GF7-x-y": (polynomial_ring(GF(7), "x", "y")[0], None),
    "ZZ-t-u": (
        univariate_ring(_Rt, "u")[0],
        lambda rng: random_poly(rng, _Rt, max_terms=3, max_exp=2, coeff_range=5),
    ),
}


@pytest.mark.parametrize("name", list(AXIOM_RINGS))
def test_ring_axioms_randomized(name):
    R, coefficient = AXIOM_RINGS[name]
    rng = random.Random(20240817)
    one = Polynomial.constant(R, 1)
    zero = Polynomial.zero(R)
    for _ in range(120):
        a = random_poly(rng, R, coefficient=coefficient)
        b = random_poly(rng, R, coefficient=coefficient)
        c = random_poly(rng, R, coefficient=coefficient)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert a - a == zero
        if name == "GF7-x-y":
            # residues stay in [0, 7), and zero coefficients are dropped
            for p in (-a, a * b, a.scale(3)):
                assert all(1 <= coeff <= 6 for _, coeff in p.terms)
            assert a.scale(7) == zero


def test_pow_matches_repeated_mul():
    rng = random.Random(7)
    R, _ = polynomial_ring(QQ, "x", "y")
    for _ in range(20):
        p = random_poly(rng, R, max_terms=3, max_exp=2, coeff_range=5)
        acc = Polynomial.constant(R, 1)
        for k in range(5):
            assert p**k == acc
            acc = acc * p


def test_structural_equality_tracks_value():
    R, (x, y) = polynomial_ring(QQ, "x", "y")
    a = (x + y) * (x + y)
    b = x**2 + x * y.scale(2) + y**2
    assert a == b
    assert hash(a) == hash(b)


def test_rational_coefficients():
    R, (x,) = polynomial_ring(QQ, "x")
    p = x.scale(Fraction(1, 2)) + Polynomial.constant(R, Fraction(1, 3))
    q = p.scale(6)
    assert q == x.scale(3) + Polynomial.constant(R, 2)


def test_coefficients_are_coerced_into_their_ring():
    Rt, _ = univariate_ring(ZZ, "t")
    Ru, _ = univariate_ring(Rt, "u")
    _, s = univariate_ring(QQ, "s")
    Fr, _ = univariate_ring(GF(7), "r")
    assert Polynomial.constant(Fr, -1).terms == (((0,), 6),)
    assert type(dict(s.terms)[(1,)]) is Fraction and (0,) not in dict(s.terms)
    assert dict(Polynomial.constant(Ru, 3).terms)[(0,)] == Polynomial.constant(Rt, 3)
    rejected = [
        (Rt, True, "not an integer: True"),
        (Rt, Fraction(1, 2), "not an integer: Fraction(1, 2)"),
        (s.parent, "1", "not a rational: '1'"),
        (Fr, 2.0, "not a prime field residue: 2.0"),
        (Ru, s, "polynomial coefficient from a different ring"),
    ]
    for ring, value, message in rejected:
        with pytest.raises(ValidationError) as info:
            Polynomial.constant(ring, value)
        assert str(info.value) == message
