import random
from fractions import Fraction
from itertools import islice
from math import prod

import pytest
import sympy

from mrdikit.algebra import (
    GF,
    QQ,
    ZZ,
    ExactMatrix,
    Polynomial,
    crt_combine_balanced,
    is_prime,
    univariate_ring,
)
from mrdikit.algebra.primes import crt_extend, descending_primes
from mrdikit.algebra.matrices import (
    det_univariate_over_prime_field,
    nullspace_over_Q,
    reduce_mod_prime,
    rref_over_Q,
)
from mrdikit.errors import ValidationError


def cofactor_det(m: ExactMatrix) -> Polynomial:
    """Brute-force determinant by expansion along the first row."""
    n = m.nrows
    assert n == m.ncols
    if n == 0:
        return Polynomial.constant(m.parent, 1)
    if n == 1:
        return m.entry(0, 0)
    total = Polynomial.zero(m.parent)
    for j in range(n):
        entry = m.entry(0, j)
        if entry.is_zero:
            continue
        minor_rows = [
            [m.entry(i, c) for c in range(n) if c != j] for i in range(1, n)
        ]
        minor = ExactMatrix.from_rows(m.parent, minor_rows)
        term = entry * cofactor_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def reduce_poly(p: Polynomial, prime: int) -> Polynomial:
    """``p`` mod ``prime``, as the one entry of a reduced 1x1 matrix."""
    return reduce_mod_prime(ExactMatrix.from_rows(p.parent, [[p]]), prime).entry(0, 0)


def matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """The product of two matrices over one ring, by the schoolbook sums."""
    rows = [
        [sum((x * y for x, y in zip(row, col)), Polynomial.zero(a.parent)) for col in zip(*b.rows())]
        for row in a.rows()
    ]
    return ExactMatrix.from_rows(a.parent, rows)


def random_zz_t_matrix(rng, n, max_deg=3, coeff_range=10**6):
    Rt, _ = univariate_ring(ZZ, "t")
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            terms = [
                ((d,), rng.randint(-coeff_range, coeff_range))
                for d in range(rng.randrange(max_deg + 2))
            ]
            row.append(Polynomial.from_terms(Rt, terms))
        rows.append(row)
    return ExactMatrix.from_rows(Rt, rows)


# -- reduce_mod_prime --------------------------------------------------------


def test_reduce_direct():
    Rt, t = univariate_ring(ZZ, "t")
    m = ExactMatrix.from_rows(Rt, [[t.scale(5) + Polynomial.constant(Rt, 7)]])
    r = reduce_mod_prime(m, 5)
    F, _ = univariate_ring(GF(5), "t")
    assert r.entry(0, 0) == Polynomial.constant(F, 2)


def test_reduce_identity():
    Rt, _ = univariate_ring(ZZ, "t")
    one = Polynomial.constant(Rt, 1)
    zero = Polynomial.zero(Rt)
    m = ExactMatrix.from_rows(Rt, [[one, zero], [zero, one]])
    r = reduce_mod_prime(m, 13)
    F, _ = univariate_ring(GF(13), "t")
    fone = Polynomial.constant(F, 1)
    fzero = Polynomial.zero(F)
    assert r == ExactMatrix.from_rows(F, [[fone, fzero], [fzero, fone]])


def test_reduce_negative_to_nonneg_residue():
    Rt, _ = univariate_ring(ZZ, "t")
    m = ExactMatrix.from_rows(Rt, [[Polynomial.constant(Rt, -1)]])
    r = reduce_mod_prime(m, 7)
    F, _ = univariate_ring(GF(7), "t")
    assert r.entry(0, 0) == Polynomial.constant(F, 6)


def test_reduce_rejects_nonprime():
    Rt, t = univariate_ring(ZZ, "t")
    m = ExactMatrix.from_rows(Rt, [[t]])
    with pytest.raises(ValidationError, match="^10 is not prime$"):
        reduce_mod_prime(m, 10)
    with pytest.raises(ValidationError, match="must be an integer >= 2, got 1$"):
        reduce_mod_prime(m, 1)


def test_reduction_is_ring_homomorphism():
    rng = random.Random(99)
    Rt, _ = univariate_ring(ZZ, "t")
    primes = [3, 7, 101, 65537]
    for _ in range(40):
        p = rng.choice(primes)
        terms_a = [((d,), rng.randint(-50, 50)) for d in range(rng.randrange(5))]
        terms_b = [((d,), rng.randint(-50, 50)) for d in range(rng.randrange(5))]
        a = Polynomial.from_terms(Rt, terms_a)
        b = Polynomial.from_terms(Rt, terms_b)
        assert reduce_poly(a * b, p) == reduce_poly(a, p) * reduce_poly(b, p)
        assert reduce_poly(a + b, p) == reduce_poly(a, p) + reduce_poly(b, p)


def test_matrix_reduction_commutes_with_product():
    rng = random.Random(41)
    for _ in range(10):
        a = random_zz_t_matrix(rng, 3, max_deg=2, coeff_range=30)
        b = random_zz_t_matrix(rng, 3, max_deg=2, coeff_range=30)
        p = rng.choice([5, 11, 101])
        assert reduce_mod_prime(matmul(a, b), p) == matmul(reduce_mod_prime(a, p), reduce_mod_prime(b, p))


# -- determinant over Fp[t] --------------------------------------------------


def test_det_2x2_direct_expansion():
    F, t = univariate_ring(GF(101), "t")
    one = Polynomial.constant(F, 1)
    m = ExactMatrix.from_rows(F, [[t, one], [one, t]])
    det = det_univariate_over_prime_field(m, 2)
    # oracle: 2x2 expansion gives t^2 - 1 = t^2 + 100 over F101
    assert det == t * t - one
    assert det.terms == (((2,), 1), ((0,), 100))


def test_det_identity():
    F, _ = univariate_ring(GF(101), "t")
    one = Polynomial.constant(F, 1)
    zero = Polynomial.zero(F)
    m = ExactMatrix.from_rows(
        F, [[one, zero, zero], [zero, one, zero], [zero, zero, one]]
    )
    assert det_univariate_over_prime_field(m, 0) == one


def test_det_zero_row():
    F, t = univariate_ring(GF(101), "t")
    zero = Polynomial.zero(F)
    m = ExactMatrix.from_rows(F, [[t, t], [zero, zero]])
    assert det_univariate_over_prime_field(m, 2).is_zero


def test_det_requires_enough_points():
    F, t = univariate_ring(GF(3), "t")
    m = ExactMatrix.from_rows(F, [[t]])
    with pytest.raises(ValidationError):
        det_univariate_over_prime_field(m, 5)


def test_det_rejects_nonsquare():
    F, t = univariate_ring(GF(101), "t")
    m = ExactMatrix.from_rows(F, [[t, t]])
    with pytest.raises(ValidationError):
        det_univariate_over_prime_field(m, 1)


def test_det_matches_bruteforce_oracle_mod_p():
    rng = random.Random(20240818)
    for _ in range(15):
        n = rng.randrange(1, 6)
        m = random_zz_t_matrix(rng, n, max_deg=3, coeff_range=40)
        p = rng.choice([10007, 65537, 2**31 - 1])
        degree_bound = sum(
            max(m.entry(i, j).degree() for j in range(n)) for i in range(n)
        )
        degree_bound = max(degree_bound, 0)
        expected = reduce_poly(cofactor_det(m), p)
        got = det_univariate_over_prime_field(reduce_mod_prime(m, p), degree_bound)
        assert got == expected


# -- balanced CRT ------------------------------------------------------------


def test_crt_examples():
    assert crt_combine_balanced([1, 4], [3, 5]) == 4
    assert crt_combine_balanced([2, 4], [3, 5]) == -1
    assert crt_combine_balanced([0], [97]) == 0


def test_crt_rejects_noncoprime():
    with pytest.raises(ValidationError):
        crt_combine_balanced([1, 2], [6, 4])
    with pytest.raises(ValidationError):
        crt_combine_balanced([1, 2, 3], [3, 5, 9])  # 9 shares 3 with the product 15


def test_crt_rejects_length_mismatch():
    with pytest.raises(ValidationError):
        crt_combine_balanced([1], [3, 5])


def balanced(value, modulus):
    value %= modulus
    return value - modulus if 2 * value > modulus else value


def test_crt_extend_recovers_the_balanced_values():
    # The step modulus q is one prime or, as for a pass of primes, a product
    # of several.  The values themselves are the ground truth, since
    # crt_combine_balanced folds the step under test.
    rng = random.Random(86)
    moduli = list(islice(descending_primes(2**31), 5)) + [3, 5, 7, 10007]
    for _ in range(300):
        factors = rng.sample(moduli, rng.randrange(1, 6))
        split = rng.randrange(len(factors))  # modulus 1 when 0
        modulus, q = prod(factors[:split]), prod(factors[split:])
        extended = modulus * q
        # The ends of the balanced range (-E/2, E/2] for E = modulus * q, the
        # values next to them, and random ones.
        low, high = -((extended - 1) // 2), extended // 2
        values = [high, high - 1, low, low + 1] + [rng.randint(low, high) for _ in range(8)]
        lifted = [balanced(v, modulus) for v in values]
        residues = [v % q for v in values]
        assert crt_extend(lifted, modulus, residues, q) == values
    for q in (10007, 5 * 10007):
        with pytest.raises(ValidationError, match="not coprime"):
            crt_extend([0], 3 * 10007, [1], q)


def test_is_prime_rejects_the_twelve_witness_pseudoprime():
    # psi_12 = 399165290221 * 798330580441 is a strong pseudoprime to every
    # prime base up to 37; base 41 exposes it.
    assert 399165290221 * 798330580441 == 318665857834031151167461
    assert not is_prime(318665857834031151167461)
    with pytest.raises(ValidationError):
        GF(318665857834031151167461)
    assert is_prime(2**61 - 1)


def test_is_prime_refuses_moduli_past_its_deterministic_range():
    bound = 3317044064679887385961981  # psi_13, a strong pseudoprime to bases 2..41
    assert is_prime(3317044064679887385961813)  # the largest prime below the bound
    assert not is_prime(bound - 1)
    for n in (bound, bound + 2, 2**127 - 1):
        with pytest.raises(ValidationError, match="not decided"):
            is_prime(n)
    with pytest.raises(ValidationError):
        GF(bound)


def test_is_prime_with_three_witnesses_agrees_with_sympy():
    # Below 4759123141 the witnesses 2, 7 and 61 decide; 61 itself reaches
    # the witness loop, 3215031751 is a strong pseudoprime to 2, 3, 5 and 7,
    # and 4759123129 is the largest prime below the bound.
    rng = random.Random(61)
    small = range(100_000)
    large = [rng.randrange(2**31) for _ in range(20_000)] + [3215031751, 4759123129]
    for n in [*small, *large]:
        assert is_prime(n) == sympy.isprime(n), n
    assert not is_prime(4759123141)  # the bound, 48781 * 97561: strong pseudoprime to 2, 7, 61


def test_crt_recovers_signed_integers():
    rng = random.Random(33)
    primes = []
    candidate = 2**31 - 1
    while len(primes) < 12:
        if is_prime(candidate):
            primes.append(candidate)
        candidate -= 2
    for _ in range(50):
        r = rng.randint(-(10**50), 10**50)
        chosen = []
        product = 1
        for p in primes:
            chosen.append(p)
            product *= p
            if product > 2 * abs(r):
                break
        assert crt_combine_balanced([r % p for p in chosen], chosen) == r
        # One incremental step: the balanced lift modulo the composite product
        # of all but the last prime (often negative), extended by the last.
        if len(chosen) > 2:
            head, last = chosen[:-1], chosen[-1]
            previous = crt_combine_balanced([r % p for p in head], head)
            modulus = product // last
            assert crt_combine_balanced([previous, r % last], [modulus, last]) == r


# -- rational row reduction ---------------------------------------------------


def qmatrix(rows):
    return ExactMatrix.from_rows(QQ, [[Fraction(v) for v in row] for row in rows])


def test_rref_identity():
    m = qmatrix([[1, 0], [0, 1]])
    reduced, pivots = rref_over_Q(m)
    assert reduced == m
    assert pivots == (0, 1)


def test_rref_rank_one():
    reduced, pivots = rref_over_Q(qmatrix([[1, 2], [2, 4]]))
    assert reduced == qmatrix([[1, 2], [0, 0]])
    assert pivots == (0,)


def test_rref_row_swap():
    reduced, pivots = rref_over_Q(qmatrix([[0, 1], [1, 0]]))
    assert reduced == qmatrix([[1, 0], [0, 1]])
    assert pivots == (0, 1)


def test_nullspace_identity_empty():
    assert nullspace_over_Q(qmatrix([[1, 0], [0, 1]])) == []


def test_nullspace_forced_vector():
    assert nullspace_over_Q(qmatrix([[1, 1]])) == [(1, -1)]


def test_nullspace_all_ones_row():
    m = qmatrix([[1, 1, 1]])
    basis = nullspace_over_Q(m)
    assert len(basis) == 2
    for v in basis:
        assert sum(v) == 0  # the row annihilates each basis vector


def test_nullspace_vectors_are_primitive_and_sign_fixed():
    m = qmatrix([[2, 4, 6], [1, 2, 3]])
    basis = nullspace_over_Q(m)
    assert len(basis) == 2
    for v in basis:
        assert all(isinstance(c, int) for c in v)
        lead = next(c for c in v if c != 0)
        assert lead > 0


def test_nullspace_randomized_exactness():
    rng = random.Random(5150)
    for _ in range(25):
        nrows = rng.randrange(1, 5)
        ncols = rng.randrange(1, 6)
        m = qmatrix(
            [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
        )
        basis = nullspace_over_Q(m)
        _, pivots = rref_over_Q(m)
        assert len(basis) == ncols - len(pivots)
        for v in basis:
            for i in range(nrows):
                assert sum(m.entry(i, j) * v[j] for j in range(ncols)) == 0
