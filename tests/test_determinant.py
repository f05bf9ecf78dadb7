import functools
import random
from itertools import islice
from math import prod

import pytest
import sympy

from mrdikit.algebra import (
    ZZ,
    ExactMatrix,
    Polynomial,
    descending_primes,
    reduce_poly_mod_prime,
    univariate_ring,
)
from mrdikit.algebra.polynomials import dense_coefficients
from mrdikit.errors import ValidationError
from mrdikit.ipc import spawn_pool
from mrdikit.ipc.framing import Call
from mrdikit.mrdi import (
    DeserializerState,
    GlobalSerializerState,
    Mode,
    SerializerState,
    load,
    save,
    serialize_text,
)
from mrdikit.workloads import (
    coefficient_bound,
    degree_bound,
    det_mod_p,
    det_mod_primes,
    modular_determinant,
)
from mrdikit.algebra import matrices, primes
from mrdikit.algebra.matrices import PRIME_GROUP
from mrdikit.algebra.primes import crt_combine_balanced
from mrdikit.workloads import determinant
from test_linalg import cofactor_det, random_zz_t_matrix


def zz_t():
    return univariate_ring(ZZ, "t")


@pytest.fixture
def multimodular(monkeypatch):
    """Pins ``modular_determinant`` to the multimodular path."""
    monkeypatch.setattr(determinant, "BAREISS_RATIO", 0.0)


@pytest.fixture
def bareiss(monkeypatch):
    """Pins ``modular_determinant`` to the Bareiss path."""
    monkeypatch.setattr(determinant, "BAREISS_RATIO", float("inf"))


@pytest.fixture
def primes_used(monkeypatch):
    """The primes that ``det_mod_primes`` got on the serial path, in order.

    The recording wrapper keeps the function's ``__name__``, so the pooled
    path still sends calls to the registered ``det_mod_primes``."""
    used = []
    real = determinant.det_mod_primes

    @functools.wraps(real)
    def recording(matrix, primes_):
        used.extend(primes_)
        return real(matrix, primes_)

    monkeypatch.setattr(determinant, "det_mod_primes", recording)
    return used


def sent_primes(events, pool):
    """The ``det_mod_primes`` calls a tap saw sent, and their primes in order."""
    calls = [msg for direction, _, msg in events if direction == "send" and isinstance(msg, Call)]
    state = DeserializerState(Mode.IPC, pool.global_state)
    return calls, [p for msg in calls for p in load(msg.args, state)[1]]


def test_degree_bound_sums_row_maxima():
    Rt, t = zz_t()
    one = Polynomial.constant(Rt, 1)
    m = ExactMatrix.from_rows(Rt, [[t**3, one], [t, t**2]])
    assert degree_bound(m) == 3 + 2


@pytest.mark.parametrize("path", ["bareiss", "multimodular"])
def test_degree_bound_takes_the_smaller_of_rows_and_columns(path, request):
    request.getfixturevalue(path)
    Rt, t = zz_t()
    one, two = Polynomial.constant(Rt, 1), Polynomial.constant(Rt, 2)
    # Rows sum to 5 + 5, columns to 5 + 0; det is t^5.
    m = ExactMatrix.from_rows(Rt, [[t**5, one], [t**5, two]])
    assert degree_bound(m) == 5
    assert modular_determinant(m) == t**5
    assert degree_bound(ExactMatrix.from_rows(Rt, [[t**5, t**5], [one, two]])) == 5
    assert degree_bound(ExactMatrix(Rt, 0, 0, [])) == 0


def test_coefficient_bound_identity():
    Rt, _ = zz_t()
    one = Polynomial.constant(Rt, 1)
    zero = Polynomial.zero(Rt)
    m = ExactMatrix.from_rows(
        Rt, [[one, zero, zero], [zero, one, zero], [zero, zero, one]]
    )
    assert coefficient_bound(m) == 1


def test_coefficient_bound_toy_matrix():
    Rt, t = zz_t()
    one = Polynomial.constant(Rt, 1)
    m = ExactMatrix.from_rows(Rt, [[t, one], [one, t]])
    assert coefficient_bound(m) == 4  # row sums 2 * 2; det coefficients are +-1


def test_zero_row_short_circuits():
    Rt, t = zz_t()
    zero = Polynomial.zero(Rt)
    m = ExactMatrix.from_rows(Rt, [[t, t], [zero, zero]])
    assert coefficient_bound(m) == 0
    assert modular_determinant(m).is_zero


def test_bounds_reject_nonsquare():
    Rt, t = zz_t()
    m = ExactMatrix.from_rows(Rt, [[t, t]])
    with pytest.raises(ValidationError):
        coefficient_bound(m)
    with pytest.raises(ValidationError):
        modular_determinant(m)


def test_toy_determinant():
    Rt, t = zz_t()
    one = Polynomial.constant(Rt, 1)
    m = ExactMatrix.from_rows(Rt, [[t, one], [one, t]])
    assert modular_determinant(m) == t * t - one


def test_identity_determinant():
    Rt, _ = zz_t()
    one = Polynomial.constant(Rt, 1)
    zero = Polynomial.zero(Rt)
    rows = [[one if i == j else zero for j in range(4)] for i in range(4)]
    m = ExactMatrix.from_rows(Rt, rows)
    assert modular_determinant(m) == one


def test_matches_cofactor_oracle_randomized():
    rng = random.Random(0xDE7)
    for _ in range(12):
        n = rng.randrange(1, 6)
        m = random_zz_t_matrix(rng, n, max_deg=4, coeff_range=10**6)
        expected = cofactor_det(m)
        got = modular_determinant(m)
        assert got == expected
        bound = coefficient_bound(m)
        assert all(abs(c) <= bound for _, c in got.terms)


def test_multimodular_primes_clear_the_bound(multimodular, primes_used):
    Rt, t = zz_t()
    one = Polynomial.constant(Rt, 1)
    m = ExactMatrix.from_rows(Rt, [[t, one], [one, t]])
    modular_determinant(m)
    assert degree_bound(m) == 2
    assert coefficient_bound(m) == 4
    assert len(primes_used) >= 1
    assert all(p > degree_bound(m) for p in primes_used)
    assert len(set(primes_used)) == len(primes_used)
    assert prod(primes_used) > 2 * coefficient_bound(m)


def test_prime_independence(multimodular, primes_used, monkeypatch):
    rng = random.Random(77)
    m = random_zz_t_matrix(rng, 4, max_deg=3, coeff_range=10**4)

    def primes_skipping(k):
        def stream(start_below):
            it = descending_primes(start_below)
            for _ in range(k):
                next(it)
            return it

        return stream

    monkeypatch.setattr(determinant, "descending_primes", primes_skipping(0))
    first = modular_determinant(m)
    first_primes = primes_used[:]
    monkeypatch.setattr(determinant, "descending_primes", primes_skipping(25))
    second = modular_determinant(m)
    assert first == second
    assert first_primes and not set(first_primes) & set(primes_used[len(first_primes) :])


def test_prime_streams_reuse_found_primes(monkeypatch):
    monkeypatch.setattr(primes, "_FOUND", {})
    calls = []
    real_is_prime = primes.is_prime
    monkeypatch.setattr(primes, "is_prime", lambda n: calls.append(n) or real_is_prime(n))
    expected = [sympy.prevprime(2**31)]
    while len(expected) < 50:
        expected.append(sympy.prevprime(expected[-1]))

    assert list(islice(descending_primes(2**31), 40)) == expected[:40]
    tested = len(calls)
    assert list(islice(descending_primes(2**31), 40)) == expected[:40]
    assert len(calls) == tested  # served from the primes already found
    first, second = descending_primes(2**31), descending_primes(2**31)
    interleaved = [(next(first), next(second)) for _ in range(50)]
    assert interleaved == [(p, p) for p in expected]
    assert len(set(calls)) == len(calls)  # no number tested twice
    for start in (0, 2, 3, 4, 12):
        assert list(descending_primes(start)) == list(descending_primes(start))
        assert list(descending_primes(start)) == sorted(sympy.primerange(2, start), reverse=True)


def test_heuristic_mode_agrees():
    rng = random.Random(78)
    for _ in range(5):
        m = random_zz_t_matrix(rng, 3, max_deg=3, coeff_range=10**6)
        assert modular_determinant(m, heuristic=True) == modular_determinant(m)


def test_heuristic_matches_provable_on_a_many_prime_lift(multimodular, primes_used):
    # Coefficients near 10^40 put det coefficients near 10^245, so the lift
    # runs over more than twenty primes.
    rng = random.Random(80)
    Rt, _ = zz_t()
    rows = [
        [
            Polynomial.from_terms(Rt, [((d,), rng.randint(-(10**40), 10**40)) for d in range(5)])
            for _ in range(6)
        ]
        for _ in range(6)
    ]
    m = ExactMatrix.from_rows(Rt, rows)
    provable = modular_determinant(m)
    primes_used.clear()
    assert modular_determinant(m, heuristic=True) == provable
    assert len(primes_used) >= 20
    with spawn_pool(2) as pool:
        assert modular_determinant(m, pool=pool, heuristic=True) == provable


def test_det_mod_p_rejects_composite_modulus():
    Rt, t = zz_t()
    m = ExactMatrix.from_rows(Rt, [[t]])
    with pytest.raises(ValidationError):
        det_mod_p(m, 10005)


def test_det_mod_p_is_the_modular_image():
    rng = random.Random(79)
    m = random_zz_t_matrix(rng, 3, max_deg=2, coeff_range=50)
    p = 10007
    assert det_mod_p(m, p) == reduce_poly_mod_prime(cofactor_det(m), p)


def oracle_images(m, primes):
    det = cofactor_det(m)
    length = degree_bound(m) + 1
    return [dense_coefficients(reduce_poly_mod_prime(det, p), length) for p in primes]


def test_grouped_images_equal_per_prime_images():
    rng = random.Random(81)
    stream = descending_primes(2**31)
    primes = [next(stream) for _ in range(8)] + [10007, 65537]
    for _ in range(10):
        m = random_zz_t_matrix(rng, rng.randrange(1, 6), max_deg=3, coeff_range=10**12)
        group = rng.sample(primes, rng.randrange(1, len(primes) + 1))
        expected = oracle_images(m, group)
        assert det_mod_primes(m, group) == expected
        length = degree_bound(m) + 1
        assert [dense_coefficients(det_mod_p(m, p), length) for p in group] == expected


def test_grouped_images_without_a_unit_pivot():
    # The first column vanishes mod 10007 but not mod 10009, so at every
    # evaluation point no entry of it is a unit mod 10007 * 10009 and the
    # elimination finishes prime by prime.
    rng = random.Random(82)
    Rt, _ = zz_t()
    base = random_zz_t_matrix(rng, 4, max_deg=2, coeff_range=10**4)
    rows = base.rows()
    for row in rows:
        row[0] = row[0].scale(10007) + Polynomial.constant(Rt, 10007 * rng.randint(1, 9))
    m = ExactMatrix.from_rows(Rt, rows)
    images = det_mod_primes(m, [10007, 10009])
    assert images == oracle_images(m, [10007, 10009])
    assert not any(images[0]) and any(images[1])
    # A third column divisible by 10009 stays so through the first two
    # steps, so the prime-by-prime finish starts from a partly eliminated matrix.
    rows = [list(r) for r in base.rows()]
    for row in rows:
        row[2] = row[2].scale(10009)
    m = ExactMatrix.from_rows(Rt, rows)
    assert det_mod_primes(m, [10007, 10009, 65537]) == oracle_images(m, [10007, 10009, 65537])


def test_grouped_images_validate_the_group():
    Rt, t = zz_t()
    m = ExactMatrix.from_rows(Rt, [[t**3]])
    for bad in ([10007, 10005], [10007, 10007], [10007, 3]):
        with pytest.raises(ValidationError):
            det_mod_primes(m, bad)


def test_passes_split_the_primes_without_changing_the_images():
    # 1 and PRIME_GROUP primes take one pass; PRIME_GROUP + 1 take two and
    # 2 * PRIME_GROUP + 3 take three, all served by one evaluation.
    rng = random.Random(85)
    m = random_zz_t_matrix(rng, 4, max_deg=3, coeff_range=10**12)
    length = degree_bound(m) + 1
    stream = descending_primes(2**31)
    pool_of_primes = [next(stream) for _ in range(2 * PRIME_GROUP + 3)]
    for count in (1, PRIME_GROUP, PRIME_GROUP + 1, 2 * PRIME_GROUP + 3):
        group = pool_of_primes[:count]
        expected = [dense_coefficients(det_mod_p(m, p), length) for p in group]
        assert det_mod_primes(m, group) == expected


def balanced(value, modulus):
    value %= modulus
    return value - modulus if 2 * value > modulus else value


def test_extend_lift_matches_the_per_coefficient_crt():
    rng = random.Random(86)
    stream = descending_primes(2**31)
    moduli = [next(stream) for _ in range(5)] + [3, 5, 7, 10007]
    for _ in range(300):
        factors = rng.sample(moduli, rng.randrange(1, 5))
        p = factors.pop()
        modulus = prod(factors)
        extended = modulus * p
        # The ends of the balanced range (-E/2, E/2] for E = modulus * p, the
        # values next to them, and random ones.
        low, high = -((extended - 1) // 2), extended // 2
        values = [high, high - 1, low, low + 1] + [rng.randint(low, high) for _ in range(8)]
        lifted = [balanced(v, modulus) for v in values]
        residues = [v % p for v in values]
        if modulus == 1:
            expected = [crt_combine_balanced([r], [p]) for r in residues]
        else:
            expected = [
                crt_combine_balanced([x, r], [modulus, p]) for x, r in zip(lifted, residues)
            ]
        assert expected == values
        assert determinant._extend_lift(lifted, modulus, residues, p) == expected
    with pytest.raises(ValidationError):
        determinant._extend_lift([0], 3 * 10007, [1], 10007)


def test_one_call_per_worker_per_round(multimodular, primes_used):
    Rt, t = zz_t()
    one = Polynomial.constant(Rt, 1)
    few = ExactMatrix.from_rows(Rt, [[t + one, one.scale(2)], [one.scale(3), t]])  # one prime
    many = random_zz_t_matrix(random.Random(87), 4, max_deg=2, coeff_range=10**30)

    def encoded(det):
        state = SerializerState(Mode.LONG_TERM, GlobalSerializerState(uuid_seed=7))
        return serialize_text(save(det, state))

    serial, used = {}, {}
    for name, m in (("few", few), ("many", many)):
        primes_used.clear()
        serial[name] = encoded(modular_determinant(m))
        used[name] = list(primes_used)
    for k in (1, 2, 3):
        events = []
        with spawn_pool(k, tap=events.append) as pool:
            for name, m in (("few", few), ("many", many)):
                events.clear()
                got = modular_determinant(m, pool=pool)
                calls, sent = sent_primes(events, pool)
                assert all(msg.fn == "det_mod_primes" for msg in calls)
                assert len(calls) == min(k, len(used[name]))
                assert sent == used[name]
                assert encoded(got) == serial[name]
    assert len(used["few"]) == 1 and len(used["many"]) > 3


def test_serial_and_pooled_results_are_byte_identical(multimodular, primes_used):
    rng = random.Random(84)
    m = random_zz_t_matrix(rng, 5, max_deg=3, coeff_range=10**25)

    def encoded(det):
        state = SerializerState(Mode.LONG_TERM, GlobalSerializerState(uuid_seed=7))
        return serialize_text(save(det, state))

    for heuristic in (False, True):
        primes_used.clear()
        serial = encoded(modular_determinant(m, heuristic=heuristic))
        for workers in (1, 2, 4):
            events = []
            with spawn_pool(workers, tap=events.append) as pool:
                got = modular_determinant(m, pool=pool, heuristic=heuristic)
                _, sent = sent_primes(events, pool)
            assert encoded(got) == serial
            assert sent == primes_used


# -- the Bareiss path ------------------------------------------------------------


def special_integer_matrices(rng):
    """Square integer matrices that exercise the elimination's branches: zero
    leading pivots that need a row swap, zero second pivots, singular
    matrices, a zero row, every size from 0x0 to 7x7 (odd sizes end on a 1x1
    block, even ones on a 2x2 block) and pivots that vanish only in a later
    pass."""
    yield []
    yield [[rng.randint(-99, 99)]]
    yield [[0, 1, 2], [0, 3, 4], [5, 6, 7]]  # two swaps reach the pivot 5
    yield [[0, 2], [3, 4]]
    yield [[1, 2, 3], [2, 4, 6], [7, 8, 9]]  # dependent rows
    yield [[1, 2, 3], [4, 5, 6], [0, 0, 0]]  # zero row
    yield [[1, 2, 3], [2, 4, 7], [3, 1, 1]]  # zero second pivot in row 1, row 2 fixes it
    # Zero second pivot in rows 1 and 2, row 3 fixes it.
    yield [[1, 2, 3, 4], [2, 4, 5, 6], [3, 6, 7, 1], [1, 3, 2, 5]]
    # Zero first pivot, and the row swapped down gives a zero second pivot:
    # both swaps in one pass.
    yield [[0, 0, 2, 3], [2, 4, 1, 5], [1, 3, 7, 1], [3, 5, 1, 2]]
    # Column 1 is twice column 0: the second pivot is zero in every row,
    # so the matrix is singular after one pass.
    yield [[1, 2, 3, 4], [2, 4, 5, 6], [3, 6, 7, 8], [4, 8, 9, 1]]
    yield [[0, 0, 1], [0, 0, 2], [0, 0, 3]]  # zero column 0
    for n in range(2, 8):
        yield [[rng.randint(-(10**12), 10**12) for _ in range(n)] for _ in range(n)]
        # The leading 3x3 minor vanishes (row 2 = row 0 + row 1 on columns
        # 0..2), so the second pass needs a row swap for its first pivot, and
        # for n >= 5 the leading 4x4 minor vanishes too (row 3 = row 0 - row
        # 2 on columns 0..3), which can zero its second pivot.
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if n >= 4:
            rows[2][:3] = [a + b for a, b in zip(rows[0][:3], rows[1][:3])]
        if n >= 5:
            rows[3][:4] = [a - b for a, b in zip(rows[0][:4], rows[2][:4])]
        yield rows
    for _ in range(60):
        n = rng.randrange(1, 8)
        rows = [
            [rng.choice((0, 0, rng.randint(-(10**9), 10**9))) for _ in range(n)] for _ in range(n)
        ]
        if n > 1 and rng.random() < 0.3:
            rows[rng.randrange(n)] = list(rows[rng.randrange(n)])  # often singular
        yield rows


def test_bareiss_scalar_determinants_match_sympy():
    for rows in special_integer_matrices(random.Random(88)):
        expected = sympy.Matrix(rows).det() if rows else 1
        assert matrices._det_bareiss([list(r) for r in rows]) == expected, rows


def direct_evaluations(entries, n, points):
    for x in points:
        values = [sum(c * x**d for d, c in enumerate(e)) for e in entries]
        yield [values[i * n : (i + 1) * n] for i in range(n)]


def test_packed_evaluations_equal_direct_evaluation():
    huge = 10**4400 + 3  # longer than the 4300-digit text conversion limit
    cases = [
        # Mixed lengths, a zero entry and negative, zero and positive points.
        ([[1, -2, 3], [], [0, 0, 5], [-7]], 2, [-5, -1, 0, 3, 8]),
        ([[4, 5]], 1, [-3]),  # a single, negative point
        ([[4, 5]], 1, [0]),  # a single point at 0
        ([[], [], [], []], 2, [-2, 0, 2]),  # every entry zero
        ([[0, 0], [0], [0, 0, 0], []], 2, range(-3, 4)),
        ([], 0, [1, -1]),  # 0x0
        ([[1, 2]], 1, []),  # no points
        ([[huge, -huge], [-huge, 1], [2, huge * 3], [0, -1]], 2, [-9, 0, 9]),
        # Every value at the largest |point| reaches the field bound, with
        # either sign, at and around byte boundaries.
        ([[127] * 3, [-127] * 3, [128] * 3, [-128] * 3], 2, [-1, 1]),
        ([[255] * 4, [-255] * 4, [2**15] * 4, [1 - 2**16] * 4], 2, [-3, 3]),
    ]
    rng = random.Random(95)
    for _ in range(40):
        n = rng.randrange(1, 5)
        bits = rng.choice((1, 7, 8, 64, 300))
        entries = [
            [rng.randint(-(2**bits), 2**bits) for _ in range(rng.randrange(7))] for _ in range(n * n)
        ]
        points = rng.sample(range(-50, 51), rng.randrange(1, 6))
        cases.append((entries, n, points))
    for entries, n, points in cases:
        expected = list(direct_evaluations(entries, n, points))
        assert list(matrices._evaluations(entries, n, points)) == expected


def test_newton_interpolation_matches_sympy():
    rng = random.Random(89)
    t = sympy.Symbol("t")
    for start in (-7, -3, 0, 1, 5):
        for degree in (0, 1, 2, 5, 9):
            coefficients = [rng.randint(-(10**30), 10**30) for _ in range(degree + 1)]
            points = range(start, start + degree + 1)
            values = [sum(c * x**k for k, c in enumerate(coefficients)) for x in points]
            expected = sympy.interpolate(list(zip(points, values)), t)
            got = matrices.interpolate_at_consecutive_points(start, values)
            assert sympy.expand(expected - sum(c * t**k for k, c in enumerate(got))) == 0
            assert got == coefficients
    assert matrices.interpolate_at_consecutive_points(-4, []) == []


def special_zz_t_matrices(rng):
    """ZZ[t] matrices whose evaluations hit the same branches, plus constant
    (D = 0) and random ones."""
    Rt, t = zz_t()

    def c(v):
        return Polynomial.constant(Rt, v)

    zero = Polynomial.zero(Rt)
    yield ExactMatrix.from_rows(Rt, [[t * t - t, c(1)], [c(1), t]])  # pivot 0 at t = 0, 1
    yield ExactMatrix.from_rows(Rt, [[zero, t, c(2)], [zero, c(3), t], [t + c(5), c(6), c(7)]])
    yield ExactMatrix.from_rows(Rt, [[t, t * t], [t.scale(2), (t * t).scale(2)]])  # singular
    yield ExactMatrix.from_rows(Rt, [[c(3), c(4)], [c(5), c(-7)]])  # D = 0
    yield ExactMatrix.from_rows(Rt, [[t.scale(-5) + c(2)]])
    yield ExactMatrix.from_rows(Rt, [[c(2**100 + 7)]])
    for _ in range(8):
        yield random_zz_t_matrix(rng, rng.randrange(1, 6), max_deg=4, coeff_range=10**9)


def test_det_univariate_at_points_matches_the_oracle():
    rng = random.Random(90)
    for m in special_zz_t_matrices(rng):
        det = cofactor_det(m)
        points = list(range(-4, 5))
        expected = [sum(c * x ** e[0] for e, c in det.terms) for x in points]
        assert matrices.det_univariate_at_points(m, points) == expected
    Rt, t = zz_t()
    with pytest.raises(ValidationError):
        matrices.det_univariate_at_points(ExactMatrix.from_rows(Rt, [[t, t]]), [0])


@pytest.mark.parametrize("path", ["bareiss", "multimodular"])
def test_both_paths_match_the_cofactor_oracle(path, request, primes_used):
    request.getfixturevalue(path)
    rng = random.Random(91)
    for m in special_zz_t_matrices(rng):
        primes_used.clear()
        assert modular_determinant(m) == cofactor_det(m)
        assert bool(primes_used) == (path == "multimodular")


def test_bareiss_point_shares_are_byte_identical_at_every_worker_count(bareiss):
    # D + 1 is 7, 2 and 1 points: 3 and 4 workers exceed the points of the
    # last two, which then take one call per point.
    rng = random.Random(92)
    Rt, t = zz_t()
    three, five = Polynomial.constant(Rt, 3), Polynomial.constant(Rt, 5)
    matrices_ = [
        random_zz_t_matrix(rng, 3, max_deg=2, coeff_range=10**20),
        ExactMatrix.from_rows(Rt, [[t, three], [five, three]]),
        ExactMatrix.from_rows(Rt, [[three]]),
    ]

    def encoded(det):
        state = SerializerState(Mode.LONG_TERM, GlobalSerializerState(uuid_seed=7))
        return serialize_text(save(det, state))

    serial = [encoded(modular_determinant(m)) for m in matrices_]
    for k in (1, 2, 3, 4):
        events = []
        with spawn_pool(k, tap=events.append) as pool:
            for m, expected in zip(matrices_, serial):
                events.clear()
                got = modular_determinant(m, pool=pool)
                calls = [
                    msg
                    for direction, _, msg in events
                    if direction == "send" and isinstance(msg, Call)
                ]
                bound = degree_bound(m)
                assert [msg.fn for msg in calls] == ["det_univariate_at_points"] * min(k, bound + 1)
                # Each call carries the matrix and one contiguous range of
                # the points, the ranges' sizes differing by at most one.
                state = DeserializerState(Mode.IPC, pool.global_state)
                args = [load(msg.args, state) for msg in calls]
                assert all(matrix == m for matrix, _ in args)
                shares = sorted(share for _, share in args)
                points = [x for share in shares for x in share]
                assert points == list(range(-(bound // 2), bound - bound // 2 + 1))
                assert all(share == list(range(share[0], share[-1] + 1)) for share in shares)
                assert max(map(len, shares)) - min(map(len, shares)) <= 1
                assert encoded(got) == expected


def test_heuristic_is_exact_when_the_first_primes_divide_the_determinant(
    monkeypatch, primes_used
):
    stream = descending_primes(2**31)
    p123 = next(stream) * next(stream) * next(stream)
    Rt, t = zz_t()
    one_by_one = ExactMatrix.from_rows(Rt, [[Polynomial.constant(Rt, p123)]])
    assert modular_determinant(one_by_one, heuristic=True) == Polynomial.constant(Rt, p123)
    # On the multimodular path, the scaled row makes every image mod the
    # first three primes zero.  The scaled coefficients bring the matrix
    # below the rule's ratio, so the path is pinned.
    monkeypatch.setattr(determinant, "BAREISS_RATIO", 0.0)
    rng = random.Random(93)
    rows = random_zz_t_matrix(rng, 3, max_deg=30, coeff_range=9).rows()
    rows[1] = [e.scale(p123) for e in rows[1]]
    m = ExactMatrix.from_rows(Rt, rows)
    primes_used.clear()
    det = modular_determinant(m, heuristic=True)
    assert primes_used  # the multimodular path ran
    assert det == cofactor_det(m) and not det.is_zero
