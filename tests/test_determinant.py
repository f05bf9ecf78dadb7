import random
from itertools import islice

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
from mrdikit.mrdi import GlobalSerializerState, Mode, SerializerState, save, serialize_text
from mrdikit.workloads import (
    DetJob,
    coefficient_bound,
    degree_bound,
    det_mod_p,
    det_mod_primes,
    modular_determinant,
)
from mrdikit.algebra import primes
from mrdikit.workloads import determinant
from test_linalg import cofactor_det, random_zz_t_matrix


def zz_t():
    return univariate_ring(ZZ, "t")


def test_degree_bound_sums_row_maxima():
    Rt, t = zz_t()
    one = Polynomial.constant(Rt, 1)
    m = ExactMatrix.from_rows(Rt, [[t**3, one], [t, t**2]])
    assert degree_bound(m) == 3 + 2


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


def test_det_job_records_plan():
    Rt, t = zz_t()
    one = Polynomial.constant(Rt, 1)
    m = ExactMatrix.from_rows(Rt, [[t, one], [one, t]])
    job = DetJob(m, 0, 0)
    modular_determinant(m, job=job)
    assert job.degree_bound == 2
    assert job.coefficient_bound == 4
    assert len(job.primes) >= 1
    assert all(p > job.degree_bound for p in job.primes)
    assert len(set(job.primes)) == len(job.primes)
    product = 1
    for p in job.primes:
        product *= p
    assert product > 2 * job.coefficient_bound


def test_prime_independence():
    rng = random.Random(77)
    m = random_zz_t_matrix(rng, 4, max_deg=3, coeff_range=10**4)

    def stream_skipping(k):
        it = descending_primes(2**31)
        for _ in range(k):
            next(it)
        return it

    first = modular_determinant(m, prime_stream=stream_skipping(0))
    second = modular_determinant(m, prime_stream=stream_skipping(25))
    assert first == second


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


def test_heuristic_matches_provable_on_a_many_prime_lift():
    # Coefficients near 10^40 put det coefficients near 10^245, so the lift
    # runs over more than twenty primes before the heuristic may stop.
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
    job = DetJob(m, 0, 0)
    assert modular_determinant(m, heuristic=True, job=job) == provable
    assert len(job.primes) >= 20
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


def test_heuristic_primes_do_not_depend_on_the_group_width(monkeypatch):
    rng = random.Random(83)
    m = random_zz_t_matrix(rng, 4, max_deg=3, coeff_range=10**30)
    runs = []
    for width in (1, 3, 8, 11):
        monkeypatch.setattr(determinant, "PRIME_GROUP", width)
        job = DetJob(m, 0, 0)
        det = modular_determinant(m, heuristic=True, job=job)
        runs.append((det, job.primes))
    assert all(run == runs[0] for run in runs)
    assert runs[0][0] == cofactor_det(m)


def test_serial_and_pooled_results_are_byte_identical():
    rng = random.Random(84)
    m = random_zz_t_matrix(rng, 5, max_deg=3, coeff_range=10**25)

    def encoded(det):
        state = SerializerState(Mode.LONG_TERM, GlobalSerializerState(uuid_seed=7))
        return serialize_text(save(det, state))

    for heuristic in (False, True):
        job = DetJob(m, 0, 0)
        serial = encoded(modular_determinant(m, heuristic=heuristic, job=job))
        for workers in (1, 2, 4):
            pooled_job = DetJob(m, 0, 0)
            with spawn_pool(workers) as pool:
                got = modular_determinant(m, pool=pool, heuristic=heuristic, job=pooled_job)
            assert encoded(got) == serial
            assert pooled_job.primes == job.primes
