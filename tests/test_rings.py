import sys
import threading

import pytest

from mrdikit.algebra import (
    GF,
    QQ,
    ZZ,
    IntegerRing,
    MultivariatePolyRing,
    PrimeField,
    RationalField,
    UnivariatePolyRing,
    intern_context,
    univariate_ring,
)
from mrdikit.errors import ValidationError


def test_interning_same_descriptor_same_handle():
    a = intern_context(MultivariatePolyRing(RationalField(), ("x", "y")))
    b = intern_context(MultivariatePolyRing(RationalField(), ("x", "y")))
    assert a is b
    assert a == b and hash(a) == hash(b)


def test_symbol_order_distinguishes_contexts():
    a = intern_context(MultivariatePolyRing(RationalField(), ("x", "y")))
    b = intern_context(MultivariatePolyRing(RationalField(), ("y", "x")))
    assert a is not b and a != b


def test_base_ring_distinguishes_contexts():
    a = intern_context(UnivariatePolyRing(IntegerRing(), "t"))
    b = intern_context(UnivariatePolyRing(RationalField(), "t"))
    assert a is not b and a != b


def test_duplicate_symbols_rejected():
    with pytest.raises(ValidationError):
        MultivariatePolyRing(RationalField(), ("x", "x"))


def test_empty_symbols_rejected():
    with pytest.raises(ValidationError):
        MultivariatePolyRing(RationalField(), ())


def test_prime_field_requires_prime():
    with pytest.raises(ValidationError):
        PrimeField(15)
    assert GF(101) == PrimeField(101)


def test_builtin_handles():
    assert ZZ is intern_context(IntegerRing())
    assert QQ is intern_context(RationalField())


def test_concurrent_interning_yields_one_handle():
    desc = MultivariatePolyRing(RationalField(), ("a", "b", "c"))
    results = []

    def worker():
        results.append(intern_context(desc))

    threads = [threading.Thread(target=worker) for _ in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 16 and all(h is results[0] for h in results)


def test_nested_ring_descriptors_intern_independently():
    inner = UnivariatePolyRing(IntegerRing(), "t")
    outer = UnivariatePolyRing(inner, "u")
    hi = intern_context(inner)
    ho = intern_context(outer)
    assert hi is not ho
    assert intern_context(outer) is ho


# -- rings are values ---------------------------------------------------------


def test_a_ring_is_a_base_ring():
    ring = UnivariatePolyRing(ZZ, "t")
    assert intern_context(ring) is univariate_ring(ZZ, "t")[0]


def nested_ring(symbol="u"):
    """A fresh copy of ZZ[t][symbol], not interned."""
    return UnivariatePolyRing(UnivariatePolyRing(IntegerRing(), "t"), symbol)


def test_interning_interns_the_base_chain():
    assert intern_context(nested_ring()).base.base is ZZ


def test_concurrent_interning_of_fresh_copies_yields_one_ring():
    results = []

    def worker():  # a ring no other test interns, so the threads race to intern it
        results.append(intern_context(nested_ring("race")))

    threads = [threading.Thread(target=worker) for _ in range(16)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 16 and all(r is results[0] for r in results)
    assert results[0].base is univariate_ring(ZZ, "t")[0]


def test_rings_compare_and_hash_by_value():
    assert ZZ == IntegerRing() and ZZ != RationalField()
    assert hash(GF(7)) == hash(PrimeField(7))
