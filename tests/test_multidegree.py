from math import comb

import pytest

from mrdikit.algebra import QQ, iter_monomials, monomials_by_multidegree, polynomial_ring
from mrdikit.errors import ValidationError


def test_grouping_example_three_vars():
    R, _ = polynomial_ring(QQ, "x", "y", "z")
    groups = monomials_by_multidegree(R, [(2, 0), (1, 1), (0, 2)], 2)
    # oracle: enumerate the 6 degree-2 monomials and bucket by weighted degree
    expected = {}
    for mono in iter_monomials(3, 2):
        md = (
            2 * mono[0] + 1 * mono[1] + 0 * mono[2],
            0 * mono[0] + 1 * mono[1] + 2 * mono[2],
        )
        expected.setdefault(md, set()).add(mono)
    assert {md: set(ms) for md, ms in groups.items()} == expected
    assert groups[(2, 2)] == [(1, 0, 1), (0, 2, 0)]  # xz and y^2


def test_total_degree_zero_single_group():
    R, _ = polynomial_ring(QQ, "x", "y")
    groups = monomials_by_multidegree(R, [(1, 0), (0, 1)], 0)
    assert groups == {(0, 0): [(0, 0)]}


def test_single_variable():
    R, _ = polynomial_ring(QQ, "x")
    groups = monomials_by_multidegree(R, [(1, 2)], 3)
    assert groups == {(3, 6): [(3,)]}


def test_union_covers_all_monomials_without_duplicates():
    R, _ = polynomial_ring(QQ, "a", "b", "c", "d")
    for t in range(5):
        groups = monomials_by_multidegree(R, [(1, 0), (2, 1), (0, 3), (1, 1)], t)
        seen = [m for ms in groups.values() for m in ms]
        assert len(seen) == len(set(seen)) == comb(4 - 1 + t, t)
        assert all(sum(m) == t for m in seen)


def test_arity_mismatch_rejected():
    R, _ = polynomial_ring(QQ, "x", "y")
    with pytest.raises(ValidationError):
        monomials_by_multidegree(R, [(1, 0)], 2)


def test_negative_degrees_rejected():
    R, _ = polynomial_ring(QQ, "x", "y")
    with pytest.raises(ValidationError, match="nonnegative"):
        monomials_by_multidegree(R, [(1, -1), (0, 1)], 2)
