"""Grouping monomials by their Z^k multidegree.

One walk over the variables enumerates the monomials: it extends every
partial monomial, variable by variable, by each exponent the remaining budget
allows, carrying that budget and the partial multidegree.  So it never builds
a monomial outside the bound and computes each multidegree incrementally.  The
result is in the order of a depth-first walk, without recursion.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ..errors import ValidationError
from .polynomials import Monomial
from .rings import ContextHandle, ring_arity

Multidegree = tuple[int, ...]


def _walk(
    weights: Sequence[int],
    steps: Sequence[int],
    budget: int,
    exact: bool,
) -> list[tuple[Monomial, int]]:
    """Every exponent vector e with Σ e_i·weights[i] at most ``budget``
    (equal to it when ``exact``), paired with Σ e_i·steps[i], in descending
    lexicographic order.  Weights must be positive."""
    level = [((), budget, 0)]
    for w, step in zip(weights, steps):
        deeper = []
        for prefix, left, key in level:
            for e in range(left // w, 0, -1):
                deeper.append((prefix + (e,), left - e * w, key + e * step))
            deeper.append((prefix + (0,), left, key))
        level = deeper
    return [(mono, key) for mono, left, key in level if not exact or left == 0]


def iter_monomials(arity: int, total_degree: int) -> Iterator[Monomial]:
    """All exponent vectors of length ``arity`` summing to ``total_degree``,
    in descending lexicographic order."""
    for mono, _ in _walk([1] * arity, [0] * arity, total_degree, True):
        yield mono


def monomials_by_multidegree(
    ring: ContextHandle,
    variable_degrees: Sequence[Multidegree],
    total_degree: int | None = None,
    *,
    max_weight: int | None = None,
) -> dict[Multidegree, list[Monomial]]:
    """Group monomials by their multidegree.

    The multidegree of x^e is the exponent-weighted sum of the per-variable
    degree vectors, whose entries must be nonnegative.  Give exactly one
    bound: ``total_degree`` selects every monomial of exactly that degree;
    ``max_weight`` selects every monomial with Σ e_i·|deg x_i| at most
    ``max_weight``, where |d| is the sum of the entries of d and must be
    positive for every variable.  Groups are keyed by multidegree (ascending
    key order) and each group lists its monomials in degree-lex order,
    leading monomial first.
    """
    arity = ring_arity(ring.descriptor)
    if len(variable_degrees) != arity:
        raise ValidationError(
            f"got {len(variable_degrees)} variable degrees for a ring with {arity} symbols"
        )
    if (total_degree is None) == (max_weight is None):
        raise ValidationError("give exactly one of total degree and max weight")
    degs = [tuple(d) for d in variable_degrees]
    k = len(degs[0]) if degs else 0
    if any(len(d) != k for d in degs):
        raise ValidationError("variable degree vectors must share one length")
    if any(x < 0 for d in degs for x in d):
        raise ValidationError("variable degree vectors must be nonnegative")
    if max_weight is None:
        if total_degree < 0:
            raise ValidationError("total degree must be nonnegative")
        weights, bound = [1] * arity, total_degree
    else:
        if max_weight < 0:
            raise ValidationError("max weight must be nonnegative")
        weights, bound = [sum(d) for d in degs], max_weight
        if any(w < 1 for w in weights):
            raise ValidationError("a weight bound needs a positive degree sum for every variable")
    # The walk carries each multidegree packed into one integer, a field per
    # coordinate with the first one highest, so adding keys adds multidegrees
    # and key order is tuple order.  No coordinate exceeds bound·max entry,
    # as every weight is at least 1.
    width = (bound * max((x for d in degs for x in d), default=0)).bit_length()
    shifts = [width * (k - 1 - j) for j in range(k)]
    steps = [sum(x << shift for x, shift in zip(d, shifts)) for d in degs]
    groups: dict[int, list[Monomial]] = {}
    for mono, key in _walk(weights, steps, bound, max_weight is None):
        groups.setdefault(key, []).append(mono)
    field = (1 << width) - 1
    # The walk is in descending lex order, which is degree-lex order among
    # monomials of one degree; a stable sort by degree finishes the job.
    return {
        tuple(key >> shift & field for shift in shifts): sorted(groups[key], key=sum, reverse=True)
        for key in sorted(groups)
    }
