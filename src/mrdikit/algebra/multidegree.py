"""Grouping monomials by their Z^k multidegree.

One walk over the variables enumerates the monomials within a weight bound,
each carried as one packed integer (see ``MonomialCodes``): it extends every
partial monomial, variable by variable, by each exponent the remaining budget
allows, by adding that exponent's precomputed increment.  So it never builds a
monomial outside the bound, computes each multidegree incrementally, and
builds no exponent tuple.  One sort of the codes then lists the monomials
grouped by (weight, multidegree), each group in degree-lex order with its
leading monomial first; tuples are decoded only where a caller needs them.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ..errors import ValidationError
from .polynomials import Monomial
from .rings import RingDescriptor, ring_arity

Multidegree = tuple[int, ...]


class MonomialCodes:
    """Monomials x^e with weight Σ e_i·weights[i] at most ``bound``, each
    packed into one integer.

    The fields of a code are, from high to low:

    - the weight Σ e_i·weights[i], unbounded;
    - the multidegree Σ e_i·degrees[i], one field per coordinate with the
      first one highest, each wide enough for bound·(largest entry), which no
      coordinate exceeds since every walked weight is at least 1;
    - D − Σ e_i and then D − e_i for each variable, first variable highest,
      where D = bound // (smallest positive weight) bounds the degree and
      every exponent, so ascending codes are descending degree-lex order;
    - the support: bit i is set when e_i > 0.

    Each field stays within its width, so the code of x^e is the base code
    (D in every complemented field) plus e_i·step_i + 2^i for every e_i > 0.
    Variables of weight 0 do not take part in the walk: they keep exponent 0.
    """

    def __init__(self, weights: Sequence[int], degrees: Sequence[Multidegree], bound: int):
        n = len(weights)
        k = len(degrees[0]) if degrees else 0
        self.weights = list(weights)
        self.bound = bound
        self.support_mask = (1 << n) - 1
        self.top = max(bound // min((w for w in weights if w > 0), default=1), 0)
        digit_bits = self.top.bit_length()
        self.digit_mask = (1 << digit_bits) - 1
        self.digit_shifts = [n + digit_bits * (n - 1 - i) for i in range(n)]
        degree_shift = n + digit_bits * n
        # Codes of one fiber agree on every bit above the degree field.
        self.fiber_shift = degree_shift + digit_bits
        width = (bound * max((x for d in degrees for x in d), default=0)).bit_length()
        self.field_mask = (1 << width) - 1
        self.field_shifts = [self.fiber_shift + width * (k - 1 - j) for j in range(k)]
        self.weight_shift = self.fiber_shift + width * k
        self.base = sum(self.top << s for s in self.digit_shifts) + (self.top << degree_shift)
        self.steps = [
            (w << self.weight_shift)
            + sum(x << s for x, s in zip(d, self.field_shifts))
            - (1 << degree_shift)
            - (1 << s)
            for w, d, s in zip(weights, degrees, self.digit_shifts)
        ]

    def walk(self, exact: bool = False) -> list[int]:
        """Every code within the bound (of weight equal to it when
        ``exact``), ascending.

        Codes are kept in one bucket per weight, so each variable extends a
        whole bucket by one exponent at once.  Buckets are taken heaviest
        first, so a code never takes a second exponent of the same variable.
        """
        bound = self.bound
        buckets: list[list[int]] = [[] for _ in range(max(bound, 0) + 1)]
        buckets[0].append(self.base)
        for i, (w, step) in enumerate(zip(self.weights, self.steps)):
            if w <= 0:
                continue
            for used in range(bound - w, -1, -1):
                if buckets[used]:
                    for e in range(1, (bound - used) // w + 1):
                        inc = e * step + (1 << i)
                        buckets[used + e * w].extend(map(inc.__add__, buckets[used]))
        if exact:
            codes = buckets[bound] if bound >= 0 else []
        else:
            codes = [c for bucket in buckets for c in bucket]
        codes.sort()
        return codes

    def fibers(self, codes: list[int]) -> list[list[int]]:
        """Split ascending codes into runs of one weight and multidegree."""
        shift = self.fiber_shift
        runs: list[list[int]] = []
        last = -1
        for c in codes:
            key = c >> shift
            if key != last:
                run = [c]
                runs.append(run)
                last = key
            else:
                run.append(c)
        return runs

    def exponents(self, code: int) -> Monomial:
        top, mask = self.top, self.digit_mask
        return tuple(top - (code >> s & mask) for s in self.digit_shifts)

    def multidegree(self, code: int) -> Multidegree:
        mask = self.field_mask
        return tuple(code >> s & mask for s in self.field_shifts)


def iter_monomials(arity: int, total_degree: int) -> Iterator[Monomial]:
    """All exponent vectors of length ``arity`` summing to ``total_degree``,
    in descending lexicographic order."""
    codes = MonomialCodes([1] * arity, [()] * arity, total_degree)
    return map(codes.exponents, codes.walk(exact=True))


def monomials_by_multidegree(
    ring: RingDescriptor,
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
    leading monomial first.  The groups are the fibers of one packed walk
    (``MonomialCodes``).
    """
    arity = ring_arity(ring)
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
    codes = MonomialCodes(weights, degs, bound)
    runs = codes.fibers(codes.walk(exact=max_weight is None))
    return dict(
        sorted((codes.multidegree(run[0]), [codes.exponents(c) for c in run]) for run in runs)
    )
