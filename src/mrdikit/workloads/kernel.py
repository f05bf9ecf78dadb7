"""Kernel components of a monomial map, one binomial fiber per multidegree.

The map sends each source variable to a single target term, which induces a
Z^k grading on the source (the image exponent vectors).  Source monomials of
one multidegree form a fiber; they all map to multiples of one target
monomial, so the fiber's part of the kernel is spanned by binomials that pair
its leading monomial with each other one.  Fibers are independent of each
other, which is what the pool parallelizes.

Minimalization is integer bookkeeping: the minimal generators in multidegree
b number one less than the connected components of the fiber graph, where
monomials are joined when they share a variable (Diaconis & Sturmfels 1998;
Sturmfels, *Gröbner Bases and Convex Polytopes*, ch. 4).  The leading
monomial is paired with the first monomial of every other component.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

# Imported only so the traced benchmark can probe it by this module's name.
from ..algebra.matrices import nullspace_over_Q  # noqa: F401
from ..algebra.multidegree import Multidegree, monomials_by_multidegree
from ..algebra.polynomials import Monomial, Polynomial
from ..algebra.rings import ContextHandle, MultivariatePolyRing, RationalField
from ..errors import ContextMismatchError, ValidationError
from ..ipc.registry import register_function
from ..mrdi.codec import (
    _register_poly_context,
    register_codec,
)
from ..mrdi.document import TypeNode
from ..mrdi.states import SerializerState


@dataclass(frozen=True)
class MonomialMap:
    """A ring map sending each source variable to one nonzero target term."""

    source: ContextHandle
    target: ContextHandle
    images: tuple[Polynomial, ...]

    def __post_init__(self):
        for ring, name in ((self.source, "source"), (self.target, "target")):
            desc = ring.descriptor
            if not isinstance(desc, MultivariatePolyRing) or not isinstance(
                desc.base, RationalField
            ):
                raise ValidationError(f"{name} must be a multivariate ring over QQ")
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        arity = len(self.source.descriptor.symbols)
        if len(images) != arity:
            raise ValidationError(
                f"need {arity} images (one per source variable), got {len(images)}"
            )
        for img in images:
            if img.parent != self.target:
                raise ValidationError("images must live in the target ring")
            if len(img.terms) != 1:
                raise ValidationError("images must be single nonzero terms")
            if sum(img.terms[0][0]) == 0:
                raise ValidationError("image monomials must be nonconstant")

    @property
    def variable_degrees(self) -> tuple[Multidegree, ...]:
        """The induced grading: deg(x_i) is the image monomial's exponents."""
        return tuple(img.terms[0][0] for img in self.images)


def evaluate_map(phi: MonomialMap, p: Polynomial) -> Polynomial:
    """Substitute the images for the variables of ``p``."""
    if p.parent != phi.source:
        raise ContextMismatchError("polynomial does not live in the map's source ring")
    result = Polynomial.zero(phi.target)
    for mono, coeff in p.terms:
        term = Polynomial.constant(phi.target, coeff)
        for image, exponent in zip(phi.images, mono):
            if exponent:
                term = term * image**exponent
        result = result + term
    return result


# -- serialization of monomial maps ------------------------------------------


def _map_build_type(phi: MonomialMap, state: SerializerState) -> TypeNode:
    return TypeNode(
        "MonomialMap",
        {
            "source": _register_poly_context(phi.source, state),
            "target": _register_poly_context(phi.target, state),
        },
    )


def _map_build_data(phi: MonomialMap, state: SerializerState):
    from ..mrdi.codec import _encode_poly_data

    return {"images": [_encode_poly_data(img, state.mode) for img in phi.images]}


def _map_decode(tn: TypeNode, data, state) -> MonomialMap:
    from ..errors import SchemaError
    from ..mrdi.codec import _decode_poly_data, _resolve_context
    from ..mrdi.document import is_uuid_text

    params = tn.params
    if not isinstance(params, dict) or set(params) != {"source", "target"}:
        raise SchemaError("MonomialMap needs source and target context parameters")
    if not (is_uuid_text(params["source"]) and is_uuid_text(params["target"])):
        raise SchemaError("MonomialMap context parameters must be UUIDs")
    source = _resolve_context(params["source"], state)
    target = _resolve_context(params["target"], state)
    if not isinstance(data, dict) or "images" not in data or not isinstance(data["images"], list):
        raise SchemaError("MonomialMap payload needs an images sequence")
    images = tuple(
        _decode_poly_data(target, raw, state, f"images/{i}")
        for i, raw in enumerate(data["images"])
    )
    return MonomialMap(source, target, images)


register_codec(MonomialMap, "MonomialMap", _map_build_type, _map_build_data, _map_decode)


# -- one binomial fiber per multidegree ---------------------------------------


def _component_starts(supports: list[int]) -> list[int]:
    """Position of the first monomial of each component of one fiber graph.

    ``supports`` holds each monomial's variables as a bit mask, in fiber
    order.  Monomials are joined when they share a variable, so the union-find
    runs over variables: every monomial unites the variables it uses.
    """
    parent: dict[int, int] = {}

    def find(v: int) -> int:
        while parent.setdefault(v, v) != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for mask in supports:
        root = find(mask & -mask)
        rest = mask & (mask - 1)
        while rest:
            bit = rest & -rest
            parent[find(bit)] = root
            rest ^= bit
    first: dict[int, int] = {}
    for i, mask in enumerate(supports):
        first.setdefault(find(mask & -mask), i)
    return list(first.values())


def kernel_block(fibers: list[list[int]]) -> list[list[int]]:
    """Component representatives for a batch of fibers.

    Each fiber lists the supports (variable bit masks) of its monomials in
    fiber order, leading monomial first.  For each fiber the result lists the
    position of the first monomial of every connected component of the fiber
    graph, in fiber order; it always starts with 0.
    """
    return [_component_starts(supports) for supports in fibers]


register_function("kernel_block", kernel_block)


def _fibers(phi: MonomialMap, total_degree: int) -> list[tuple[Multidegree, list[Monomial]]]:
    """Every fiber with at least two monomials and weight at most T·d_min.

    A monomial of multidegree md has total degree at most |md| / d_min, so
    these fibers are complete among the monomials of degree at most T.
    Fibers come in (|md|, md) order, monomials in degree-lex order.
    """
    degs = phi.variable_degrees
    bound = total_degree * min(sum(d) for d in degs)
    fibers: dict[Multidegree, list[Monomial]] = {}
    for t in range(total_degree, 0, -1):
        for md, monos in monomials_by_multidegree(phi.source, degs, t).items():
            if sum(md) <= bound:
                fibers.setdefault(md, []).extend(monos)
    return sorted(
        ((md, monos) for md, monos in fibers.items() if len(monos) > 1),
        key=lambda item: (sum(item[0]), item[0]),
    )


def _component_search(supports: list[list[int]], pool) -> list[list[int]]:
    """``kernel_block`` over every fiber: one call, or one batch per worker."""
    if pool is None or not supports:
        return kernel_block(supports)
    count = min(len(pool.workers), len(supports))
    cuts = [i * len(supports) // count for i in range(count + 1)]
    batches = [(supports[lo:hi],) for lo, hi in zip(cuts, cuts[1:])]
    return [starts for batch in pool.parallel_map("kernel_block", batches) for starts in batch]


def components_of_kernel(
    phi: MonomialMap,
    total_degree: int,
    pool=None,
    minimalize: bool = True,
) -> dict[Multidegree, list[Polynomial]]:
    """Binomial kernel generators of ``phi`` grouped by multidegree.

    Covers every multidegree md with |md| <= ``total_degree`` · d_min, where
    d_min is the smallest total degree of an image; when all images share one
    degree these are the kernel elements of source degree at most
    ``total_degree``.  A fiber u_0, ..., u_m (leading monomial first) spans
    its kernel by c^{u_j}·x^{u_0} − c^{u_0}·x^{u_j}, with primitive integer
    coefficients and a positive coefficient on x^{u_0}; c^u is the image
    coefficient of x^u.  With ``minimalize`` (the default) u_0 is paired only
    with the first monomial of each other component of the fiber graph, which
    gives a minimal generating set; the component search is the work sent
    through the pool when one is given, at most one batch per worker.
    Without it u_0 is paired with every other monomial.
    """
    if total_degree < 1:
        raise ValidationError("total degree must be at least 1")
    fibers = _fibers(phi, total_degree)
    if minimalize:
        supports = [
            [sum(1 << v for v, e in enumerate(mono) if e) for mono in monos]
            for _, monos in fibers
        ]
        partners = [starts[1:] for starts in _component_search(supports, pool)]
    else:
        partners = [range(1, len(monos)) for _, monos in fibers]

    image_coeffs = [Fraction(img.terms[0][1]) for img in phi.images]

    def coefficient(mono: Monomial) -> Fraction:
        return prod(c**e for c, e in zip(image_coeffs, mono))

    components: dict[Multidegree, list[Polynomial]] = {}
    for (md, monos), js in zip(fibers, partners):
        lead = coefficient(monos[0])
        for j in js:
            ratio = coefficient(monos[j]) / lead
            a, b = ratio.numerator, -ratio.denominator
            if a < 0:
                a, b = -a, -b
            gen = Polynomial.from_terms(phi.source, [(monos[0], a), (monos[j], b)])
            components.setdefault(md, []).append(gen)
    return components
