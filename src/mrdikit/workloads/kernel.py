"""Kernel components of a monomial map, one binomial fiber per multidegree.

The map sends each source variable to a single target term, which induces a
Z^k grading on the source (the image exponent vectors).  Source monomials of
one multidegree form a fiber; they all map to multiples of one target
monomial, so the fiber's part of the kernel is spanned by binomials that pair
its leading monomial with each other one.  The fibers come from one walk over
the source variables bounded by weight (the entry sum of the multidegree), so
no monomial outside the bound is built.  Everything runs in the calling
process: the component search over all fibers costs a few milliseconds,
less than shipping the fibers to a worker pool and back.

Minimalization is integer bookkeeping: the minimal generators in multidegree
b number one less than the connected components of the fiber graph, where
monomials are joined when they share a variable (Diaconis & Sturmfels 1998;
Sturmfels, *Gröbner Bases and Convex Polytopes*, ch. 4).  The leading
monomial is paired with the first monomial of every other component.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import prod

# Imported only so the traced benchmark can probe it by this module's name.
from ..algebra.matrices import nullspace_over_Q  # noqa: F401
from ..algebra.multidegree import Multidegree, monomials_by_multidegree
from ..algebra.polynomials import Monomial, Polynomial
from ..algebra.rings import ContextHandle, MultivariatePolyRing, RationalField
from ..errors import ContextMismatchError, SchemaError, ValidationError
from ..mrdi.codec import (
    context_from_uuid,
    context_uuid,
    decode_polynomial,
    encode_polynomial,
    register_codec,
)
from ..mrdi.document import TypeNode
from ..mrdi.states import DeserializerState, SerializerState


@dataclass(frozen=True)
class MonomialMap:
    """A ring map sending each source variable to one nonzero target term
    whose monomial is nonconstant (x -> 2 is rejected)."""

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
                raise ValidationError(
                    "image monomials must be nonconstant: a map sending a variable to a "
                    "constant, such as x -> 2, is not supported"
                )

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
    rings = {"source": phi.source, "target": phi.target}
    return TypeNode("MonomialMap", {key: context_uuid(ring, state) for key, ring in rings.items()})


def _map_build_data(phi: MonomialMap, state: SerializerState):
    return {"images": [encode_polynomial(img, state.mode) for img in phi.images]}


def _map_decode(tn: TypeNode, data, state: DeserializerState) -> MonomialMap:
    where = state.cursor()
    params = tn.params
    if not isinstance(params, dict) or set(params) != {"source", "target"}:
        raise SchemaError(f"{where}: MonomialMap needs source and target context parameters")
    source = context_from_uuid(params["source"], state, where)
    target = context_from_uuid(params["target"], state, where)
    images = data.get("images") if isinstance(data, dict) and len(data) == 1 else None
    if not isinstance(images, list):
        raise SchemaError(f"{where}: MonomialMap payload needs an images sequence")
    images = tuple(
        decode_polynomial(target, raw, state, f"{where}/images/{i}") for i, raw in enumerate(images)
    )
    return MonomialMap(source, target, images)


register_codec(MonomialMap, "MonomialMap", _map_build_type, _map_build_data, _map_decode)


# -- one binomial fiber per multidegree ---------------------------------------


def _component_starts(supports: list[int]) -> list[int]:
    """Position of the first monomial of each component of one fiber graph.

    ``supports`` holds each monomial's variables as a bit mask, in fiber
    order.  Monomials are joined when they share a variable, so components
    use disjoint sets of variables: each monomial merges every component
    whose variables it touches.
    """
    components: list[tuple[int, int]] = []  # (variable mask, first position)
    for i, mask in enumerate(supports):
        first = i
        apart = []
        for comp in components:
            if comp[0] & mask:
                mask |= comp[0]
                first = min(first, comp[1])
            else:
                apart.append(comp)
        apart.append((mask, first))
        components = apart
    return sorted(first for _, first in components)


def kernel_block(fibers: list[list[int]]) -> list[list[int]]:
    """Component representatives for a list of fibers.

    Each fiber lists the supports (variable bit masks) of its monomials in
    fiber order, leading monomial first.  For each fiber the result lists the
    position of the first monomial of every connected component of the fiber
    graph, in fiber order; it always starts with 0.
    """
    return [_component_starts(supports) for supports in fibers]


def _fibers(phi: MonomialMap, total_degree: int) -> list[tuple[Multidegree, list[Monomial]]]:
    """Every fiber with at least two monomials and weight at most T·d_min.

    One walk over the source variables builds exactly the monomials x^e with
    weight |md| = Σ e_i·|deg x_i| at most T·d_min.  A monomial of multidegree
    md has total degree at most |md| / d_min, so these fibers are complete
    among the monomials of degree at most T.  Fibers come in (|md|, md)
    order, monomials in degree-lex order.
    """
    degs = phi.variable_degrees
    bound = total_degree * min(sum(d) for d in degs)
    fibers = monomials_by_multidegree(phi.source, degs, max_weight=bound)
    return sorted(
        ((md, monos) for md, monos in fibers.items() if len(monos) > 1),
        key=lambda item: (sum(item[0]), item[0]),
    )


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
    gives a minimal generating set; one ``kernel_block`` call finds the
    components of every fiber.  Without it u_0 is paired with every other
    monomial.  ``pool`` is accepted and unused: the whole computation runs in
    the calling process, so the result is the same with or without one.
    """
    if total_degree < 1:
        raise ValidationError("total degree must be at least 1")
    fibers = _fibers(phi, total_degree)
    if minimalize:
        bits = [1 << v for v in range(len(phi.images))]
        supports = [[sum(compress(bits, mono)) for mono in monos] for _, monos in fibers]
        partners = [starts[1:] for starts in kernel_block(supports)]
    else:
        partners = [range(1, len(monos)) for _, monos in fibers]

    image_coeffs = [Fraction(img.terms[0][1]) for img in phi.images]

    def coefficient(mono: Monomial) -> Fraction:
        return prod(image_coeffs[v] ** e for v, e in enumerate(mono) if e)

    components: dict[Multidegree, list[Polynomial]] = {}
    for (md, monos), js in zip(fibers, partners):
        if not js:
            continue
        lead = coefficient(monos[0])
        for j in js:
            ratio = coefficient(monos[j]) / lead
            a, b = ratio.numerator, -ratio.denominator
            if a < 0:
                a, b = -a, -b
            gen = Polynomial.from_terms(phi.source, [(monos[0], a), (monos[j], b)])
            components.setdefault(md, []).append(gen)
    return components
