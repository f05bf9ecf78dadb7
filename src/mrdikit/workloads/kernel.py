"""Kernel components of a monomial map, one binomial fiber per multidegree.

The map sends each source variable to a single target term, which induces a
Z^k grading on the source (the image exponent vectors).  Source monomials of
one multidegree form a fiber; they all map to multiples of one target
monomial, so the fiber's part of the kernel is spanned by binomials that pair
its leading monomial with each other one.  A variable x_i sent to a constant
c_i has the zero multidegree: it gives the generator x_i − c_i and leaves
the rest of the computation.

The fibers come from one walk over the other source variables bounded by
weight (the entry sum of the multidegree), which carries each monomial as
one packed integer (``MonomialCodes``): weight, multidegree, complemented
degree and exponents, and the support as a bit mask.  One sort gives the
fibers as runs of equal high bits, each in degree-lex order, and exponent
tuples are decoded only for the monomials that appear in a generator.
Everything runs in the calling process: the whole pass costs a few
milliseconds, less than shipping the fibers to a worker pool and back.

Minimalization is integer bookkeeping: the minimal generators in multidegree
b number one less than the connected components of the fiber graph, where
monomials are joined when they share a variable (Diaconis & Sturmfels 1998;
Sturmfels, *Gröbner Bases and Convex Polytopes*, ch. 4).  The leading
monomial is paired with the first monomial of every other component.  A
fiber whose supports all share one bit is connected and needs no search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd
from operator import and_

# Imported only so the traced benchmark can probe it by this module's name.
from ..algebra.matrices import nullspace_over_Q  # noqa: F401
from ..algebra.multidegree import Multidegree, MonomialCodes
# Imported only so the traced benchmark can probe it by this module's name;
# the kernel walks ``MonomialCodes`` directly.
from ..algebra.multidegree import monomials_by_multidegree  # noqa: F401
from ..algebra.polynomials import Monomial, Polynomial
from ..algebra.rings import ContextHandle, MultivariatePolyRing, RationalField
from ..errors import ContextMismatchError, SchemaError, ValidationError
from ..mrdi.codec import (
    context_from_uuid,
    context_uuid,
    decode_elements,
    encode_elements,
    register_codec,
)
from ..mrdi.document import TypeTree, type_node, type_parts
from ..mrdi.states import DeserializerState, SerializerState


@dataclass(frozen=True)
class MonomialMap:
    """A ring map sending each source variable to one nonzero target term
    c·m.  The monomial m may be 1, as in x -> 2: a constant image."""

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


def _map_build_type(phi: MonomialMap, state: SerializerState) -> TypeTree:
    rings = {"source": phi.source, "target": phi.target}
    return type_node("MonomialMap", {key: context_uuid(ring, state) for key, ring in rings.items()})


def _map_build_data(phi: MonomialMap, state: SerializerState):
    return {"images": encode_elements(phi.target, phi.images, state.mode)}


def _map_decode(tn: TypeTree, data, state: DeserializerState) -> MonomialMap:
    where = state.cursor()
    params = type_parts(tn)[1]
    if not isinstance(params, dict) or set(params) != {"source", "target"}:
        raise SchemaError(f"{where}: MonomialMap needs source and target context parameters")
    source = context_from_uuid(params["source"], state, where)
    target = context_from_uuid(params["target"], state, where)
    images = data.get("images") if isinstance(data, dict) and len(data) == 1 else None
    if not isinstance(images, list):
        raise SchemaError(f"{where}: MonomialMap payload needs an images sequence")
    return MonomialMap(source, target, decode_elements(target, images, state, f"{where}/images"))


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


def _fiber_codes(phi: MonomialMap, total_degree: int) -> tuple[MonomialCodes, list[list[int]]]:
    """Every fiber with at least two monomials and weight at most T·d_min,
    as runs of packed codes.

    One walk over the source variables with nonconstant images builds exactly
    the monomials x^e with weight |md| = Σ e_i·|deg x_i| at most T·d_min,
    where d_min is the smallest degree of a nonconstant image.  A monomial of
    multidegree md has total degree at most |md| / d_min, so these fibers are
    complete among the walk's monomials of degree at most T.  Fibers come in
    (|md|, md) order, monomials in degree-lex order; variables with constant
    images keep exponent 0.
    """
    degs = phi.variable_degrees
    weights = [sum(d) for d in degs]
    bound = total_degree * min((w for w in weights if w), default=0)
    codes = MonomialCodes(weights, degs, bound)
    return codes, [run for run in codes.fibers(codes.walk()) if len(run) > 1]


def components_of_kernel(
    phi: MonomialMap,
    total_degree: int,
    pool=None,
    minimalize: bool = True,
) -> dict[Multidegree, list[Polynomial]]:
    """Binomial kernel generators of ``phi`` grouped by multidegree.

    A variable x_i with a constant image c_i contributes x_i − c_i, under
    the zero multidegree, and takes no further part.  The other variables
    give every multidegree md with |md| <= ``total_degree`` · d_min, where
    d_min is the smallest total degree of a nonconstant image; when all
    images share one degree these are the kernel elements of source degree
    at most ``total_degree``.  A fiber u_0, ..., u_m (leading monomial first)
    spans its kernel by c^{u_j}·x^{u_0} − c^{u_0}·x^{u_j}, with primitive
    integer coefficients and a positive coefficient on x^{u_0}; c^u is the
    image coefficient of x^u.  With ``minimalize`` (the default) u_0 is
    paired only with the first monomial of each other component of the fiber
    graph, which gives a minimal generating set: a fiber whose monomials all
    share a variable is one component, and one ``kernel_block`` call splits
    the others.  Without it u_0 is paired with every other monomial.
    Exponent tuples are decoded only for the monomials that appear in a
    generator.  ``pool`` is accepted and unused: the whole computation runs
    in the calling process, so the result is the same with or without one.
    """
    if total_degree < 1:
        raise ValidationError("total degree must be at least 1")
    codes, fibers = _fiber_codes(phi, total_degree)
    if minimalize:
        mask = codes.support_mask
        split = [run for run in fibers if not reduce(and_, run) & mask]
        starts = kernel_block([[c & mask for c in run] for run in split])
        pairs = [(run, js[1:]) for run, js in zip(split, starts) if len(js) > 1]
    else:
        pairs = [(run, range(1, len(run))) for run in fibers]

    components: dict[Multidegree, list[Polynomial]] = {}
    degs = phi.variable_degrees
    one = (0,) * len(degs)
    # x_i − c_i for every constant image c_i
    linear = [
        _binomials(phi, one[:i] + (1,) + one[i + 1 :], [one])[0]
        for i, d in enumerate(degs)
        if not any(d)
    ]
    if linear:
        components[(0,) * len(degs[0])] = linear
    for run, js in pairs:
        others = [codes.exponents(run[j]) for j in js]
        components[codes.multidegree(run[0])] = _binomials(phi, codes.exponents(run[0]), others)
    return components


def _binomials(phi: MonomialMap, lead: Monomial, others: list[Monomial]) -> list[Polynomial]:
    """c^v·x^u − c^u·x^v for the leading monomial u of a fiber and each v
    after it in degree-lex order, scaled to primitive integer coefficients
    with the one on x^u positive; c^u = num(u)/den(u) is the image
    coefficient of x^u."""
    coeffs = [img.terms[0][1] for img in phi.images]

    def scale(mono: Monomial) -> tuple[int, int]:
        num = den = 1
        for c, e in zip(coeffs, mono):
            if e:
                num *= c.numerator**e
                den *= c.denominator**e
        return num, den

    lead_num, lead_den = scale(lead)
    gens = []
    for other in others:
        num, den = scale(other)
        a, b = num * lead_den, den * lead_num  # c^v / c^u = a / b
        g = gcd(a, b) if a > 0 else -gcd(a, b)
        # Already canonical: two nonzero terms, the leading one first.
        gens.append(Polynomial(phi.source, ((lead, Fraction(a // g)), (other, Fraction(-b // g)))))
    return gens
