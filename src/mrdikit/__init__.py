"""Exact algebra objects, the mrdi document format, pipe-based worker pools,
and two distributed workloads built on top of them."""

__version__ = "0.1.0"

from . import algebra, ipc, mrdi, workloads  # noqa: F401  (registers codecs/functions)
from .algebra import (
    GF,
    QQ,
    ZZ,
    ExactMatrix,
    Polynomial,
    intern_context,
    polynomial_ring,
    univariate_ring,
)
from .ipc import WorkerPool, spawn_pool
from .mrdi import (
    DeserializerState,
    GlobalSerializerState,
    Mode,
    SerializerState,
    load,
    parse_text,
    save,
    serialize_text,
    validate_document,
)
from .workloads import (
    MonomialMap,
    components_of_kernel,
    evaluate_map,
    modular_determinant,
)

__all__ = [
    "ExactMatrix",
    "GF",
    "GlobalSerializerState",
    "DeserializerState",
    "Mode",
    "MonomialMap",
    "Polynomial",
    "QQ",
    "SerializerState",
    "WorkerPool",
    "ZZ",
    "__version__",
    "components_of_kernel",
    "evaluate_map",
    "intern_context",
    "load",
    "modular_determinant",
    "parse_text",
    "polynomial_ring",
    "save",
    "serialize_text",
    "spawn_pool",
    "univariate_ring",
    "validate_document",
]
