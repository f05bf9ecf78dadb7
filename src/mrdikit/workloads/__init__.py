from .determinant import (
    coefficient_bound,
    degree_bound,
    det_mod_primes,
    modular_determinant,
)
from .kernel import MonomialMap, components_of_kernel, evaluate_map
from .synthetic import detcrt_instance, kernel_instance

__all__ = [
    "MonomialMap",
    "coefficient_bound",
    "components_of_kernel",
    "degree_bound",
    "det_mod_primes",
    "detcrt_instance",
    "evaluate_map",
    "kernel_instance",
    "modular_determinant",
]
