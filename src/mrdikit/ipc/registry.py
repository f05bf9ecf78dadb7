"""The function registry shared by coordinator and workers.

Both sides run the same executable and register functions at import time, so
the mapping from name to callable is identical everywhere.  Workloads add
their entries when their modules are imported; tests can point workers at
extra modules through ``MRDI_WORKER_INIT``.
"""

from __future__ import annotations

from typing import Callable, Optional

_FUNCTIONS: dict[str, Callable] = {}


def register_function(name: str, fn: Optional[Callable] = None):
    """Register ``fn`` under ``name``; usable as a decorator."""

    def _register(f):
        _FUNCTIONS[name] = f
        return f

    if fn is None:
        return _register
    return _register(fn)


def lookup(name: str) -> Optional[Callable]:
    return _FUNCTIONS.get(name)


@register_function("identity")
def _identity(value):
    return value


@register_function("poly_square")
def _poly_square(p):
    return p * p
