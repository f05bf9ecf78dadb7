"""Exception types shared across the package, and how their texts quote input."""

# The most characters of ``repr`` an error or warning text quotes.
QUOTE_LIMIT = 80


def quote(value) -> str:
    """``repr(value)`` as an error text shows it: its first ``QUOTE_LIMIT``
    characters and its length when it is longer, and never an exception,
    which ``repr`` raises for an integer past the interpreter's digit limit."""
    try:
        text = repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to show>"
    if len(text) <= QUOTE_LIMIT:
        return text
    return f"{text[:QUOTE_LIMIT]}... ({len(text)} characters)"


class MrdiKitError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(MrdiKitError):
    """A value violates a structural precondition (bad descriptor, nonprime modulus, ...)."""


class ContextMismatchError(MrdiKitError):
    """Two elements of different rings were combined."""


class SchemaError(MrdiKitError):
    """A document (or its byte form) does not follow the mrdi schema."""


class DanglingReferenceError(SchemaError):
    """A UUID mentioned in a document cannot be resolved."""


class UnsupportedTypeError(MrdiKitError):
    """save/load encountered a type outside the registered table."""


class ContextNotPreloadedError(MrdiKitError):
    """IPC-mode (de)serialization hit a context absent from the global state."""


class TransportError(MrdiKitError):
    """A worker died or the byte stream broke mid-conversation."""


class PoolClosedError(MrdiKitError):
    """An operation was attempted on a pool after shutdown."""


class WorkerFailure(MrdiKitError):
    """A remote call failed on the worker; carries the worker's error text.

    ``index`` is set when the failure surfaced from a parallel map and names
    the failing input position.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index
