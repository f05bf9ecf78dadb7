"""The mrdi document model: four subtrees and their invariants.

A document is an annotated tree with up to four parts: ``_ns`` names the
producing system and version, ``_type`` describes the stored object's type
and parameters, ``_refs`` is a flat table of context documents keyed by UUID,
and ``data`` holds the payload.  Long-term documents carry ``_ns`` and
``_refs``; IPC documents carry no ``_ns``, and a document in a frame carries
in ``_refs`` only the contexts its receiver lacks.

``validate_document`` checks the invariants.  The contexts a document needs
are the UUIDs its type tree mentions, and those of each ref's type tree and
data; one walker finds them in all three.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, filterfalse
from typing import Optional, Union

from ..errors import quote

SYSTEM_NAME = "mrdikit"
FORMAT_VERSION = "0.1.0"

UUID_RE = re.compile(
    r"^[0-9a-f]{8}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{12}$"
)


def is_uuid_text(value) -> bool:
    return isinstance(value, str) and bool(UUID_RE.match(value))


class Mode(Enum):
    LONG_TERM = "longterm"
    IPC = "ipc"


# Data payloads are JSON trees whose scalars are always text.
DataNode = Union[str, list, dict]

# Deepest nesting of arrays and objects parsing accepts in `_type` or `data`, so
# every recursive walk over a parsed document stays below the recursion limit.
MAX_NESTING_DEPTH = 100


@dataclass(frozen=True)
class TypeNode:
    """A type tag plus parameters.

    ``params`` is one of: None, a UUID string naming a parent context, a
    nested TypeNode (container element types), or a mapping from text keys to
    TypeNode-or-UUID-or-text values.
    """

    name: str
    params: Union[None, str, "TypeNode", dict] = None


@dataclass(frozen=True)
class NamespaceRecord:
    system: str = SYSTEM_NAME
    version: str = FORMAT_VERSION


@dataclass
class MrdiDocument:
    type_tree: TypeNode
    data: DataNode
    ns: Optional[NamespaceRecord] = None
    refs: Optional[dict[str, "MrdiDocument"]] = field(default=None)

    @property
    def mode(self) -> Mode:
        return Mode.LONG_TERM if self.ns is not None or self.refs is not None else Mode.IPC


def _mentioned_uuids(*trees) -> set[str]:
    """The UUID strings anywhere in ``trees``: type trees, raw parameter
    values and data trees (a ref document names its base ring in its data),
    walked through type parameters, object values and list items."""
    found = set()
    stack = list(trees)
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            if is_uuid_text(node):
                found.add(node)
        elif isinstance(node, TypeNode):
            stack.append(node.params)
        elif isinstance(node, dict):
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
    return found


_TEXT = {str}
_TEXT_OR_CONTAINER = {str, list, dict}


def data_tree_ok(node) -> bool:
    """Whether ``node`` is text, or lists and dicts with text keys whose
    scalars are all text, nested at most ``MAX_NESTING_DEPTH`` deep.

    One pass per nesting level that builds no paths.  False also for
    subclasses of str, list and dict; ``data_tree_problems`` has the verdict.
    """
    level = [node]
    for depth in range(MAX_NESTING_DEPTH + 1):
        kinds = set(map(type, level))
        if kinds <= _TEXT:
            return True
        if depth == MAX_NESTING_DEPTH or not kinds <= _TEXT_OR_CONTAINER:
            return False
        containers = filterfalse(str.__instancecheck__, level)
        if dict in kinds:
            containers = list(containers)
            for c in containers:
                if type(c) is dict and not set(map(type, c)) <= _TEXT:
                    return False  # a key that is not text
            containers = [c.values() if type(c) is dict else c for c in containers]
        level = list(chain.from_iterable(containers))
    return False  # not reached: the last level returns


def data_tree_problems(node, path):
    """Each ``(path, problem, value)`` that makes ``data_tree_ok`` false, in
    depth-first order.  ``problem`` is "native" for a scalar that is not text,
    "key" for an object key that is not text (the path is the object's), and
    "deep" for a container at depth ``MAX_NESTING_DEPTH``, below which the
    walk goes on."""
    stack = [(path, node, 0)]
    while stack:
        path, node, depth = stack.pop()
        if depth is None:
            yield path, "key", node
            continue
        if isinstance(node, str):
            continue
        if isinstance(node, list):
            children = [(f"{path}/{i}", item, depth + 1) for i, item in enumerate(node)]
        elif isinstance(node, dict):
            children = [
                (f"{path}/{key}", value, depth + 1) if isinstance(key, str) else (path, key, None)
                for key, value in node.items()
            ]
        else:
            yield path, "native", node
            continue
        if depth == MAX_NESTING_DEPTH:
            yield path, "deep", node
        stack.extend(reversed(children))


def _check_data(node, path, errors):
    if data_tree_ok(node):
        return
    for where, problem, value in data_tree_problems(node, path):
        if problem == "native":
            errors.append(
                f"{where}: non-text scalar {quote(value)} (numbers must be stored as text)"
            )
        elif problem == "key":
            errors.append(f"{where}: non-text object key {quote(value)}")
        else:
            errors.append(f"{where}: nested deeper than {MAX_NESTING_DEPTH} levels")


def _check_type_node(node, path, errors, known_tags, depth=0):
    """Nesting is counted as parsing counts it: a type node with parameters
    or a parameter mapping at ``depth`` puts its children at ``depth + 1``."""
    if isinstance(node, str):
        return  # UUID param or inline tag; resolvability is checked separately
    if isinstance(node, TypeNode):
        if node.name not in known_tags:
            errors.append(f"{path}: unknown type tag {quote(node.name)}")
        if node.params is None:
            return
    elif not isinstance(node, dict):
        errors.append(f"{path}: malformed type parameter {quote(node)}")
        return
    if depth == MAX_NESTING_DEPTH:
        errors.append(f"{path}: nested deeper than {MAX_NESTING_DEPTH} levels")
    elif isinstance(node, TypeNode):
        _check_type_node(node.params, f"{path}/params", errors, known_tags, depth + 1)
    else:
        for key, value in node.items():
            _check_type_node(value, f"{path}/{key}", errors, known_tags, depth + 1)


def validate_document(doc: MrdiDocument, global_state=None) -> list[str]:
    """Check the document invariants, accumulating every error found.

    ``global_state`` (when given) is used to check UUID resolvability of IPC
    documents; long-term documents must be self-contained in ``_refs``.
    Type tags must be ones the codec has registered.
    """
    from .codec import registered_type_tags

    known_tags = registered_type_tags()
    errors: list[str] = []

    has_ns = doc.ns is not None
    has_refs = doc.refs is not None
    if has_ns != has_refs:
        if has_ns:
            errors.append("mode violation: `_ns` present without `_refs`")
        else:
            errors.append("mode violation: `_refs` present without `_ns`")
    if has_ns:
        if not doc.ns.system:
            errors.append("_ns: empty system name")
        if not doc.ns.version:
            errors.append("_ns: empty version")

    _check_type_node(doc.type_tree, "_type", errors, known_tags)
    _check_data(doc.data, "data", errors)

    refs = doc.refs or {}
    for uuid_key, ref in refs.items():
        if not is_uuid_text(uuid_key):
            errors.append(f"_refs: key {quote(uuid_key)} is not a UUID")
        at = f"_refs/{uuid_key if isinstance(uuid_key, str) else quote(uuid_key)}"
        if ref.ns is not None or ref.refs is not None:
            errors.append(f"{at}: ref documents must not carry `_ns` or `_refs`")
        _check_type_node(ref.type_tree, f"{at}/_type", errors, known_tags)
        _check_data(ref.data, f"{at}/data", errors)

    mentioned = _mentioned_uuids(doc.type_tree)
    ref_deps = {}
    for uuid_key, ref in refs.items():
        ref_deps[uuid_key] = _mentioned_uuids(ref.type_tree, ref.data)
        mentioned.update(ref_deps[uuid_key])
    for uuid_key in sorted(mentioned):
        if uuid_key in refs:
            continue
        if global_state is not None and global_state.resolve(uuid_key) is not None:
            continue
        if doc.mode is Mode.LONG_TERM or global_state is not None:
            errors.append(f"dangling reference: {uuid_key} not resolvable")

    # Cycle detection over the ref dependency graph, whose nodes are the text
    # keys: only text is ever mentioned, so only text keys can close a cycle.
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {u: WHITE for u in refs if isinstance(u, str)}

    def visit(u, trail):
        color[u] = GRAY
        for v in sorted(ref_deps.get(u, ())):
            if v not in color:
                continue
            if color[v] == GRAY:
                errors.append(f"cyclic reference through {' -> '.join(trail + [v])}")
            elif color[v] == WHITE:
                visit(v, trail + [v])
        color[u] = BLACK

    for u in sorted(color):
        if color[u] == WHITE:
            visit(u, [u])

    return errors
