"""The mrdi document model: four subtrees and their invariants.

A document is an annotated tree with up to four parts: ``_ns`` names the
producing system and version, ``_type`` describes the stored object's type
and parameters, ``_refs`` is a flat table of context documents keyed by UUID,
and ``data`` holds the payload.  Long-term documents carry ``_ns`` and
``_refs``; IPC documents carry neither and lean on preloaded contexts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Union

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


def iter_type_uuids(node):
    """UUID strings mentioned anywhere in a type tree (or raw params value)."""
    if node is None:
        return
    if isinstance(node, str):
        if is_uuid_text(node):
            yield node
        return
    if isinstance(node, TypeNode):
        yield from iter_type_uuids(node.params)
        return
    if isinstance(node, dict):
        for value in node.values():
            yield from iter_type_uuids(value)


def iter_data_uuids(node):
    """UUID-shaped strings in a data tree (ref documents name their base ring here)."""
    if isinstance(node, str):
        if is_uuid_text(node):
            yield node
    elif isinstance(node, list):
        for item in node:
            yield from iter_data_uuids(item)
    elif isinstance(node, dict):
        for value in node.values():
            yield from iter_data_uuids(value)


def document_dependencies(doc: MrdiDocument) -> set[str]:
    """All context UUIDs a document's type tree and payload mention."""
    found = set(iter_type_uuids(doc.type_tree))
    found.update(iter_data_uuids(doc.data))
    return found


def _check_data_node(node, path, errors):
    if isinstance(node, str):
        return
    if isinstance(node, list):
        for i, item in enumerate(node):
            _check_data_node(item, f"{path}/{i}", errors)
        return
    if isinstance(node, dict):
        for key, value in node.items():
            if not isinstance(key, str):
                errors.append(f"{path}: non-text object key {key!r}")
            else:
                _check_data_node(value, f"{path}/{key}", errors)
        return
    errors.append(f"{path}: non-text scalar {node!r} (numbers must be stored as text)")


def _check_type_node(node, path, errors, known_tags):
    if isinstance(node, str):
        return  # UUID param or inline tag; resolvability is checked separately
    if isinstance(node, TypeNode):
        if known_tags is not None and node.name not in known_tags:
            errors.append(f"{path}: unknown type tag {node.name!r}")
        if node.params is not None:
            _check_type_node(node.params, f"{path}/params", errors, known_tags)
        return
    if isinstance(node, dict):
        for key, value in node.items():
            _check_type_node(value, f"{path}/{key}", errors, known_tags)
        return
    errors.append(f"{path}: malformed type parameter {node!r}")


def validate_document(doc: MrdiDocument, global_state=None, known_tags=None) -> list[str]:
    """Check the document invariants, accumulating every error found.

    ``global_state`` (when given) is used to check UUID resolvability of IPC
    documents; long-term documents must be self-contained in ``_refs``.
    ``known_tags``: collection of accepted type tags (defaults to the codec's
    registered table).
    """
    if known_tags is None:
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
    _check_data_node(doc.data, "data", errors)

    refs = doc.refs or {}
    for uuid_key, ref in refs.items():
        if not is_uuid_text(uuid_key):
            errors.append(f"_refs: key {uuid_key!r} is not a UUID")
        if ref.ns is not None or ref.refs is not None:
            errors.append(f"_refs/{uuid_key}: ref documents must not carry `_ns` or `_refs`")
        _check_type_node(ref.type_tree, f"_refs/{uuid_key}/_type", errors, known_tags)
        _check_data_node(ref.data, f"_refs/{uuid_key}/data", errors)

    mentioned = set(iter_type_uuids(doc.type_tree))
    ref_deps = {}
    for uuid_key, ref in refs.items():
        ref_deps[uuid_key] = document_dependencies(ref)
        mentioned.update(ref_deps[uuid_key])
    for uuid_key in sorted(mentioned):
        if uuid_key in refs:
            continue
        if global_state is not None and global_state.resolve(uuid_key) is not None:
            continue
        if doc.mode is Mode.LONG_TERM or global_state is not None:
            errors.append(f"dangling reference: {uuid_key} not resolvable")

    # Cycle detection over the ref dependency graph.
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {u: WHITE for u in refs}

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

    for u in sorted(refs):
        if color[u] == WHITE:
            visit(u, [u])

    return errors
