"""Canonical JSON bytes for mrdi documents.

Long-term documents are pretty-printed with two-space indentation and end in
a newline; IPC documents are compact.  Keys are emitted in the fixed order
``_ns``, ``_type``, ``_refs``, ``data`` and the refs table is sorted by UUID,
so serialization is a pure function of the document.

The shape rules are ``document.shape_problems``'s: ``parse_text`` raises the
first problem before it builds a document, and ``serialize_text`` before it
writes one, so it writes only what ``parse_text`` reads back.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

from ..errors import SchemaError
from .codec import registered_type_tags
from .document import (
    MAX_NESTING_DEPTH,
    Mode,
    MrdiDocument,
    NamespaceRecord,
    TypeNode,
    _TEXT,
    _doc_to_json,
    check_shape,
    is_uuid_text,
    shape_problems,
)


def _write_indented(node, newline, out, depth):
    """Append ``node`` to ``out`` as ``json.dumps(node, indent=2)`` writes it,
    where ``newline`` is a line break plus the indentation of the line the
    node starts on, and ``depth`` its nesting as parsing counts it.  Anything
    but text, lists and dicts with text keys less than ``MAX_NESTING_DEPTH``
    deep raises a SchemaError with no text, which ``shape_problems`` gives."""
    if isinstance(node, str):
        out.append(_quote(node))
        return
    if depth == MAX_NESTING_DEPTH:
        raise SchemaError
    inner = newline + "  "
    if isinstance(node, list):
        if not node:
            out.append("[]")
        elif set(map(type, node)) <= _TEXT:  # a list of text, the common leaf
            out.append(f"[{inner}{(',' + inner).join(map(_quote, node))}{newline}]")
        else:
            out.append("[")
            separator = inner
            for item in node:
                out.append(separator)
                _write_indented(item, inner, out, depth + 1)
                separator = "," + inner
            out.append(newline + "]")
    elif isinstance(node, dict):
        if not node:
            out.append("{}")
            return
        out.append("{")
        separator = inner
        for key, value in node.items():
            if not isinstance(key, str):
                raise SchemaError
            out.append(f"{separator}{_quote(key)}: ")
            _write_indented(value, inner, out, depth + 1)
            separator = "," + inner
        out.append(newline + "}")
    else:
        raise SchemaError


def serialize_text(doc: MrdiDocument) -> bytes:
    """Long-term documents come out as ``json.dumps(obj, indent=2)`` plus a
    newline would write them (through a writer that skips the json module's
    pure-Python indenting encoder), IPC documents as compact JSON.  A
    document that breaks the shape rules raises its first problem as a
    SchemaError."""
    obj = _doc_to_json(doc)
    if doc.mode is Mode.IPC:
        check_shape(obj)
        return json.dumps(obj, separators=(",", ":")).encode("utf-8")
    # The writer refuses a bad payload as it writes it, so the payloads are
    # walked again only to locate what it refused.
    if next(shape_problems(obj, check_data=False), None) is None:
        out = ["{"]
        separator = "\n  "
        try:
            for key, value in obj.items():
                out.append(f"{separator}{_quote(key)}: ")
                # Each part nests from depth 0; a ref document's parts too.
                _write_indented(value, "\n  ", out, -2 if key == "_refs" else 0)
                separator = ",\n  "
        except SchemaError:
            pass
        else:
            out.append("\n}\n")
            return "".join(out).encode("ascii")
    raise SchemaError(next(shape_problems(obj)))


def _type_from_json(node) -> TypeNode:
    if isinstance(node, str):
        return TypeNode(node, None)
    params = node.get("params")
    return TypeNode(node["name"], None if params is None else _params_from_json(params))


def _params_from_json(node):
    if isinstance(node, str):
        # Strings in parameter position are UUIDs, registered type tags
        # (canonicalized to paramless TypeNodes), or plain text values.
        if is_uuid_text(node):
            return node
        return TypeNode(node, None) if node in registered_type_tags() else node
    if "name" in node and node.keys() <= {"name", "params"}:
        return _type_from_json(node)
    return {key: _params_from_json(value) for key, value in node.items()}


def _doc_from_json(obj) -> MrdiDocument:
    """The document of JSON ``obj``, which keeps the shape rules."""
    refs = obj.get("_refs")
    return MrdiDocument(
        type_tree=_type_from_json(obj["_type"]),
        data=obj["data"],
        ns=NamespaceRecord(**obj["_ns"]) if "_ns" in obj else None,
        refs=None if refs is None else {key: _doc_from_json(ref) for key, ref in refs.items()},
    )


def parse_text(raw: bytes) -> MrdiDocument:
    """Parse canonical (or hand-written) mrdi bytes back into a document."""
    try:
        obj = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # also a number past the interpreter's digit limit
        raise SchemaError(f"malformed JSON: {exc}") from exc
    except RecursionError:
        raise SchemaError(f"JSON nested deeper than {MAX_NESTING_DEPTH} levels") from None
    check_shape(obj)
    return _doc_from_json(obj)
