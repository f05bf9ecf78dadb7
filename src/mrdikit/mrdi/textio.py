"""Canonical JSON bytes for mrdi documents.

Long-term documents are pretty-printed with two-space indentation and end in
a newline; IPC documents are compact.  Keys are emitted in the fixed order
``_ns``, ``_type``, ``_refs``, ``data`` and the refs table is sorted by UUID,
so serialization is a pure function of the document.
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
    data_tree_ok,
    data_tree_problems,
    is_uuid_text,
)

_TOP_LEVEL_KEYS = ("_ns", "_type", "_refs", "data")
_TEXT = {str}


def _type_to_json(node):
    if isinstance(node, str):
        return node
    if isinstance(node, TypeNode):
        if node.params is None:
            return node.name
        return {"name": node.name, "params": _type_to_json(node.params)}
    if isinstance(node, dict):
        return {key: _type_to_json(value) for key, value in node.items()}
    raise SchemaError(f"cannot serialize type node {node!r}")


def _doc_to_json(doc: MrdiDocument):
    out = {}
    if doc.ns is not None:
        out["_ns"] = {"system": doc.ns.system, "version": doc.ns.version}
    out["_type"] = _type_to_json(doc.type_tree)
    if doc.refs is not None:
        out["_refs"] = {
            uuid_key: _doc_to_json(doc.refs[uuid_key]) for uuid_key in sorted(doc.refs)
        }
    out["data"] = doc.data
    return out


def _write_indented(node, newline, out):
    """Append ``node`` to ``out`` as ``json.dumps(node, indent=2)`` writes it,
    where ``newline`` is a line break plus the indentation of the line the
    node starts on.  Only text, lists, tuples and dicts can be written."""
    if isinstance(node, str):
        out.append(_quote(node))
        return
    inner = newline + "  "
    if isinstance(node, (list, tuple)):
        if not node:
            out.append("[]")
        elif set(map(type, node)) <= _TEXT:  # a list of text, the common leaf
            out.append(f"[{inner}{(',' + inner).join(map(_quote, node))}{newline}]")
        else:
            out.append("[")
            separator = inner
            for item in node:
                out.append(separator)
                _write_indented(item, inner, out)
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
                raise SchemaError(f"cannot write the non-text object key {key!r}")
            out.append(f"{separator}{_quote(key)}: ")
            _write_indented(value, inner, out)
            separator = "," + inner
        out.append(newline + "}")
    else:
        raise SchemaError(f"cannot write {node!r}: numbers and flags must be stored as text")


def serialize_text(doc: MrdiDocument) -> bytes:
    """Long-term documents come out as ``json.dumps(obj, indent=2)`` plus a
    newline would write them (through a writer that skips the json module's
    pure-Python indenting encoder), IPC documents as compact JSON."""
    obj = _doc_to_json(doc)
    if doc.mode is Mode.LONG_TERM:
        out = []
        _write_indented(obj, "\n", out)
        out.append("\n")
        return "".join(out).encode("ascii")
    return json.dumps(obj, separators=(",", ":")).encode("utf-8")


def _too_deep(path):
    raise SchemaError(f"{path}: nested deeper than {MAX_NESTING_DEPTH} levels")


def _parse_type(node, path, depth=0):
    if isinstance(node, str):
        if is_uuid_text(node):
            raise SchemaError(f"{path}: a bare UUID cannot be a type")
        return TypeNode(node, None)
    if isinstance(node, dict):
        if depth == MAX_NESTING_DEPTH:
            _too_deep(path)
        extra = set(node) - {"name", "params"}
        if extra:
            raise SchemaError(f"{path}: unexpected keys {sorted(extra)} in type node")
        if "name" not in node or not isinstance(node["name"], str):
            raise SchemaError(f"{path}: type node needs a text `name`")
        if "params" not in node:
            return TypeNode(node["name"], None)
        return TypeNode(
            node["name"], _parse_type_params(node["params"], f"{path}/params", depth + 1)
        )
    raise SchemaError(f"{path}: malformed type node {node!r}")


def _parse_type_params(node, path, depth):
    if isinstance(node, str):
        # Strings in parameter position are UUIDs, registered type tags
        # (canonicalized to paramless TypeNodes), or plain text values.
        if is_uuid_text(node):
            return node
        return TypeNode(node, None) if node in registered_type_tags() else node
    if isinstance(node, dict) and "name" in node and set(node) <= {"name", "params"}:
        return _parse_type(node, path, depth)
    if isinstance(node, dict):
        if depth == MAX_NESTING_DEPTH:
            _too_deep(path)
        return {
            key: _parse_type_params(value, f"{path}/{key}", depth + 1)
            for key, value in node.items()
        }
    raise SchemaError(f"{path}: malformed type parameters {node!r}")


def _check_data(node, path):
    """``node`` itself, once every scalar in it is known to be text and its
    containers nest at most ``MAX_NESTING_DEPTH`` deep."""
    if not data_tree_ok(node):
        # The first problem; keys parsed from JSON are always text.
        for where, problem, value in data_tree_problems(node, path):
            if problem == "deep":
                _too_deep(where)
            raise SchemaError(
                f"{where}: native value {value!r}; numbers and flags must be stored as text"
            )
    return node


def _parse_doc(obj, path, allow_envelope):
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: document must be a JSON object")
    unknown = set(obj) - set(_TOP_LEVEL_KEYS)
    if unknown:
        raise SchemaError(f"{path}: unknown keys {sorted(unknown)}")
    if "_type" not in obj:
        raise SchemaError(f"{path}: missing `_type`")
    if "data" not in obj:
        raise SchemaError(f"{path}: missing `data`")
    if not allow_envelope and ("_ns" in obj or "_refs" in obj):
        raise SchemaError(f"{path}: ref documents must not carry `_ns` or `_refs`")

    ns = None
    if "_ns" in obj:
        raw = obj["_ns"]
        if (
            not isinstance(raw, dict)
            or set(raw) != {"system", "version"}
            or not all(isinstance(v, str) for v in raw.values())
        ):
            raise SchemaError(f"{path}/_ns: expected {{system, version}} text fields")
        ns = NamespaceRecord(raw["system"], raw["version"])

    refs = None
    if "_refs" in obj:
        raw = obj["_refs"]
        if not isinstance(raw, dict):
            raise SchemaError(f"{path}/_refs: expected an object")
        refs = {}
        for uuid_key, ref_obj in raw.items():
            if not is_uuid_text(uuid_key):
                raise SchemaError(f"{path}/_refs: key {uuid_key!r} is not a UUID")
            refs[uuid_key] = _parse_doc(ref_obj, f"{path}/_refs/{uuid_key}", False)

    return MrdiDocument(
        type_tree=_parse_type(obj["_type"], f"{path}/_type"),
        data=_check_data(obj["data"], f"{path}/data"),
        ns=ns,
        refs=refs,
    )


def parse_text(raw: bytes) -> MrdiDocument:
    """Parse canonical (or hand-written) mrdi bytes back into a document."""
    try:
        obj = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"malformed JSON: {exc}") from exc
    except RecursionError:
        raise SchemaError(f"JSON nested deeper than {MAX_NESTING_DEPTH} levels") from None
    return _parse_doc(obj, "$", True)

