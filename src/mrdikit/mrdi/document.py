"""The mrdi document: a JSON object, its shape rules and invariants.

A document is the JSON object its text holds, in memory as in the file, with
up to four keys: ``_ns`` names the producing system and version, ``_type``
describes the stored object's type and parameters, ``_refs`` is a flat table
of ref documents (``_type`` and ``data``) keyed by UUID, and ``data`` holds
the payload.  A document is long-term when it carries ``_ns`` or ``_refs``
(``is_long_term``): a file carries both, an IPC document neither, and a
document in a frame carries in ``_refs`` only the contexts its receiver lacks.

A type tree is the JSON that ``_type`` holds: a type node is a tag, or
``{"name": tag, "params": ...}``, and its parameters are text, type nodes or
mappings of them.  ``type_node`` builds one and ``type_parts`` reads one;
which text in parameter position names a type is for the decoder of the node
that holds it to say.

This module owns the shape rules and the key order of the text
(``written_form``), which both writers use.  ``shape_problems`` reads any
object and yields each problem as one located text: ``parse_text``,
``serialize_text`` and the frame codec raise the first, ``validate_document``
lists them all and then checks the invariants only it checks.  The contexts
a document needs are the UUIDs its type tree mentions, and those of each
ref's type tree and data; one walker finds them in all three.
"""

from __future__ import annotations

import re
from enum import Enum
from itertools import chain, filterfalse
from typing import Union

from ..errors import SchemaError, quote

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


# Deepest nesting of arrays and objects parsing accepts in `_type` or `data`, and
# the longest chain of refs loading follows, so every recursive walk over a
# parsed document stays below the recursion limit.
MAX_NESTING_DEPTH = 100


# A type tree: a tag, or a {name, params} object.
TypeTree = Union[str, dict]


def reads_as_type_node(node: dict) -> bool:
    """Whether an object in type-parameter position is read as a type node:
    it has a `name` and no key but `name` and `params`."""
    return "name" in node and node.keys() <= {"name", "params"}


def type_node(name: str, params=None) -> TypeTree:
    """The type node of tag ``name``: the tag itself without parameters,
    ``{"name": name, "params": params}`` with them."""
    return name if params is None else {"name": name, "params": params}


def type_parts(node) -> tuple:
    """The tag and parameters (None when it has none) of type node ``node``:
    text that is not a UUID, or an object with a text `name` and no key but
    `name` and `params`.  Anything else is no type node: (None, None)."""
    if isinstance(node, str):
        return (None, None) if is_uuid_text(node) else (node, None)
    if isinstance(node, dict) and reads_as_type_node(node) and isinstance(node["name"], str):
        return node["name"], node.get("params")
    return None, None


def is_long_term(doc: dict) -> bool:
    """Whether ``doc`` is a long-term document: it carries `_ns` or `_refs`."""
    return "_ns" in doc or "_refs" in doc


def _mentioned_uuids(*trees) -> set[str]:
    """The UUID strings anywhere in ``trees``: type trees and data trees (a
    ref document names its base ring in its data), walked through object
    values and list items."""
    found = set()
    stack = list(trees)
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            if is_uuid_text(node):
                found.add(node)
        elif isinstance(node, dict):
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
    return found


# -- the written form ------------------------------------------------------------


def written_form(doc: dict) -> dict:
    """``doc`` with its keys in the order the text writes them: `_ns`
    (`system` before `version`), `_type`, `_refs` sorted by UUID (each ref
    `_type` before `data`), `data`.  ``doc`` must keep the shape rules; the
    form shares its type trees and payloads."""
    out = {key: doc[key] for key in ("_ns", "_type", "_refs", "data") if key in doc}
    if "_ns" in out:
        out["_ns"] = {key: out["_ns"][key] for key in ("system", "version")}
    if "_refs" in out:
        out["_refs"] = {key: written_form(out["_refs"][key]) for key in sorted(out["_refs"])}
    return out


# -- shape rules -----------------------------------------------------------------

_TOP_LEVEL_KEYS = {"_ns", "_type", "_refs", "data"}
_TEXT = {str}
_TEXT_OR_CONTAINER = {str, list, dict}


def data_tree_ok(node) -> bool:
    """Whether ``node`` is text, or lists and dicts with text keys whose
    scalars are all text, nested at most ``MAX_NESTING_DEPTH`` deep.

    One pass per nesting level that builds no paths.  False also for
    subclasses of str, list and dict; ``_data_problems`` has the verdict.
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


def _data_problems(node, path):
    """Each problem that makes ``data_tree_ok`` false, depth first: a scalar
    that is not text, an object key that is not text (located at the
    object), and a container at depth ``MAX_NESTING_DEPTH``, below which the
    walk goes on."""
    stack = [(path, node, 0)]
    while stack:
        path, node, depth = stack.pop()
        if depth is None:
            yield f"{path}: non-text object key {quote(node)}"
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
            yield f"{path}: non-text scalar {quote(node)} (numbers must be stored as text)"
            continue
        if depth == MAX_NESTING_DEPTH:
            yield f"{path}: nested deeper than {MAX_NESTING_DEPTH} levels"
        stack.extend(reversed(children))


def _type_problems(node, path, depth=0):
    """A type node is a tag that is not a UUID, or ``{name, params}`` with a
    text name.  A type node with parameters or a parameter mapping at
    ``depth`` puts its children at ``depth + 1``."""
    if isinstance(node, str):
        if is_uuid_text(node):
            yield f"{path}: a bare UUID cannot be a type"
    elif not isinstance(node, dict):
        yield f"{path}: malformed type node {quote(node)}"
    elif depth == MAX_NESTING_DEPTH:
        yield f"{path}: nested deeper than {MAX_NESTING_DEPTH} levels"
    else:
        extra = node.keys() - {"name", "params"}
        if extra:
            yield f"{path}: unexpected keys [{', '.join(sorted(map(quote, extra)))}] in type node"
        if not isinstance(node.get("name"), str):
            yield f"{path}: type node needs a text `name`"
        if "params" in node:
            yield from _param_problems(node["params"], f"{path}/params", depth + 1)


def _param_problems(node, path, depth):
    """Type parameters are text (a UUID, a tag or a plain value), a type node
    (an object with a `name` and no key but `name` and `params`), or a
    mapping from text keys to parameters."""
    if isinstance(node, dict) and reads_as_type_node(node):
        yield from _type_problems(node, path, depth)
    elif isinstance(node, dict):
        if depth == MAX_NESTING_DEPTH:
            yield f"{path}: nested deeper than {MAX_NESTING_DEPTH} levels"
            return
        for key, value in node.items():
            if not isinstance(key, str):
                yield f"{path}: non-text object key {quote(key)}"
            elif not isinstance(value, str):  # text is always a valid parameter
                yield from _param_problems(value, f"{path}/{key}", depth + 1)
    elif not isinstance(node, str):
        yield f"{path}: malformed type parameter {quote(node)}"


def shape_problems(obj, path="", envelope=("_ns", "_refs"), check_data=True):
    """Each way document JSON ``obj`` at ``path`` breaks the shape rules, as
    one text located by its path (none for the root), in the order the
    document is written.  ``envelope`` names the keys besides ``_type`` and
    ``data`` it may carry: ``_ns`` and ``_refs`` in a file, ``_refs`` in a
    frame, none in a ref document.  Without ``check_data`` no ``data`` is
    walked, for a caller that checks or writes the payloads itself."""
    here, prefix = (f"{path}: ", f"{path}/") if path else ("", "")
    if not isinstance(obj, dict):
        yield f"{here}document must be a JSON object"
        return
    extra = obj.keys() - _TOP_LEVEL_KEYS
    if extra:
        yield f"{here}unknown keys [{', '.join(sorted(map(quote, extra)))}]"
    for key in ("_type", "data"):
        if key not in obj:
            yield f"{here}missing `{key}`"
    if not envelope and ("_ns" in obj or "_refs" in obj):
        yield f"{here}ref documents must not carry `_ns` or `_refs`"
    elif "_ns" in obj and "_ns" not in envelope:
        yield f"{here}documents in a frame must not carry `_ns`"
    elif "_ns" in obj:
        ns = obj["_ns"]
        if (
            not isinstance(ns, dict)
            or ns.keys() != {"system", "version"}
            or not all(map(str.__instancecheck__, ns.values()))
        ):
            yield f"{prefix}_ns: expected {{system, version}} text fields"
    if "_type" in obj:
        yield from _type_problems(obj["_type"], f"{prefix}_type")
    if "_refs" in obj and "_refs" in envelope:
        refs = obj["_refs"]
        if not isinstance(refs, dict):
            yield f"{prefix}_refs: expected an object"
            refs = {}
        for uuid_key, ref in refs.items():
            if not is_uuid_text(uuid_key):
                yield f"{prefix}_refs: key {quote(uuid_key)} is not a UUID"
            at = f"{prefix}_refs/{uuid_key if isinstance(uuid_key, str) else quote(uuid_key)}"
            yield from shape_problems(ref, at, (), check_data)
    if "data" in obj and check_data and not data_tree_ok(obj["data"]):
        yield from _data_problems(obj["data"], f"{prefix}data")


def check_shape(obj, path="", envelope=("_ns", "_refs"), check_data=True) -> None:
    """Raise the first of ``shape_problems`` as a SchemaError, if any."""
    problem = next(shape_problems(obj, path, envelope, check_data), None)
    if problem is not None:
        raise SchemaError(problem)


# -- invariants ------------------------------------------------------------------


def _unknown_tags(tree, path, known_tags):
    """The texts for each type node in type tree ``tree`` whose tag is not in
    ``known_tags``: the root, and each object in parameter position that
    reads as a type node, walked through parameters and text-keyed mappings.
    Text in parameter position is never taken for a tag."""
    if isinstance(tree, str):
        tree = {"name": tree}
    stack = [(path, tree, True)]
    while stack:
        path, node, is_type = stack.pop()
        if not isinstance(node, dict):
            continue
        if is_type or reads_as_type_node(node):
            name = node.get("name")
            if isinstance(name, str) and name not in known_tags:
                yield f"{path}: unknown type tag {quote(name)}"
            if "params" in node:
                stack.append((f"{path}/params", node["params"], False))
        else:
            items = reversed(node.items())
            stack.extend((f"{path}/{k}", v, False) for k, v in items if isinstance(k, str))


def validate_document(doc, global_state=None) -> list[str]:
    """Every shape problem of ``doc``, any object, then every broken
    invariant that only this checks: ``_ns`` and ``_refs`` come together,
    ``_ns`` fields are not empty, type tags are ones the codec has
    registered, and every UUID mentioned resolves, with no cycle among the
    refs.  It lists problems and raises none.

    ``global_state`` (when given) is used to check UUID resolvability of IPC
    documents; long-term documents must be self-contained in ``_refs``.
    """
    from .codec import registered_type_tags

    errors = list(shape_problems(doc))
    if not isinstance(doc, dict):
        return errors

    if ("_ns" in doc) != ("_refs" in doc):
        present, absent = ("_ns", "_refs") if "_ns" in doc else ("_refs", "_ns")
        errors.append(f"mode violation: `{present}` present without `{absent}`")
    ns = doc.get("_ns")
    if isinstance(ns, dict):
        if ns.get("system") == "":
            errors.append("_ns: empty system name")
        if ns.get("version") == "":
            errors.append("_ns: empty version")

    refs = doc.get("_refs")
    refs = refs if isinstance(refs, dict) else {}
    known_tags = registered_type_tags()
    errors.extend(_unknown_tags(doc.get("_type"), "_type", known_tags))
    mentioned = _mentioned_uuids(doc.get("_type"))
    ref_deps = {}
    for uuid_key, ref in refs.items():
        ref = ref if isinstance(ref, dict) else {}
        at = f"_refs/{uuid_key if isinstance(uuid_key, str) else quote(uuid_key)}/_type"
        errors.extend(_unknown_tags(ref.get("_type"), at, known_tags))
        ref_deps[uuid_key] = _mentioned_uuids(ref.get("_type"), ref.get("data"))
        mentioned.update(ref_deps[uuid_key])
    for uuid_key in sorted(mentioned):
        if uuid_key in refs:
            continue
        if global_state is not None and global_state.resolve(uuid_key) is not None:
            continue
        if is_long_term(doc) or global_state is not None:
            errors.append(f"dangling reference: {uuid_key} not resolvable")

    # Cycle detection over the ref dependency graph, whose nodes are the text
    # keys: only text is ever mentioned, so only text keys can close a cycle.
    # A depth-first search without recursion: ``trail`` is the path from the
    # root, and ``pending`` holds each trail node's unvisited dependencies.
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {u: WHITE for u in refs if isinstance(u, str)}
    for root in sorted(color):
        if color[root] != WHITE:
            continue
        color[root] = GRAY
        trail, pending = [root], [iter(sorted(ref_deps[root]))]
        while pending:
            for v in pending[-1]:
                if color.get(v) == GRAY:
                    errors.append(f"cyclic reference through {' -> '.join(trail)} -> {v}")
                elif color.get(v) == WHITE:
                    color[v] = GRAY
                    trail.append(v)
                    pending.append(iter(sorted(ref_deps[v])))
                    break
            else:
                color[trail.pop()] = BLACK
                pending.pop()

    return errors
