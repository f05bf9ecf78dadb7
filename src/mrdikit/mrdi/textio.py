"""Canonical JSON bytes for mrdi documents.

A document is the JSON object its text holds.  Long-term documents are
pretty-printed with two-space indentation and end in a newline; IPC
documents are compact.  Both are written in ``written_form``'s key order,
``_ns``, ``_type``, ``_refs``, ``data`` with the refs table sorted by UUID,
so serialization is a pure function of the document.

The shape rules and the key order are ``document``'s: ``parse_text`` raises
the first of ``shape_problems`` and returns the object it checked, and
``serialize_text`` raises it before it writes, so it writes only what
``parse_text`` reads back.  Parsing needs no codec: the same bytes always
give the same document.

The long-term writer gives ``json.dumps(obj, indent=2)``'s bytes without the
json module's pure-Python indenting encoder.  It writes dicts and lists of
text node by node, and a list that holds containers one nesting level at a
time (``_write_levels``): all nodes of a level share their indentation, so a
level of text is quoted in one pass and a level of lists of one width, such
as the terms of polynomials, is joined in one pass over the level below.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _quote

from ..errors import SchemaError
from .document import (
    MAX_NESTING_DEPTH,
    _TEXT,
    check_shape,
    is_long_term,
    shape_problems,
    written_form,
)


_LIST = {list}


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
            out.append(_write_levels(node, newline, depth))
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


def _write_levels(root, newline, depth):
    """The text of list ``root`` as ``_write_indented`` writes it at
    ``newline`` and ``depth``, written one nesting level at a time: the
    nodes of a level share their indentation, so a level takes a few calls
    over all of its nodes, not a few per node.

    One pass down collects the nodes of each level.  Then, from the deepest
    level up, each list takes its children's texts, in order, from the
    level below.  A level of text is quoted by one ``map``, a level of
    lists of one width by one ``join`` map over the level below taken that
    many at a time, and any other level node by node: text is quoted, a
    list joins its slice of the level below and a dict is written by
    ``_write_indented``.  Each node is visited once per pass, and what is
    refused is what ``_write_indented`` refuses."""
    levels = []
    level = [root]
    while level:
        if depth + len(levels) == MAX_NESTING_DEPTH and not all(map(str.__instancecheck__, level)):
            raise SchemaError
        kinds = set(map(type, level))
        levels.append((level, kinds))
        if kinds <= _TEXT:
            break
        lists = level if kinds == _LIST else filter(list.__instancecheck__, level)
        level = list(chain.from_iterable(lists))
    below = []
    for k in range(len(levels) - 1, -1, -1):
        level, kinds = levels[k]
        if kinds <= _TEXT:
            below = list(map(_quote, level))
            continue
        here = newline + "  " * k
        inner = here + "  "
        separator = "," + inner
        if kinds == _LIST and len(widths := set(map(len, level))) == 1 and 0 not in widths:
            # One join per list of its opening, its children with the
            # separators between them, and its closing.
            children, separators = iter(below), repeat(separator)
            parts = [children, *[separators, children] * (widths.pop() - 1)]
            below = list(map("".join, zip(repeat("[" + inner), *parts, repeat(here + "]"))))
            continue
        texts = []
        append = texts.append
        start = 0
        for node in level:
            if isinstance(node, str):
                append(_quote(node))
            elif isinstance(node, list):
                end = start + len(node)
                append(f"[{inner}{separator.join(below[start:end])}{here}]" if node else "[]")
                start = end
            else:  # a dict, or a scalar it refuses
                part = []
                _write_indented(node, here, part, depth + k)
                append("".join(part))
        below = texts
    return below[0]


def serialize_text(doc: dict) -> bytes:
    """Long-term documents come out as ``json.dumps(obj, indent=2)`` plus a
    newline would write them (through a writer that skips the json module's
    pure-Python indenting encoder), IPC documents as compact JSON, ``obj``
    being ``written_form(doc)``.  A document that breaks the shape rules
    raises its first problem as a SchemaError."""
    if not (isinstance(doc, dict) and is_long_term(doc)):
        check_shape(doc)
        return json.dumps(written_form(doc), separators=(",", ":")).encode("utf-8")
    # The writer refuses a bad payload as it writes it, so the payloads are
    # walked again only to locate what it refused.
    if next(shape_problems(doc, check_data=False), None) is None:
        out = ["{"]
        separator = "\n  "
        try:
            for key, value in written_form(doc).items():
                out.append(f"{separator}{_quote(key)}: ")
                # Each part nests from depth 0; a ref document's parts too.
                _write_indented(value, "\n  ", out, -2 if key == "_refs" else 0)
                separator = ",\n  "
        except SchemaError:
            pass
        else:
            out.append("\n}\n")
            return "".join(out).encode("ascii")
    raise SchemaError(next(shape_problems(doc)))


def parse_text(raw: bytes) -> dict:
    """The document that canonical (or hand-written) mrdi bytes hold: the
    JSON object, once it keeps the shape rules."""
    try:
        obj = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # also a number past the interpreter's digit limit
        raise SchemaError(f"malformed JSON: {exc}") from exc
    except RecursionError:
        raise SchemaError(f"JSON nested deeper than {MAX_NESTING_DEPTH} levels") from None
    check_shape(obj)
    return obj
