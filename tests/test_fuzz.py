"""Seeded mutation fuzzing: malformed input fails only with a MrdiKitError.

The golden files and a few valid frames are mutated: a key deleted, two
subtrees swapped, a value replaced by one of the wrong type, or by 5000
digits as text or as a native JSON number; the ``_refs`` of a Call's
arguments are also made bad on purpose.  Each document goes through
``parse_text``, ``load`` and ``save``; each parsed document, mutated in
memory, through ``validate_document`` and ``serialize_text``, which must
agree, and what it writes back through ``parse_text``; each frame
payload through ``framing.decode_message``, and frame bytes, also cut or
corrupted, through a ``WorkerLoop`` on in-memory streams.  Any other exception is a bug in
``src/``.  The runs are seeded, so a failure reproduces.
"""

import io
import json
import random
import re
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from mrdikit import cli
from fractions import Fraction

from mrdikit.algebra import GF, QQ, ZZ, ExactMatrix, polynomial_ring, univariate_ring
from mrdikit.errors import MrdiKitError
from mrdikit.ipc import framing
from mrdikit.ipc.worker import WorkerLoop
from mrdikit.mrdi import (
    DeserializerState,
    GlobalSerializerState,
    Mode,
    SerializerState,
    load,
    parse_text,
    save,
    serialize_text,
    type_node,
    type_parts,
    validate_document,
)

CASES = 5000
GOLDEN = sorted((Path(__file__).parent / "golden").glob("*.mrdi"))

# Stands in a tree for a native number of 5000 digits, which neither
# json.dumps nor json.loads converts past the interpreter's digit limit.
_BIG_NUMBER = "@@big-number@@"
_DIGITS = "7" * 5000
_WRONG_TYPED = [None, True, 0, 1.5, "", "x", "-1", "0.5", [], {}, ["1"], {"name": "ZZRingElem"}]
_LONG = [_DIGITS, "-" + _DIGITS, _BIG_NUMBER]


def _nodes(tree, path=()):
    yield path, tree
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(tree, list):
        for index, value in enumerate(tree):
            yield from _nodes(value, path + (index,))


_DELETE = object()


def _replace(tree, path, value):
    """``tree`` with the node at ``path`` replaced by ``value``, or removed
    for ``_DELETE``; only the containers along ``path`` are copied."""
    if not path:
        return value
    copy = dict(tree) if isinstance(tree, dict) else list(tree)
    head, rest = path[0], path[1:]
    if not rest and value is _DELETE:
        del copy[head]
    else:
        copy[head] = _replace(tree[head], rest, value)
    return copy


def _mutate(rng, tree):
    nodes = list(_nodes(tree))
    path, node = rng.choice(nodes)
    kind = rng.randrange(4)
    if kind == 0:  # delete a key, or a list item
        containers = [(p, n) for p, n in nodes if isinstance(n, (dict, list)) and n]
        if containers:
            path, node = rng.choice(containers)
            step = rng.choice(list(node)) if isinstance(node, dict) else rng.randrange(len(node))
            return _replace(tree, path + (step,), _DELETE)
    if kind == 1:  # swap two subtrees, neither inside the other
        other, subtree = rng.choice(nodes)
        if path[: len(other)] != other and other[: len(path)] != path:
            return _replace(_replace(tree, path, subtree), other, node)
    if kind == 3:
        return _replace(tree, path, rng.choice(_LONG))
    # kind 2, or a delete or swap that found nothing to act on
    return _replace(tree, path, rng.choice(_WRONG_TYPED))


def _mutants(seed, trees):
    rng = random.Random(seed)
    for _ in range(CASES):
        tree = rng.choice(trees)
        for _ in range(rng.randint(1, 2)):
            tree = _mutate(rng, tree)
        yield tree


def _text(tree, **dumps) -> str:
    return json.dumps(tree, **dumps).replace(json.dumps(_BIG_NUMBER), _DIGITS)


def _native(tree):
    """``tree`` with each stand-in replaced by the number itself."""
    if tree == _BIG_NUMBER:
        return 7 * (10**5000 - 1) // 9
    if isinstance(tree, dict):
        return {key: _native(value) for key, value in tree.items()}
    if isinstance(tree, list):
        return [_native(value) for value in tree]
    return tree


def _non_mrdikit_failures(cases, run):
    """The positions of the cases ``run`` fails on with something other than
    a MrdiKitError, with what it raised."""
    found = []
    for index, case in enumerate(cases):
        try:
            run(case)
        except MrdiKitError:
            pass
        except Exception as exc:  # the bugs this test looks for
            found.append((index, repr(exc)[:300]))
    return found


# -- documents -----------------------------------------------------------------


def _through_codec(raw: bytes) -> None:
    state = GlobalSerializerState()
    value = load(parse_text(raw), DeserializerState(Mode.LONG_TERM, state))
    serialize_text(save(value, SerializerState(Mode.LONG_TERM, state)))


def _seed_trees():
    """The golden files, and a Tuple of the types they lack: a GF(p) matrix,
    a rational and a Vector."""
    gf7 = ExactMatrix.from_rows(GF(7), [[1, 6], [0, 3]])
    value = (gf7, Fraction(-2, 3), [Fraction(1), Fraction(5, 2)])
    raw = serialize_text(save(value, SerializerState(Mode.LONG_TERM, GlobalSerializerState())))
    return [json.loads(path.read_bytes()) for path in GOLDEN] + [json.loads(raw)]


def test_mutated_documents_fail_only_with_mrdikit_errors():
    raws = [_text(tree, indent=2).encode() for tree in _mutants(1, _seed_trees())]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a mutated `_ns` version
        found = _non_mrdikit_failures(raws, _through_codec)
    assert not found, found[:5]


def _rekeyed(rng, tree):
    """``tree`` with the value under one key of one of its objects moved
    under a key that is not text, or ``tree`` itself when it holds no
    object."""
    objects = [(path, node) for path, node in _nodes(tree) if isinstance(node, dict) and node]
    if not objects:
        return tree
    path, node = rng.choice(objects)
    copy = dict(node)
    copy[_native(rng.choice([None, True, 0, 1.5, _BIG_NUMBER]))] = copy.pop(rng.choice(list(node)))
    return _replace(tree, path, copy)


def _in_memory_mutants(seed):
    """Parsed seed documents with, in memory, the data or type parameters of
    the document or of one of its refs mutated, or an object key in that
    data or in the refs table made native; a native 5000-digit number can
    stand where text would."""
    rng = random.Random(seed)
    raws = [json.dumps(tree).encode() for tree in _seed_trees()]
    for _ in range(CASES):
        doc = parse_text(rng.choice(raws))
        target = rng.choice([doc, *(doc.refs or {}).values()])
        part = rng.randrange(4)
        if part == 0:
            target.data = _native(_mutate(rng, target.data))
        elif part == 1:
            target.data = _rekeyed(rng, target.data)
        elif part == 2:
            name, params = type_parts(target.type_tree)
            target.type_tree = type_node(name, _native(_mutate(rng, params)))
        else:
            doc.refs = _rekeyed(rng, doc.refs or {})
        yield doc


# The problems ``validate_document`` finds that are not shape problems.
_NOT_SHAPE = re.compile(
    r"mode violation: |_ns: empty |[^ ]*: unknown type tag |dangling reference: |cyclic reference "
)


def test_documents_mutated_in_memory_validate_and_serialize_cleanly():
    # serialize_text refuses exactly the documents validate_document lists a
    # shape problem of, with the first problem listed, and parse_text reads
    # back what it writes.
    def run(doc):
        errors = validate_document(doc)
        assert isinstance(errors, list) and all(isinstance(e, str) for e in errors), errors
        shape = [e for e in errors if not _NOT_SHAPE.match(e)]
        try:
            raw = serialize_text(doc)
        except MrdiKitError as exc:
            assert shape and str(exc) == errors[0], (str(exc), errors)
            return
        assert not shape, shape
        try:
            parse_text(raw)
        except MrdiKitError as exc:
            raise AssertionError(f"parse_text refuses what serialize_text wrote: {exc}") from exc

    assert not _non_mrdikit_failures(_in_memory_mutants(5), run)


# -- frames --------------------------------------------------------------------


def _valid_frames():
    # Seeded UUIDs fix the order of the Call's `_refs`, so the fuzzers below
    # mutate the same cases on every run.
    ring, t = univariate_ring(ZZ, "t")
    S, (x, y) = polynomial_ring(QQ, "x", "y")
    state = SerializerState(Mode.IPC, GlobalSerializerState(uuid_seed=7), collect_new_refs=True)
    square = save((t * t + t.scale(3),), state)
    matrix = save(((ExactMatrix.from_rows(ring, [[t, t], [t, t]]), [x * y]),), state)
    (uuid_t, ring_t), (uuid_s, ring_s) = state.pending_refs.items()
    return [
        framing.Call(1, "identity", replace(matrix, refs={uuid_t: ring_t, uuid_s: ring_s})),
        framing.Call(2, "poly_square", replace(square, refs={uuid_t: ring_t})),
        framing.Call(3, "poly_square", square),
        framing.Call(4, "identity", matrix),
        framing.Result(5, replace(matrix, refs={uuid_s: ring_s})),
        framing.Failure(6, "kaboom"),
    ]


def _bad_refs(rng, refs):
    """The ``_refs`` of a Call's arguments made bad: not an object, one ref
    under a key that is no UUID, or one ref document mutated."""
    how = rng.randrange(3)
    if how == 0:
        return rng.choice([value for value in _WRONG_TYPED if not isinstance(value, dict)])
    uuid_key = rng.choice(list(refs))
    if how == 1:
        copy = dict(refs)
        copy[rng.choice(["", "x", "0", uuid_key.upper(), uuid_key[:-1]])] = copy.pop(uuid_key)
        return copy
    return {**refs, uuid_key: _mutate(rng, refs[uuid_key])}


def test_the_frame_fuzzers_start_from_the_same_frames_every_time():
    first, second = ([framing.encode_message(msg) for msg in _valid_frames()] for _ in range(2))
    assert first == second


def _payload_mutants(seed):
    """(kind, payload) pairs: a valid frame's payload mutated, its kind
    sometimes changed too; the ``_refs`` of a Call's arguments are sometimes
    made bad on purpose."""
    rng = random.Random(seed)
    frames = [framing.encode_message(msg) for msg in _valid_frames()]
    for payload in _mutants(seed, [payload for _, payload in frames]):
        args = payload.get("args") if isinstance(payload, dict) and "fn" in payload else None
        refs = args.get("_refs") if isinstance(args, dict) else None
        if isinstance(refs, dict) and refs and rng.random() < 0.3:
            payload = {**payload, "args": {**args, "_refs": _bad_refs(rng, refs)}}
        kind = rng.choice(frames)[0] if rng.random() < 0.8 else rng.randrange(8)
        yield kind, payload


def test_mutated_frame_payloads_fail_only_with_mrdikit_errors():
    cases = [(kind, _native(payload)) for kind, payload in _payload_mutants(2)]
    assert not _non_mrdikit_failures(cases, lambda case: framing.decode_message(*case))


def _frame(kind: int, body: bytes) -> bytes:
    return len(body).to_bytes(4, "big") + bytes([kind]) + body


def _streams(seed):
    """Worker input streams: one or two mutated frames after the valid Call
    that binds both contexts, their bytes sometimes cut or corrupted."""
    rng = random.Random(seed)
    valid = [framing.frame_bytes(msg) for msg in _valid_frames()[:1]]
    seconds = _payload_mutants(seed + 1)
    for kind, payload in _payload_mutants(seed):
        frames = [_frame(kind, _text(payload, separators=(",", ":")).encode())]
        if rng.random() < 0.3:
            kind, payload = next(seconds)
            frames.append(_frame(kind, _text(payload).encode()))
        data = bytearray(b"".join(valid + frames))
        damage = rng.randrange(4)
        if damage == 1:
            del data[rng.randrange(len(data)) :]
        elif damage == 2:
            data[rng.randrange(len(data))] = rng.randrange(256)
        elif damage == 3:  # a header that claims some other length
            at = sum(map(len, valid))
            data[at : at + 4] = rng.randrange(1 << 32).to_bytes(4, "big")
        yield bytes(data)


def test_mutated_frame_streams_fail_only_with_mrdikit_errors():
    def serve(data):
        WorkerLoop(io.BytesIO(data), io.BytesIO()).serve()

    assert not _non_mrdikit_failures(_streams(3), serve)


# -- the command line ------------------------------------------------------------


def _rejected_documents(seed, count):
    """The first ``count`` mutated documents that ``load`` rejects with 5000
    digits in them, and as many without."""
    rejected = {True: [], False: []}
    for tree in _mutants(seed, _seed_trees()):
        raw = _text(tree, indent=2).encode()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                _through_codec(raw)
        except Exception:  # at fault or not, the CLI must not trace back
            rejected[_DIGITS.encode() in raw].append(raw)
        if min(map(len, rejected.values())) >= count:
            return rejected[True][:count] + rejected[False][:count]
    raise AssertionError("too few rejected documents")


@pytest.mark.parametrize("command", ["roundtrip", "detcrt", "kernel"])
def test_the_cli_exits_2_with_one_error_line_on_mutated_files(tmp_path, capsys, command):
    for n, raw in enumerate(_rejected_documents(4, 3)):
        path = tmp_path / f"mutant{n}.mrdi"
        path.write_bytes(raw)
        out = str(tmp_path / "out.mrdi")
        argv = {
            "roundtrip": ["roundtrip", str(path)],
            "detcrt": ["detcrt", "--matrix", str(path), "--out", out],
            "kernel": ["kernel", "--map", str(path), "--degree", "2", "--out", out],
        }[command]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = cli.main(argv)
        err = capsys.readouterr().err
        assert code in (1, 2), (argv, err)
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
