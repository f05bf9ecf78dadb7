"""Command-line front end.

Subcommands: ``roundtrip`` and ``validate`` for mrdi files, ``detcrt`` and
``kernel`` for the two workloads, ``bench`` for seeded synthetic timing runs.
Exit codes: 0 success, 1 semantic failure, 2 bad input, 3 distributed
failure.  A command returns 0 or 1 and raises for anything else; ``main``
alone maps what it raises to 2 or 3 and one stderr line, through the table
``_EXIT_CODES``.  ``mrdikit --worker`` runs the worker-process loop in place of
a command, under the same table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import stat
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

from .algebra.matrices import _require_univariate_square
from .algebra.rings import IntegerRing
from .errors import (
    MrdiKitError,
    PoolClosedError,
    SchemaError,
    TransportError,
    ValidationError,
    WorkerFailure,
    quote,
)
from .ipc.pool import spawn_pool
from .ipc.worker import worker_main
from .mrdi.codec import load, save
from .mrdi.document import Mode
from .mrdi.states import DeserializerState, GlobalSerializerState, SerializerState
from .mrdi.textio import parse_text, serialize_text
from .mrdi.document import validate_document
from .workloads.determinant import modular_determinant
from .workloads.kernel import MonomialMap, components_of_kernel
from .workloads.synthetic import (
    KERNEL_TOTAL_DEGREE,
    detcrt_instance,
    kernel_instance,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_BAD_INPUT = 2
EXIT_DISTRIBUTED = 3


@dataclass
class RunReport:
    workload: str
    input_digest: str
    workers: int
    seconds: float
    startup_s: float
    result_digest: str
    result_path: str

    def line(self) -> str:
        return (
            f"{self.workload:<18} workers={self.workers:<3d} "
            f"time={self.seconds:9.3f}s startup={self.startup_s:7.3f}s "
            f"input={self.input_digest[:12]} "
            f"result={self.result_digest[:12]} out={self.result_path}"
        )


def _digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def _seed_from(raw: bytes) -> int:
    return int.from_bytes(hashlib.sha256(raw).digest()[:8], "big")


def _read_bytes(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise MrdiKitError(f"cannot read {path}: {exc}") from exc


def _emit_report(reports, as_json: bool) -> None:
    if as_json:
        payload = [asdict(r) for r in reports]
        print(json.dumps(payload if len(payload) != 1 else payload[0], indent=2))
    else:
        for report in reports:
            print(report.line())


# -- file commands -------------------------------------------------------------


def cmd_roundtrip(args) -> int:
    raw = _read_bytes(args.path)
    state = GlobalSerializerState()
    value = load(parse_text(raw), DeserializerState(Mode.LONG_TERM, state))
    out = serialize_text(save(value, SerializerState(Mode.LONG_TERM, state)))
    if out == raw:
        print(f"{args.path}: canonical round-trip, {len(raw)} bytes")
        return EXIT_OK
    original = raw.decode("utf-8", "replace").splitlines()
    regenerated = out.decode("utf-8", "replace").splitlines()
    print(f"{args.path}: NOT byte-identical after round-trip")
    shown = 0
    for i, (a, b) in enumerate(zip(original, regenerated)):
        if a != b:
            print(f"  line {i + 1}: {quote(a)} -> {quote(b)}")
            shown += 1
            if shown >= 5:
                break
    if len(original) != len(regenerated):
        print(f"  line count {len(original)} -> {len(regenerated)}")
    return EXIT_FAILURE


def cmd_validate(args) -> int:
    raw = _read_bytes(args.path)
    try:
        doc = parse_text(raw)
    except SchemaError as exc:
        print(exc)
        return EXIT_FAILURE
    errors = validate_document(doc)
    if not errors:
        try:
            load(doc, DeserializerState(Mode.LONG_TERM, GlobalSerializerState()))
        except MrdiKitError as exc:
            errors = [str(exc)]
    for error in errors:
        print(error)
    return EXIT_OK if not errors else EXIT_FAILURE


# -- workload commands -----------------------------------------------------------


def _load_value(raw: bytes):
    doc = parse_text(raw)
    return load(doc, DeserializerState(Mode.LONG_TERM, GlobalSerializerState()))


def _write_atomic(path: Path, raw: bytes) -> None:
    """Write ``raw`` to ``path``, through a symlink if it is one.

    A regular file we own with a single link, or a missing one, is replaced
    by renaming a temporary file from beside it: a failed or interrupted write
    leaves an existing file untouched and no partial file behind, and the new
    file keeps the old one's mode (else the umask's).  Anything else, such as
    a device, a FIFO or a file with other links or another owner, is written
    into as a plain write would, since a rename would replace it."""
    target = Path(os.path.realpath(path))
    try:
        old = target.stat()
    except FileNotFoundError:
        old = None
    if old is not None and not (
        stat.S_ISREG(old.st_mode)
        and old.st_nlink == 1
        and (old.st_uid, old.st_gid) == (os.geteuid(), os.getegid())
    ):
        target.write_bytes(raw)
        return
    tmp = target.with_name(f".{target.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            if old is not None:
                os.fchmod(fd, stat.S_IMODE(old.st_mode))
            fh.write(raw)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_file(path, raw: bytes) -> None:
    try:
        _write_atomic(Path(path), raw)
    except OSError as exc:
        raise MrdiKitError(f"cannot write {path}: {exc}") from exc


def _write_result(value, out_path: str, seed: int) -> bytes:
    """The long-term bytes of ``value``, written to ``out_path``."""
    state = SerializerState(Mode.LONG_TERM, GlobalSerializerState(uuid_seed=seed))
    raw = serialize_text(save(value, state))
    _write_file(out_path, raw)
    return raw


def _with_pool(workers: int, fn):
    """``fn(None)`` for no workers, else ``fn(pool)`` on a fresh pool whose
    workers have all started up, so a clock ``fn`` starts excludes start-up.
    Returns that and the start-up seconds: from spawn until every worker has
    answered, 0 for no workers."""
    if workers <= 0:
        return fn(None), 0.0
    start = time.perf_counter()
    pool = spawn_pool(workers)
    try:
        pool.wait_ready()
        startup = time.perf_counter() - start
        return fn(pool), startup
    finally:
        pool.shutdown()


def _timed(fn, *args, **kwargs):
    """``fn``'s result and the seconds it took."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def _detcrt(matrix, workers: int):
    """The determinant and its seconds, and the start-up seconds of the pool
    it ran on."""
    return _with_pool(workers, lambda pool: _timed(modular_determinant, matrix, pool=pool))


def _kernel(phi, workers: int, degree: int = KERNEL_TOTAL_DEGREE, minimalize: bool = True):
    """The kernel components as one savable value and their seconds, and no
    start-up: the kernel runs in this process at every worker count."""
    components, seconds = _timed(components_of_kernel, phi, degree, minimalize=minimalize)
    return ([(list(md), gens) for md, gens in sorted(components.items())], seconds), 0.0


def _run(workload: str, solve, value, workers: int, input_raw: bytes, out_path) -> RunReport:
    """``solve(value, workers)``, its result written to ``out_path`` with
    UUIDs seeded from ``input_raw``, and the report of the run."""
    (result, seconds), startup = solve(value, workers)
    out_path = str(out_path)
    out_raw = _write_result(result, out_path, _seed_from(input_raw))
    return RunReport(
        workload, _digest(input_raw), max(workers, 0), seconds, startup, _digest(out_raw), out_path
    )


def cmd_detcrt(args) -> int:
    raw = _read_bytes(args.matrix)
    matrix = _load_value(raw)
    _require_univariate_square(matrix, IntegerRing, "ZZ")
    _emit_report([_run("detcrt", _detcrt, matrix, args.workers, raw, args.out)], args.json)
    return EXIT_OK


def cmd_kernel(args) -> int:
    raw = _read_bytes(args.map)
    if args.degree < 1:
        raise ValidationError("--degree must be at least 1")
    phi = _load_value(raw)
    if not isinstance(phi, MonomialMap):
        raise ValidationError("input does not decode to a monomial map")
    solve = partial(_kernel, degree=args.degree, minimalize=not args.no_minimalize)
    _emit_report([_run("kernel", solve, phi, 0, raw, args.out)], args.json)
    return EXIT_OK


# Each bench suite: the workload that names its files, the seeded instance,
# and how it is solved at a worker count.
_SUITES = {
    "detcrt-synthetic": ("detcrt", detcrt_instance, _detcrt),
    "kernel-synthetic": ("kernel", kernel_instance, _kernel),
}


def cmd_bench(args) -> int:
    try:
        worker_counts = [int(w) for w in args.workers.split(",") if w != ""]
    except ValueError:
        worker_counts = []
    if not worker_counts or min(worker_counts) < 0:
        raise ValidationError(f"bad --workers list {args.workers!r}")
    try:
        out_dir = Path(args.out_dir or tempfile.mkdtemp(prefix="mrdikit-bench-"))
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        where = args.out_dir or tempfile.gettempdir()
        raise MrdiKitError(f"cannot write {where}: {exc}") from exc

    workload, make_instance, solve = _SUITES[args.suite]
    instance = make_instance()
    input_raw = serialize_text(
        save(instance, SerializerState(Mode.LONG_TERM, GlobalSerializerState(uuid_seed=1)))
    )
    _write_file(out_dir / f"{workload}-instance.mrdi", input_raw)
    reports = [
        _run(args.suite, solve, instance, count, input_raw, out_dir / f"{workload}-w{count}.mrdi")
        for count in worker_counts
    ]
    _emit_report(reports, args.json)
    agree = len({r.result_digest for r in reports}) == 1
    verdict = f"result digests {'agree' if agree else 'DIFFER'} across worker counts"
    if not args.json:
        print(verdict)
    elif not agree:
        print(f"error: {verdict}", file=sys.stderr)
    return EXIT_OK if agree else EXIT_FAILURE


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrdikit",
        description="mrdi files, worker pools, and the two exact workloads",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roundtrip", help="parse, load, re-save, byte-compare")
    p.add_argument("path")
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("validate", help="check a file's document invariants, then load it")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("detcrt", help="modular determinant of a ZZ[t] matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--workers", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_detcrt)

    p = sub.add_parser("kernel", help="kernel components of a monomial map")
    p.add_argument("--map", required=True)
    p.add_argument("--degree", type=int, required=True, help="|md| <= DEGREE * min image degree")
    p.add_argument("--no-minimalize", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("bench", help="seeded synthetic instances at several worker counts")
    p.add_argument("--suite", required=True, choices=list(_SUITES))
    p.add_argument("--workers", default="0")
    p.add_argument(
        "--out-dir",
        help="where the instance and results are written; by default a new "
        "mrdikit-bench-* directory under the temporary directory, which is kept",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bench)

    return parser


# The one place an exception becomes an exit code: the first class of
# ``type(exc).__mro__`` found here gives the code and the stderr line.  The
# commands raise; an exception outside this table is a bug and a traceback.
# A BrokenPipeError reaches here only from standard output, since the file
# helpers turn every OSError into a MrdiKitError.
_EXIT_CODES = {
    WorkerFailure: (EXIT_DISTRIBUTED, "worker failure: {}"),
    TransportError: (EXIT_DISTRIBUTED, "worker failure: {}"),
    PoolClosedError: (EXIT_DISTRIBUTED, "worker failure: {}"),
    MrdiKitError: (EXIT_BAD_INPUT, "error: {}"),
    BrokenPipeError: (EXIT_BAD_INPUT, "error: cannot write standard output: {}"),
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = None if argv[:1] == ["--worker"] else build_parser().parse_args(argv)
    try:
        code = worker_main() if args is None else args.func(args)
        sys.stdout.flush()
    except tuple(_EXIT_CODES) as exc:
        if isinstance(exc, BrokenPipeError):
            # Whoever read stdout has gone (``mrdikit bench | head -1``).  Point
            # stdout at /dev/null so the flush at exit cannot fail again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code, line = next(_EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in _EXIT_CODES)
        print(line.format(exc), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
