"""Command-line front end.

Subcommands: ``roundtrip`` and ``validate`` for mrdi files, ``detcrt`` and
``kernel`` for the two workloads, ``bench`` for seeded synthetic timing runs.
Exit codes: 0 success, 1 semantic failure, 2 bad input, 3 distributed
failure.  ``mrdikit --worker`` runs the worker-process loop instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from .algebra.matrices import ExactMatrix
from .algebra.rings import IntegerRing, UnivariatePolyRing
from .errors import (
    MrdiKitError,
    PoolClosedError,
    SchemaError,
    TransportError,
    ValidationError,
    WorkerFailure,
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
    result_digest: str
    result_path: str

    def line(self) -> str:
        return (
            f"{self.workload:<18} workers={self.workers:<3d} "
            f"time={self.seconds:9.3f}s input={self.input_digest[:12]} "
            f"result={self.result_digest[:12]} out={self.result_path}"
        )


def _digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def _seed_from(raw: bytes) -> int:
    return int.from_bytes(hashlib.sha256(raw).digest()[:8], "big")


def _read_bytes(path: str):
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None


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
    if raw is None:
        return EXIT_BAD_INPUT
    state = GlobalSerializerState()
    try:
        doc = parse_text(raw)
        value = load(doc, DeserializerState(Mode.LONG_TERM, state))
    except MrdiKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
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
            print(f"  line {i + 1}: {a!r} -> {b!r}")
            shown += 1
            if shown >= 5:
                break
    if len(original) != len(regenerated):
        print(f"  line count {len(original)} -> {len(regenerated)}")
    return EXIT_FAILURE


def cmd_validate(args) -> int:
    raw = _read_bytes(args.path)
    if raw is None:
        return EXIT_BAD_INPUT
    try:
        doc = parse_text(raw)
    except SchemaError as exc:
        print(f"/: {exc}")
        return EXIT_FAILURE
    errors = validate_document(doc)
    for error in errors:
        print(error)
    return EXIT_OK if not errors else EXIT_FAILURE


# -- workload commands -----------------------------------------------------------


def _load_value(raw: bytes):
    doc = parse_text(raw)
    return load(doc, DeserializerState(Mode.LONG_TERM, GlobalSerializerState()))


def _write_result(value, out_path: str, seed: int) -> bytes:
    state = SerializerState(Mode.LONG_TERM, GlobalSerializerState(uuid_seed=seed))
    raw = serialize_text(save(value, state))
    Path(out_path).write_bytes(raw)
    return raw


def _with_pool(workers: int, fn):
    if workers <= 0:
        return fn(None)
    pool = spawn_pool(workers)
    try:
        return fn(pool)
    finally:
        pool.shutdown()


def _components_value(components):
    return [(list(md), gens) for md, gens in sorted(components.items())]


def cmd_detcrt(args) -> int:
    raw = _read_bytes(args.matrix)
    if raw is None:
        return EXIT_BAD_INPUT
    try:
        matrix = _load_value(raw)
        if not isinstance(matrix, ExactMatrix):
            raise ValidationError("input does not decode to a matrix")
        desc = matrix.parent.descriptor
        if not isinstance(desc, UnivariatePolyRing) or not isinstance(desc.base, IntegerRing):
            raise ValidationError("matrix must live over a univariate ring over ZZ")
        if not matrix.is_square:
            raise ValidationError("matrix must be square")
    except MrdiKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        def run(pool):
            start = time.perf_counter()
            det = modular_determinant(matrix, pool=pool, heuristic=args.heuristic)
            return det, time.perf_counter() - start

        det, seconds = _with_pool(args.workers, run)
    except (WorkerFailure, TransportError, PoolClosedError) as exc:
        print(f"worker failure: {exc}", file=sys.stderr)
        return EXIT_DISTRIBUTED
    out_raw = _write_result(det, args.out, _seed_from(raw))
    report = RunReport(
        "detcrt", _digest(raw), max(args.workers, 0), seconds, _digest(out_raw), args.out
    )
    _emit_report([report], args.json)
    return EXIT_OK


def cmd_kernel(args) -> int:
    raw = _read_bytes(args.map)
    if raw is None:
        return EXIT_BAD_INPUT
    if args.degree < 1:
        print("error: --degree must be at least 1", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        phi = _load_value(raw)
        if not isinstance(phi, MonomialMap):
            raise ValidationError("input does not decode to a monomial map")
    except MrdiKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        def run(pool):
            start = time.perf_counter()
            components = components_of_kernel(
                phi, args.degree, pool=pool, minimalize=not args.no_minimalize
            )
            return components, time.perf_counter() - start

        components, seconds = _with_pool(args.workers, run)
    except (WorkerFailure, TransportError, PoolClosedError) as exc:
        print(f"worker failure: {exc}", file=sys.stderr)
        return EXIT_DISTRIBUTED
    out_raw = _write_result(_components_value(components), args.out, _seed_from(raw))
    report = RunReport(
        "kernel", _digest(raw), max(args.workers, 0), seconds, _digest(out_raw), args.out
    )
    _emit_report([report], args.json)
    return EXIT_OK


def cmd_bench(args) -> int:
    try:
        worker_counts = [int(w) for w in args.workers.split(",") if w != ""]
    except ValueError:
        print(f"error: bad --workers list {args.workers!r}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if not worker_counts or any(w < 0 for w in worker_counts):
        print(f"error: bad --workers list {args.workers!r}", file=sys.stderr)
        return EXIT_BAD_INPUT
    out_dir = Path(args.out_dir or tempfile.mkdtemp(prefix="mrdikit-bench-"))
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.suite == "detcrt-synthetic":
        instance = detcrt_instance()
        workload = "detcrt"

        def compute(pool):
            return modular_determinant(instance, pool=pool)

    else:
        instance = kernel_instance()
        workload = "kernel"

        def compute(pool):
            return components_of_kernel(instance, KERNEL_TOTAL_DEGREE, pool=pool)

    instance_path = out_dir / f"{workload}-instance.mrdi"
    input_raw = serialize_text(
        save(instance, SerializerState(Mode.LONG_TERM, GlobalSerializerState(uuid_seed=1)))
    )
    instance_path.write_bytes(input_raw)
    seed = _seed_from(input_raw)

    reports = []
    for count in worker_counts:
        try:
            def run(pool):
                start = time.perf_counter()
                result = compute(pool)
                return result, time.perf_counter() - start

            result, seconds = _with_pool(count, run)
        except (WorkerFailure, TransportError, PoolClosedError) as exc:
            print(f"worker failure at {count} workers: {exc}", file=sys.stderr)
            return EXIT_DISTRIBUTED
        if workload == "kernel":
            result = _components_value(result)
        out_path = out_dir / f"{workload}-w{count}.mrdi"
        out_raw = _write_result(result, str(out_path), seed)
        reports.append(
            RunReport(
                f"{workload}-synthetic",
                _digest(input_raw),
                count,
                seconds,
                _digest(out_raw),
                str(out_path),
            )
        )
    _emit_report(reports, args.json)
    if not args.json:
        digests = {r.result_digest for r in reports}
        print(
            f"result digests {'agree' if len(digests) == 1 else 'DIFFER'} "
            f"across worker counts"
        )
    return EXIT_OK


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

    p = sub.add_parser("validate", help="check a file against the document invariants")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("detcrt", help="modular determinant of a ZZ[t] matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--workers", type=int, default=0)
    p.add_argument("--heuristic", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_detcrt)

    p = sub.add_parser("kernel", help="kernel components of a monomial map")
    p.add_argument("--map", required=True)
    p.add_argument("--degree", type=int, required=True, help="|md| <= DEGREE * min image degree")
    p.add_argument("--workers", type=int, default=0)
    p.add_argument("--no-minimalize", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("bench", help="seeded synthetic instances at several worker counts")
    p.add_argument("--suite", required=True, choices=["detcrt-synthetic", "kernel-synthetic"])
    p.add_argument("--workers", default="0")
    p.add_argument("--out-dir")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv[:1] == ["--worker"]:
        return worker_main()
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
