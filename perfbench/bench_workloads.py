"""The four benchmark workloads and the measurements taken on them.

A solve goes from input document bytes to output document bytes: parse,
validate and load the input, compute, then save and serialize the result;
those two document halves are timed again after the solve for
``doc_read_s`` and ``doc_write_s``.  Pooled workloads spawn a fresh pool for
every solve, so each solve pays its own context preload and yields one
``setup_s`` sample (spawn until every worker has answered ``identity``);
pool spawn is outside ``solve_s``.  Unpooled workloads take ``setup_s`` from
pools started and stopped before their solves.  Every other end-to-end
metric is the median over the run's rounds (see ``run_solves``).
"""

from __future__ import annotations

import json
import os
import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from mrdikit.errors import MrdiKitError
from mrdikit.ipc import framing
from mrdikit.ipc.pool import spawn_pool
from mrdikit.mrdi import (
    DeserializerState,
    GlobalSerializerState,
    Mode,
    SerializerState,
    codec,
    document,
    textio,
)
from mrdikit.workloads import determinant, kernel
from mrdikit.algebra.primes import is_prime

import bench_inputs
import bench_trace
from bench_trace import RUN_ID_ENV, SPAN_DIR_ENV

POOL_WORKERS = 2
SETUP_SAMPLES_UNPOOLED = 5
MIN_SOLVES = 3
BLOCK_S = 0.5
DOC_REPEATS = 10
OUTPUT_UUID_SEED = 0x5EED
_CLK_TCK = os.sysconf("SC_CLK_TCK")
_perf = time.perf_counter


# -- process probes ------------------------------------------------------------


def _proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK  # utime + stime


def _peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return 0.0


def _cpu_now(pool) -> float:
    total = time.process_time()
    if pool is not None:
        total += sum(_proc_cpu_s(w.proc.pid) for w in pool.workers)
    return total


def start_pool(workers: int):
    """Spawn a pool and wait until every worker has answered ``identity``.
    Returns the pool and the seconds that took."""
    start = _perf()
    pool = spawn_pool(workers)
    try:
        args = codec.save((0,), SerializerState(Mode.IPC, pool.global_state))
        for worker in pool.workers:
            framing.write_message(worker.proc.stdin, framing.Call(-1, "identity", args))
        for worker in pool.workers:
            reply = framing.read_message(worker.proc.stdout)
            if not isinstance(reply, framing.Result):
                raise MrdiKitError(f"worker {worker.worker_id} did not answer identity: {reply!r}")
    except BaseException:
        pool.shutdown()
        raise
    return pool, _perf() - start


# -- results ---------------------------------------------------------------------


@dataclass
class Solve:
    """What one solve measured and produced."""

    solve_s: float
    read_s: float
    write_s: float
    cpu_s: float
    text_bytes: int
    output: bytes
    value: object
    errors: list[str] = field(default_factory=list)
    ops: int = 1
    generators: int = 0


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    samples: dict = field(default_factory=dict)  # metric -> one value per round
    peak_rss_mb: float = 0.0
    layers: dict = field(default_factory=dict)  # per-layer metric -> (value, unit)
    notes: list[str] = field(default_factory=list)

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"check failed: {message}", file=sys.stderr)


# -- workloads -----------------------------------------------------------------------


class SolveWorkload:
    """A workload that reads one input document, solves and writes one result."""

    name = ""
    workers = 0
    shape: dict = {}

    def __init__(self, seed: int):
        self.seed = seed
        self.check_rng = random.Random(seed ^ 0xC4EC)
        self.input_bytes = bench_inputs.long_term_bytes(self.make_input(seed), uuid_seed=seed)
        self.first_output = None

    def make_input(self, seed: int):
        raise NotImplementedError

    def compute(self, value, pool):
        raise NotImplementedError

    def check(self, solve: Solve) -> list[str]:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed work done once per invocation, before any solve."""

    def read(self):
        doc = textio.parse_text(self.input_bytes)
        errors = document.validate_document(doc)
        return codec.load(doc, DeserializerState(Mode.LONG_TERM, GlobalSerializerState())), errors

    def write(self, result) -> bytes:
        state = SerializerState(Mode.LONG_TERM, GlobalSerializerState(uuid_seed=OUTPUT_UUID_SEED))
        return textio.serialize_text(codec.save(result, state))

    def solve(self, pool) -> Solve:
        cpu0 = _cpu_now(pool)
        t0 = _perf()
        value, errors = self.read()
        t1 = _perf()
        result = self.compute(value, pool)
        t2 = _perf()
        output = self.write(result)
        t3 = _perf()
        cpu = _cpu_now(pool) - cpu0
        return Solve(
            t3 - t0, t1 - t0, t3 - t2, cpu, len(self.input_bytes) + len(output),
            output, (value, result), [f"input document: {e}" for e in errors],
        )

    def document_times(self, solve: Solve):
        """``doc_read_s`` and ``doc_write_s`` samples: the solve's own read
        and write, then ``DOC_REPEATS`` more of each, because one
        sub-millisecond sample per solve is too few to be steady."""
        reads, writes = [solve.read_s], [solve.write_s]
        result = solve.value[1]
        for _ in range(DOC_REPEATS):
            t0 = _perf()
            self.read()
            t1 = _perf()
            self.write(result)
            writes.append(_perf() - t1)
            reads.append(t1 - t0)
        return reads, writes

    def verify(self, solve: Solve, outcome: Outcome) -> None:
        errors = solve.errors + self.check(solve)
        if self.first_output is None:
            self.first_output = solve.output
        elif solve.output != self.first_output:
            errors.append("output bytes differ from the reference output")
        if errors:
            outcome.fail(f"{self.name}: " + "; ".join(errors))


def _det_mod(rows: list[list[int]], q: int) -> int:
    """Determinant mod a prime by Gaussian elimination (an independent check)."""
    n = len(rows)
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] % q), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det = det * rows[col][col] % q
        inv = pow(rows[col][col], -1, q)
        for r in range(col + 1, n):
            factor = rows[r][col] * inv % q
            if factor:
                rows[r] = [(a - factor * b) % q for a, b in zip(rows[r], rows[col])]
    return det % q


def _eval_mod(poly, point: int, q: int) -> int:
    return sum(c * pow(point, m[0], q) for m, c in poly.terms) % q


class DetcrtWorkload(SolveWorkload):
    heuristic = False
    check_points = 2

    def make_input(self, seed):
        return bench_inputs.detcrt_matrix(seed, self.shape)

    def compute(self, value, pool):
        return determinant.modular_determinant(value, pool=pool, heuristic=self.heuristic)

    def check(self, solve):
        """det(M)(x) == det(M(x)) mod q at random points, with primes q below
        2^30, outside the descending-from-2^31 primes the solver uses."""
        matrix, det = solve.value
        errors = []
        for _ in range(self.check_points):
            q = 0
            while not is_prime(q):
                q = self.check_rng.randrange(2**29, 2**30)
            x = self.check_rng.randrange(q)
            rows = [[_eval_mod(e, x, q) for e in matrix.row(i)] for i in range(matrix.nrows)]
            if _eval_mod(det, x, q) != _det_mod(rows, q):
                errors.append(f"det mismatch at t={x} mod {q}")
        return errors


class DetcrtPool(DetcrtWorkload):
    name = "detcrt-pool"
    workers = POOL_WORKERS
    shape = bench_inputs.DETCRT_POOL_SHAPE


class DetcrtHeuristic(DetcrtWorkload):
    name = "detcrt-heuristic"
    workers = 0
    heuristic = True
    shape = bench_inputs.DETCRT_HEURISTIC_SHAPE


class KernelPool(SolveWorkload):
    name = "kernel-pool"
    workers = POOL_WORKERS
    shape = bench_inputs.KERNEL_SHAPE

    def make_input(self, seed):
        return bench_inputs.kernel_map(seed, self.shape)

    def compute(self, value, pool):
        components = kernel.components_of_kernel(value, self.shape["total_degree"], pool=pool)
        return [(list(md), gens) for md, gens in sorted(components.items())]

    def solve(self, pool) -> Solve:
        solve = super().solve(pool)
        solve.generators = sum(len(gens) for _, gens in solve.value[1])
        return solve

    def prepare(self):
        # The serial reference, computed once and untimed.
        self.first_output = self.solve(None).output

    def check(self, solve):
        """Every generator maps to zero.  This checks membership only: the
        grading by total degree drops kernel elements that mix degrees, so
        completeness is not checked (``kernel.generators`` counts them)."""
        phi, components = solve.value
        return [
            f"generator {gen!r} does not map to zero"
            for _, gens in components
            for gen in gens
            if not kernel.evaluate_map(phi, gen).is_zero
        ]


class MrdiDocs:
    """Read and write a seeded corpus of long-term and IPC documents.

    One solve is a pass over the corpus: for every document, read its bytes
    (parse, validate, load) and write it back (save, serialize).  Each
    document must load back equal and re-serialize byte-identically.
    """

    name = "mrdi-docs"
    workers = 0
    shape = bench_inputs.DOCS_SHAPE

    def __init__(self, seed: int):
        self.seed = seed
        long_term, ipc = bench_inputs.docs_corpus(seed, self.shape)
        self.ipc_state = GlobalSerializerState(uuid_seed=seed)
        self.docs = []
        for index, (label, value) in enumerate(long_term):
            raw = bench_inputs.long_term_bytes(value, uuid_seed=seed + index)
            self.docs.append((label, Mode.LONG_TERM, value, raw))
        for label, value in ipc:
            state = SerializerState(Mode.IPC, self.ipc_state, collect_new_refs=True)
            raw = textio.serialize_text(codec.save(value, state))
            self.docs.append((label, Mode.IPC, value, raw))

    def prepare(self):
        self.solve(None)

    def solve(self, pool) -> Solve:
        read_s = write_s = 0.0
        text_bytes = 0
        cpu0 = _cpu_now(None)
        results = []
        for label, mode, value, raw in self.docs:
            t0 = _perf()
            doc = textio.parse_text(raw)
            gstate = GlobalSerializerState() if mode is Mode.LONG_TERM else self.ipc_state
            problems = document.validate_document(doc, None if mode is Mode.LONG_TERM else gstate)
            loaded = codec.load(doc, DeserializerState(mode, gstate))
            t1 = _perf()
            out = textio.serialize_text(codec.save(loaded, SerializerState(mode, gstate)))
            t2 = _perf()
            read_s += t1 - t0
            write_s += t2 - t1
            text_bytes += len(raw) + len(out)
            results.append((loaded, out, problems))
        cpu = _cpu_now(None) - cpu0
        return Solve(
            read_s + write_s, read_s, write_s, cpu, text_bytes, b"", results, ops=len(self.docs)
        )

    def document_times(self, solve: Solve):
        return [solve.read_s], [solve.write_s]

    def verify(self, solve: Solve, outcome: Outcome) -> None:
        for (label, _, value, raw), (loaded, out, problems) in zip(self.docs, solve.value):
            if loaded != value:
                problems.append("loaded value differs from the original")
            if out != raw:
                problems.append("re-serialization is not byte-identical")
            if problems:
                outcome.fail(f"{self.name}: {label}: " + "; ".join(problems))


WORKLOADS = {cls.name: cls for cls in (DetcrtPool, DetcrtHeuristic, KernelPool, MrdiDocs)}


# -- measurement ---------------------------------------------------------------------


def run_solves(workload, outcome: Outcome, seconds: float, recorder=None, span_dir=None):
    """Solve repeatedly for ``seconds`` (at least ``MIN_SOLVES`` times),
    verifying every output.  Returns the solve times and, with a recorder,
    each traced solve with its spans and counts (coordinator and workers
    merged)."""
    times, traced = [], []
    # An unpooled solve runs on one CPU, and on a shared host the CPUs can
    # differ in speed for minutes at a time.  Such solves rotate over every
    # usable CPU in blocks of at least ``BLOCK_S``; a round is one block per
    # CPU (one block for pooled workloads), and each metric records the mean
    # of each round, so a run's figures do not depend on where it landed.
    cpus = sorted(os.sched_getaffinity(0))
    rotate = [] if workload.workers else cpus
    per_round = max(len(rotate), 1)
    pending: dict = {}
    block = 0
    start = block_start = _perf()
    index = 0
    while True:
        now = _perf()
        if index and now - block_start >= BLOCK_S:
            block += 1
            block_start = now
            if block % per_round == 0:
                _flush_round(outcome, pending)
                if index >= MIN_SOLVES and now - start >= seconds:
                    break
        if rotate:
            os.sched_setaffinity(0, {rotate[block % per_round]})
        index += 1
        pool = None
        pids = []
        try:
            if workload.workers:
                if recorder is not None:
                    os.environ[RUN_ID_ENV] = str(index)
                pool, setup_s = start_pool(workload.workers)
                outcome.add("setup_s", setup_s)
                pids = [w.proc.pid for w in pool.workers]
            if recorder is None:
                solve = workload.solve(pool)
            else:
                recorder.take_counts()
                recorder.run_id = index
                try:
                    solve = recorder.span("bench.solve", workload.solve)(pool)
                finally:
                    recorder.run_id = None
                    counts = recorder.take_counts()
            if pool is not None:
                peaks = [_peak_rss_mb(pid) for pid in pids]
                outcome.peak_rss_mb = max([outcome.peak_rss_mb] + peaks)
        except Exception as exc:  # noqa: BLE001 - a failed solve is counted, not fatal
            outcome.attempted += 1
            outcome.fail(f"{workload.name}: solve raised {exc!r}")
            continue
        finally:
            if pool is not None:
                pool.shutdown()
        outcome.attempted += solve.ops
        workload.verify(solve, outcome)
        times.append(solve.solve_s)
        pending.setdefault("solve_s", []).append(solve.solve_s)
        pending.setdefault("cpu_s", []).append(solve.cpu_s)
        if recorder is None:
            reads, writes = workload.document_times(solve)
            pending.setdefault("doc_read_s", []).extend(reads)
            pending.setdefault("doc_write_s", []).extend(writes)
        else:
            spans = [s for s in recorder.spans if s[5] == index]
            solve_start = min(s[3] for s in spans)
            for pid in pids:
                worker_counts, worker_spans = _read_worker_spans(span_dir, pid)
                counts.update(worker_counts)
                spans += [tuple(s) for s in worker_spans if s[3] >= solve_start]
            extra = {"kernel.generators": solve.generators, "textio.bytes": solve.text_bytes}
            traced.append((spans, counts, extra))
    os.sched_setaffinity(0, cpus)
    outcome.peak_rss_mb = max(outcome.peak_rss_mb, _peak_rss_mb(os.getpid()))
    return times, traced


def _flush_round(outcome: Outcome, pending: dict) -> None:
    for metric, values in pending.items():
        outcome.add(metric, statistics.fmean(values))
    pending.clear()


def _read_worker_spans(span_dir: Path, pid: int):
    path = span_dir / f"worker-{pid}.jsonl"
    with open(path, encoding="utf-8") as fh:
        counts = json.loads(fh.readline())["counts"]
        spans = [json.loads(line) for line in fh]
    path.unlink()
    return counts, spans


def measure(workload, seconds: float) -> Outcome:
    """End-to-end run, tracing off."""
    outcome = Outcome()
    workload.prepare()
    if not workload.workers:
        for _ in range(SETUP_SAMPLES_UNPOOLED):
            pool, setup_s = start_pool(POOL_WORKERS)
            pool.shutdown()
            outcome.add("setup_s", setup_s)
    run_solves(workload, outcome, seconds)
    return outcome


def measure_traced(workload, seconds: float, out_dir: Path) -> Outcome:
    """Untraced solves for half the time, then traced solves for the other
    half; per-layer metrics are medians over the traced solves."""
    outcome = Outcome()
    workload.prepare()
    untraced, _ = run_solves(workload, outcome, seconds / 2)

    span_dir = out_dir / "spans"
    span_dir.mkdir(parents=True, exist_ok=True)
    recorder = bench_trace.Recorder()
    bench_trace.install(recorder, bench_trace.COORDINATOR_PROBES)
    os.environ["MRDI_WORKER_INIT"] = "bench_worker"
    os.environ[SPAN_DIR_ENV] = str(span_dir)
    try:
        _, traced = run_solves(workload, outcome, seconds / 2, recorder, span_dir)
    finally:
        del os.environ["MRDI_WORKER_INIT"]

    per_solve, call_ms, all_spans = [], [], []
    for spans, counts, extra in traced:
        metrics, calls = bench_trace.solve_layers(
            spans, counts, workload.workers, recorder.pid, extra
        )
        per_solve.append(metrics)
        call_ms += calls
        all_spans += spans
    layers = {}
    for metric, unit in bench_trace.PER_LAYER:
        values = [m[metric] for m in per_solve if metric in m]
        exact = unit in ("count", "B")
        if exact and len(set(values)) > 1:
            outcome.fail(f"{workload.name}: count {metric} differs across traced solves: {values}")
        median = statistics.median_low if exact else statistics.median
        layers[metric] = (median(values) if values else 0, unit)
    # Pool call times are pooled over the traced solves for a deeper tail.
    found = bench_trace.tail(call_ms)
    layers["pool.call_ms.p50"] = (statistics.median(call_ms) if call_ms else 0.0, "ms")
    layers["pool.call_ms.tail"] = (found[1] if found else 0.0, "ms")
    base = statistics.median(untraced) if untraced else 0.0
    traced_s = layers["trace.solve_s"][0]
    layers["trace.overhead_frac"] = (traced_s / base - 1.0 if base and traced_s else 0.0, "ratio")
    outcome.layers = layers
    outcome.notes = [
        f"pool.call_ms.tail is p{found[0]:g} of {len(call_ms)} calls" if found
        else f"pool.call_ms.tail: {len(call_ms)} calls, no percentile has 10 beyond it",
        f"trace.overhead_frac: traced solve_s median over untraced median "
        f"{base:.6f} s ({len(untraced)} solves), minus 1",
    ] + _breakdown(all_spans, recorder.pid, len(traced))
    trace_path = out_dir / f"trace-{workload.name}-seed{workload.seed}.jsonl"
    with open(trace_path, "w", encoding="utf-8") as fh:
        for span in recorder.spans + [s for s in all_spans if s[6] != recorder.pid]:
            fh.write(json.dumps(span) + "\n")
    outcome.notes.append(f"spans written to {trace_path}")
    return outcome


def _breakdown(spans, coordinator_pid: int, solves: int) -> list[str]:
    """Per traced solve: calls, inclusive and self seconds by layer and side."""
    lines = [f"per traced solve ({solves}), by layer: calls, inclusive s, self s"]
    for side, chosen in (
        ("coordinator", [s for s in spans if s[6] == coordinator_pid]),
        ("workers", [s for s in spans if s[6] != coordinator_pid]),
    ):
        totals = bench_trace.layer_totals(chosen)
        for name, (calls, incl, self_s) in sorted(totals.items(), key=lambda kv: -kv[1][2]):
            lines.append(
                f"  {side:<12} {name:<42} {calls / solves:>9.1f} "
                f"{incl / solves:>10.6f} {self_s / solves:>10.6f}"
            )
    return lines
