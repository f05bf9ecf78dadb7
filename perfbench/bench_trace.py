"""In-memory spans and counters, recorded by wrapping mrdikit's public functions.

Nothing under ``src/`` is edited: ``install`` replaces the names that the
calling modules imported (``mrdikit.ipc.pool.save``, ``determinant.det_mod_p``
and so on) with wrappers that time each call.  The coordinator installs
``COORDINATOR_PROBES``; workers install ``WORKER_PROBES`` from
``bench_worker``, which the pool imports through ``MRDI_WORKER_INIT``.

A span is ``(id, parent, name, start, end, run_id, pid)``.  Spans stay in
memory until the benchmark writes them out at exit.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import os
import threading
import time
from collections import Counter

# Environment a traced pool hands its workers: where to write their spans,
# and the solve they belong to.
SPAN_DIR_ENV = "PERFBENCH_SPAN_DIR"
RUN_ID_ENV = "PERFBENCH_RUN_ID"

_perf = time.perf_counter


class Recorder:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.run_id = None
        self.pid = os.getpid()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        # Pool runner threads start with an empty stack; their calls belong
        # to the main-thread span that started them (``parallel_map``).
        if stack:
            return stack[-1]
        if self._main_stack:
            return self._main_stack[-1]
        return None

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = self._parent(stack)
            stack.append(span_id)
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _perf()
                stack.pop()
                self.spans.append((span_id, parent, name, start, end, self.run_id, self.pid))

        return traced

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.add(name)
            return fn(*args, **kwargs)

        return counted

    def add(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def framed_writer(self, prefix: str, fn):
        """Wrap ``write_message(stream, msg)``: a span plus frame and byte
        counts by message kind, taken from what reaches the stream."""
        traced = self.span(f"{prefix}write_message", fn)

        @functools.wraps(fn)
        def write(stream, msg):
            counting = _CountingStream(stream)
            try:
                return traced(counting, msg)
            finally:
                kind = _kind(msg)
                self.add(f"{prefix}frames_sent")
                self.add(f"{prefix}frames_sent.{kind}")
                self.add(f"{prefix}bytes_sent.{kind}", counting.nbytes)

        return write

    def framed_reader(self, prefix: str, fn):
        traced = self.span(f"{prefix}read_message", fn)

        @functools.wraps(fn)
        def read(stream):
            counting = _CountingStream(stream)
            msg = traced(counting)
            if msg is not None:
                self.add(f"{prefix}frames_recv")
                self.add(f"{prefix}bytes_recv.{_kind(msg)}", counting.nbytes)
            return msg

        return read

    def take_counts(self) -> Counter:
        with self._lock:
            counts, self.counts = self.counts, Counter()
        return counts


class _CountingStream:
    def __init__(self, stream):
        self.stream = stream
        self.nbytes = 0

    def write(self, data):
        self.nbytes += len(data)
        return self.stream.write(data)

    def read(self, n):
        data = self.stream.read(n)
        self.nbytes += len(data)
        return data

    def flush(self):
        return self.stream.flush()


def _kind(msg) -> str:
    name = type(msg).__name__
    return {"LoadContext": "load_context"}.get(name, name.lower())


# (module, attribute, probe kind, layer name).  Class attributes are written
# "Class.method".
ALGEBRA_PROBES = [
    ("mrdikit.workloads.determinant", "det_mod_p", "span", "determinant.det_mod_p"),
    ("mrdikit.workloads.determinant", "degree_bound", "count", "determinant.degree_bound"),
    ("mrdikit.workloads.determinant", "reduce_mod_prime", "span", "matrices.reduce_mod_prime"),
    ("mrdikit.workloads.determinant", "det_univariate_over_prime_field", "span",
     "matrices.det_univariate_over_prime_field"),
    ("mrdikit.workloads.determinant", "crt_combine_balanced", "span",
     "primes.crt_combine_balanced"),
    ("mrdikit.workloads.kernel", "kernel_block", "span", "kernel.kernel_block"),
    ("mrdikit.workloads.kernel", "nullspace_over_Q", "span", "matrices.nullspace_over_Q"),
    ("mrdikit.algebra.matrices", "is_prime", "count", "primes.is_prime"),
    ("mrdikit.algebra.rings", "is_prime", "count", "primes.is_prime"),
    ("mrdikit.algebra.primes", "is_prime", "count", "primes.is_prime"),
]

COORDINATOR_PROBES = ALGEBRA_PROBES + [
    ("mrdikit.workloads.determinant", "modular_determinant", "span",
     "determinant.modular_determinant"),
    ("mrdikit.workloads.kernel", "components_of_kernel", "span", "kernel.components_of_kernel"),
    ("mrdikit.workloads.kernel", "monomials_by_multidegree", "span",
     "multidegree.monomials_by_multidegree"),
    ("mrdikit.mrdi.codec", "save", "span", "codec.save"),
    ("mrdikit.mrdi.codec", "load", "span", "codec.load"),
    ("mrdikit.mrdi.textio", "serialize_text", "span", "textio.serialize_text"),
    ("mrdikit.mrdi.textio", "parse_text", "span", "textio.parse_text"),
    ("mrdikit.mrdi.document", "validate_document", "span", "document.validate_document"),
    ("mrdikit.ipc.pool", "save", "span", "codec.save"),
    ("mrdikit.ipc.pool", "load", "span", "codec.load"),
    ("mrdikit.ipc.pool", "WorkerPool.parallel_map", "span", "pool.parallel_map"),
    ("mrdikit.ipc.pool", "WorkerPool.remote_call", "span", "pool.remote_call"),
    ("mrdikit.ipc.pool", "WorkerPool.ensure_contexts", "span", "pool.ensure_contexts"),
    ("mrdikit.ipc.framing", "write_message", "writer", "framing."),
    ("mrdikit.ipc.framing", "read_message", "reader", "framing."),
]

WORKER_PROBES = ALGEBRA_PROBES + [
    ("mrdikit.ipc.worker", "load", "span", "worker.decode"),
    ("mrdikit.ipc.worker", "save", "span", "worker.encode"),
    ("mrdikit.ipc.framing", "write_message", "writer", "worker."),
]


def install(recorder: Recorder, probes) -> None:
    """Replace each probed name with its wrapper (once per process)."""
    kinds = {
        "span": recorder.span,
        "count": recorder.counter,
        "writer": recorder.framed_writer,
        "reader": recorder.framed_reader,
    }
    for module_name, attr, kind, name in probes:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        setattr(owner, leaf, kinds[kind](name, getattr(owner, leaf)))


# -- aggregation ----------------------------------------------------------------


def tail(values):
    """``(percentile, value)`` for the highest of p99.9/p99/p95/p90/p50 that
    leaves at least ten samples beyond it (nearest rank), else None."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99.9, 99, 95, 90, 50):
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return None


def _union_length(intervals, lo, hi) -> float:
    covered = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def self_times(spans) -> dict:
    """Self time per span key ``(pid, id)``: duration minus the part of its
    interval that child spans cover (children may overlap across threads)."""
    children: dict = {}
    for span_id, parent, _, start, end, _, pid in spans:
        if parent is not None:
            children.setdefault((pid, parent), []).append((start, end))
    result = {}
    for span_id, _, _, start, end, _, pid in spans:
        kids = children.get((pid, span_id), ())
        result[(pid, span_id)] = (end - start) - _union_length(kids, start, end)
    return result


def layer_totals(spans) -> dict:
    """``{name: [calls, inclusive seconds, self seconds]}`` over ``spans``."""
    selfs = self_times(spans)
    totals: dict = {}
    for span_id, _, name, start, end, _, pid in spans:
        entry = totals.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += selfs[(pid, span_id)]
    return totals


# (metric, unit) for every per-layer metric of one traced solve.
PER_LAYER = [
    ("determinant.det_mod_p.calls", "count"),
    ("determinant.det_mod_p.s", "s"),
    ("determinant.degree_bound.calls", "count"),
    ("matrices.reduce_mod_prime.s", "s"),
    ("matrices.det_univariate_over_prime_field.s", "s"),
    ("matrices.nullspace_over_Q.s", "s"),
    ("primes.is_prime.calls", "count"),
    ("primes.crt_combine_balanced.calls", "count"),
    ("primes.crt_combine_balanced.s", "s"),
    ("multidegree.monomials_by_multidegree.s", "s"),
    ("kernel.kernel_block.calls", "count"),
    ("kernel.kernel_block.s", "s"),
    ("kernel.coordinator.s", "s"),
    ("kernel.generators", "count"),
    ("codec.save.s", "s"),
    ("codec.save.calls", "count"),
    ("codec.load.s", "s"),
    ("codec.load.calls", "count"),
    ("textio.serialize_text.s", "s"),
    ("textio.parse_text.s", "s"),
    ("textio.bytes", "B"),
    ("document.validate_document.s", "s"),
    ("framing.frames_sent", "count"),
    ("framing.frames_recv", "count"),
    ("framing.bytes_sent.call", "B"),
    ("framing.bytes_sent.load_context", "B"),
    ("framing.bytes_recv.result", "B"),
    ("framing.write_message.s", "s"),
    ("pool.calls", "count"),
    ("pool.wait_s", "s"),
    ("pool.ensure_contexts.s", "s"),
    ("pool.contexts_sent", "count"),
    ("pool.occupancy", "ratio"),
    ("pool.call_ms.p50", "ms"),
    ("pool.call_ms.tail", "ms"),
    ("worker.decode_s", "s"),
    ("worker.compute_s", "s"),
    ("worker.encode_s", "s"),
    ("worker.busy_frac", "ratio"),
    ("trace.solve_s", "s"),
    ("trace.unaccounted_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
]


def solve_layers(spans, counts, workers: int, coordinator_pid: int, extra: dict):
    """Per-layer metrics of one traced solve, plus its pool call times in ms.

    ``spans`` holds the coordinator's spans of the solve (rooted at one
    ``bench.solve`` span) and the spans its workers recorded during it;
    ``counts`` merges both sides' counters.  Times are inclusive sums over
    calls; codec, text, framing and pool figures are the coordinator's.
    """
    coord = layer_totals([s for s in spans if s[6] == coordinator_pid])
    remote = layer_totals([s for s in spans if s[6] != coordinator_pid])
    both = layer_totals(spans)

    def calls(totals, name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def secs(totals, name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    names = {(s[6], s[0]): s[2] for s in spans}
    pmap_in_kernel = sum(
        s[4] - s[3]
        for s in spans
        if s[2] == "pool.parallel_map"
        and names.get((s[6], s[1])) == "kernel.components_of_kernel"
    )
    capacity = workers * secs(coord, "pool.parallel_map")
    compute = secs(remote, "determinant.det_mod_p") + secs(remote, "kernel.kernel_block")
    busy = compute + sum(
        secs(remote, n) for n in ("worker.decode", "worker.encode", "worker.write_message")
    )
    root_calls, root_s, root_self = coord.get("bench.solve", (0, 0.0, 0.0))
    metrics = {
        "determinant.det_mod_p.calls": calls(both, "determinant.det_mod_p"),
        "determinant.det_mod_p.s": secs(both, "determinant.det_mod_p"),
        "determinant.degree_bound.calls": counts["determinant.degree_bound"],
        "matrices.reduce_mod_prime.s": secs(both, "matrices.reduce_mod_prime"),
        "matrices.det_univariate_over_prime_field.s": secs(
            both, "matrices.det_univariate_over_prime_field"
        ),
        "matrices.nullspace_over_Q.s": secs(both, "matrices.nullspace_over_Q"),
        "primes.is_prime.calls": counts["primes.is_prime"],
        "primes.crt_combine_balanced.calls": calls(both, "primes.crt_combine_balanced"),
        "primes.crt_combine_balanced.s": secs(both, "primes.crt_combine_balanced"),
        "multidegree.monomials_by_multidegree.s": secs(
            coord, "multidegree.monomials_by_multidegree"
        ),
        "kernel.kernel_block.calls": calls(both, "kernel.kernel_block"),
        "kernel.kernel_block.s": secs(both, "kernel.kernel_block"),
        "kernel.coordinator.s": secs(coord, "kernel.components_of_kernel") - pmap_in_kernel,
        "codec.save.s": secs(coord, "codec.save"),
        "codec.save.calls": calls(coord, "codec.save"),
        "codec.load.s": secs(coord, "codec.load"),
        "codec.load.calls": calls(coord, "codec.load"),
        "textio.serialize_text.s": secs(coord, "textio.serialize_text"),
        "textio.parse_text.s": secs(coord, "textio.parse_text"),
        "document.validate_document.s": secs(coord, "document.validate_document"),
        "framing.frames_sent": counts["framing.frames_sent"],
        "framing.frames_recv": counts["framing.frames_recv"],
        "framing.bytes_sent.call": counts["framing.bytes_sent.call"],
        "framing.bytes_sent.load_context": counts["framing.bytes_sent.load_context"],
        "framing.bytes_recv.result": counts["framing.bytes_recv.result"],
        "framing.write_message.s": secs(coord, "framing.write_message"),
        "pool.calls": calls(coord, "pool.remote_call"),
        "pool.wait_s": secs(coord, "framing.read_message"),
        "pool.ensure_contexts.s": secs(coord, "pool.ensure_contexts"),
        "pool.contexts_sent": counts["framing.frames_sent.load_context"],
        "pool.occupancy": secs(coord, "pool.remote_call") / capacity if capacity else 0.0,
        "worker.decode_s": secs(remote, "worker.decode"),
        "worker.compute_s": compute,
        "worker.encode_s": secs(remote, "worker.encode"),
        "worker.busy_frac": busy / capacity if capacity else 0.0,
        "trace.solve_s": root_s,
        "trace.unaccounted_frac": root_self / root_s if root_s else 0.0,
    }
    metrics.update(extra)
    call_ms = [
        (s[4] - s[3]) * 1000.0
        for s in spans
        if s[2] == "pool.remote_call" and s[6] == coordinator_pid
    ]
    return metrics, call_ms
