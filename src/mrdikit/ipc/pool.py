"""A pool of worker processes speaking the framed mrdi protocol.

The pool owns one process per worker, forked by this process's zygote
(``zygote.py``), and tracks which context UUIDs each worker holds.  Every
call runs in the calling thread, in rounds: a round saves its arguments in
IPC mode, sends each live worker one Call whose arguments carry in ``_refs``
the contexts the worker lacks, then reads the one answer of each in worker
order.  A context counts as held once a call that carried it is answered
with a Result; after a Failure the next call carries it again.  Results are
placed by input index and loaded under the coordinator's global state, which
binds the contexts of the value's ``_refs`` it lacks, such as one a worker
minted.  ``remote_call`` is a one-item map and ``wait_ready`` one ``identity``
call per worker.  A pool serves one call at a time; callers on other threads,
and ``shutdown``, wait.  ``shutdown`` sends no frame: it closes each stdin.
"""

from __future__ import annotations

import itertools
import os
import threading
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from ..errors import PoolClosedError, TransportError, ValidationError, WorkerFailure
from ..mrdi.codec import load, save
from ..mrdi.document import Mode, MrdiDocument
from ..mrdi.states import DeserializerState, GlobalSerializerState, SerializerState
from . import framing

if TYPE_CHECKING:
    from .zygote import WorkerProcess

IDLE = "idle"
DEAD = "dead"

_SHUTDOWN_GRACE_SECONDS = 5.0

# The most workers a pool has.  A pool's workers start with one request to
# the start-up process (``zygote.py``), and one descriptor message carries at
# most 253 descriptors: the coordinator's stderr and two pipe ends per worker.
MAX_WORKERS = 126


class WorkerHandle:
    def __init__(self, worker_id: int, proc: WorkerProcess):
        self.worker_id = worker_id
        self.proc = proc
        # Contexts the worker holds: sent with a call it answered, or minted by it.
        self.known_contexts: set[str] = set()
        self.state = IDLE

    def __repr__(self):
        return f"WorkerHandle(id={self.worker_id}, state={self.state})"


class WorkerPool:
    def __init__(self, n: int, tap: Optional[Callable] = None):
        if not isinstance(n, int) or n < 1:
            raise ValidationError(f"pool size must be a positive integer, got {n!r}")
        if n > MAX_WORKERS:
            raise ValidationError(f"pool size must be at most {MAX_WORKERS}, got {n}")
        self.global_state = GlobalSerializerState()
        self._tap = tap
        # Held for a whole call: one call at a time per pool.
        self._lock = threading.Lock()
        self._call_ids = itertools.count(1)
        self._closed = False
        # Imported here, so a process that starts no pool loads no sockets.
        from .zygote import fork_workers

        try:
            procs = fork_workers(dict(os.environ), n)
        except TransportError as exc:
            raise TransportError(f"failed to spawn worker pool: {exc}") from exc
        self.workers = [WorkerHandle(worker_id, proc) for worker_id, proc in enumerate(procs)]

    # -- plumbing ---------------------------------------------------------

    def _send(self, worker: WorkerHandle, msg) -> None:
        try:
            framing.write_message(worker.proc.stdin, msg)
        except TransportError:
            self._mark_dead(worker)
            raise TransportError(f"worker {worker.worker_id} is unreachable") from None
        if self._tap is not None:
            self._tap(("send", worker.worker_id, msg))

    def _recv(self, worker: WorkerHandle, call_id: int) -> framing.Result:
        """Read the worker's answer to ``call_id``: the one place answers are
        read.  A Failure raises WorkerFailure; a broken stream, end-of-file
        or any other frame marks the worker dead and raises TransportError."""
        try:
            msg = framing.read_message(worker.proc.stdout)
        except TransportError as exc:
            self._mark_dead(worker)
            raise TransportError(f"worker {worker.worker_id}: {exc}") from None
        if msg is None:
            self._mark_dead(worker)
            raise TransportError(f"worker {worker.worker_id} exited unexpectedly")
        if self._tap is not None:
            self._tap(("recv", worker.worker_id, msg))
        if not isinstance(msg, (framing.Result, framing.Failure)) or msg.call_id != call_id:
            self._mark_dead(worker)
            raise TransportError(f"worker {worker.worker_id} answered out of order")
        if isinstance(msg, framing.Failure):
            raise WorkerFailure(msg.error)
        return msg

    def _mark_dead(self, worker: WorkerHandle) -> None:
        worker.state = DEAD
        try:
            worker.proc.kill()
        except OSError:
            pass

    # -- context distribution ----------------------------------------------

    def ensure_contexts(
        self, worker: WorkerHandle, refs: dict[str, MrdiDocument]
    ) -> dict[str, MrdiDocument]:
        """The ref documents of ``refs`` (UUID -> document, as an IPC save
        with ``collect_new_refs`` gathers them in ``pending_refs``) that the
        worker does not hold: the ``_refs`` of its next Call's arguments.
        Sends nothing."""
        return {u: d for u, d in refs.items() if u not in worker.known_contexts}

    # -- calls ---------------------------------------------------------------

    def _run(self, fn: str, items: list) -> tuple[list, Optional[tuple]]:
        """Run ``fn(*item)`` for every item, a tuple as the callers check, in
        rounds of one call per live worker: the one path every call takes.

        Returns the results by input index and the failure of the lowest
        index, ``(index, exception)`` or None.  A round saves all its
        arguments before its first Call goes out, stops sending at the first
        failure, and reads the answer to every Call it sent before this
        returns, so no stale answer is left for the next call; no round
        starts after a failure.
        """
        with self._lock:
            if self._closed:
                raise PoolClosedError("pool closed")
            results = [None] * len(items)
            failures = []
            start = 0
            while start < len(items) and not failures:
                live = [w for w in self.workers if w.state != DEAD]
                if not live:
                    raise TransportError("no live workers left")
                calls = []
                for worker, index in zip(live, range(start, len(items))):
                    state = SerializerState(Mode.IPC, self.global_state, collect_new_refs=True)
                    calls.append((worker, index, save(items[index], state), state.pending_refs))
                start += len(calls)
                sent = []
                for worker, index, args_doc, refs in calls:
                    try:
                        args_doc.refs = self.ensure_contexts(worker, refs) or None
                        call_id = next(self._call_ids)
                        self._send(worker, framing.Call(call_id, fn, args_doc))
                    except Exception as exc:  # noqa: BLE001 - reported below
                        failures.append((index, exc))
                        break
                    sent.append((worker, index, call_id, args_doc.refs or ()))
                for worker, index, call_id, missing in sent:
                    try:
                        reply = self._recv(worker, call_id)
                        worker.known_contexts.update(missing)
                        state = DeserializerState(Mode.IPC, self.global_state)
                        results[index] = load(reply.value, state)
                        worker.known_contexts.update(reply.value.refs or ())
                    except Exception as exc:  # noqa: BLE001 - reported below
                        failures.append((index, exc))
        return results, min(failures, key=lambda pair: pair[0], default=None)

    def remote_call(self, fn: str, args: tuple):
        """Run ``fn(*args)`` on the first live worker and return the value."""
        if not isinstance(args, tuple):
            raise ValidationError(f"call arguments must be a tuple, got {type(args).__name__}")
        results, failure = self._run(fn, [args])
        if failure is not None:
            raise failure[1]
        return results[0]

    def wait_ready(self) -> None:
        """Have every worker answer one ``identity`` call: all calls go out
        before any answer is read, so the workers start up side by side, and
        once this returns no call waits for a worker's imports."""
        self.parallel_map("identity", [(0,)] * len(self.workers))

    def parallel_map(self, fn: str, items: Iterable) -> list:
        """Map ``fn`` over ``items`` on the pool, in rounds of one call per
        live worker; results come back in input order.  A failure raises the
        one of the lowest index, a worker's as ``WorkerFailure`` with that
        index."""
        items = list(items)
        for index, args in enumerate(items):
            if not isinstance(args, tuple):
                raise ValidationError(
                    f"item {index}: call arguments must be a tuple, got {type(args).__name__}"
                )
        results, failure = self._run(fn, items)
        if failure is None:
            return results
        index, exc = failure
        if isinstance(exc, WorkerFailure):
            raise WorkerFailure(f"item {index}: {exc}", index=index) from exc
        raise exc

    # -- lifecycle -------------------------------------------------------------

    def shutdown(self) -> None:
        """Wait for the call in flight, close every worker's stdin, reap the
        processes.  A second shutdown does nothing."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for worker in self.workers:
                try:
                    worker.proc.stdin.close()
                except OSError:  # a dead worker's unsent bytes
                    pass
            for worker in self.workers:
                proc = worker.proc
                if not proc.wait(_SHUTDOWN_GRACE_SECONDS):
                    proc.kill()
                    proc.wait()
                proc.close()
                worker.state = DEAD

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.shutdown()


def spawn_pool(n: int, **kwargs) -> WorkerPool:
    """Spawn ``n`` worker processes running this package's worker loop."""
    return WorkerPool(n, **kwargs)
