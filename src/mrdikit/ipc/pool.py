"""A pool of worker processes speaking the framed mrdi protocol.

The pool owns one child process per worker, tracks which context UUIDs each
worker has already received, and before every call sends the ref documents
the argument save collected that the worker lacks, base rings first, so each
(worker, context) pair sees at most one LoadContext frame.  Calls serialize
their arguments in IPC mode; results are deserialized under the
coordinator's global state, merging back any contexts the worker minted.
"""

from __future__ import annotations

import importlib
import itertools
import os
import subprocess
import sys
import threading
from typing import Callable, Iterable, Optional, Sequence

from ..errors import (
    PoolClosedError,
    TransportError,
    ValidationError,
    WorkerFailure,
)
from ..mrdi.codec import load, load_context_document, save
from ..mrdi.document import Mode, MrdiDocument
from ..mrdi.states import DeserializerState, GlobalSerializerState, SerializerState
from . import framing

IDLE = "idle"
BUSY = "busy"
DEAD = "dead"

_SHUTDOWN_GRACE_SECONDS = 5.0


def default_worker_command() -> list[str]:
    return [sys.executable, "-m", "mrdikit", "--worker"]


class WorkerHandle:
    def __init__(self, worker_id: int, proc: subprocess.Popen):
        self.worker_id = worker_id
        self.proc = proc
        self.known_contexts: set[str] = set()
        self.state = IDLE

    def __repr__(self):
        return f"WorkerHandle(id={self.worker_id}, state={self.state})"


class WorkerPool:
    def __init__(
        self,
        n: int,
        command: Optional[Sequence[str]] = None,
        init_modules: Sequence[str] = (),
        tap: Optional[Callable] = None,
        global_state: Optional[GlobalSerializerState] = None,
    ):
        if not isinstance(n, int) or n < 1:
            raise ValidationError(f"pool size must be a positive integer, got {n!r}")
        # Coordinator and workers must agree on the function registry.
        for module in init_modules:
            importlib.import_module(module)
        self.global_state = global_state or GlobalSerializerState()
        self._tap = tap
        self._cond = threading.Condition()
        self._call_ids = itertools.count(1)
        self._closed = False
        self._shutdown_done = False
        command = list(command) if command is not None else default_worker_command()
        self.workers: list[WorkerHandle] = []
        try:
            for worker_id in range(n):
                env = dict(os.environ)
                env["MRDI_WORKER_ID"] = str(worker_id)
                if init_modules:
                    env["MRDI_WORKER_INIT"] = ",".join(init_modules)
                proc = subprocess.Popen(
                    command,
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    env=env,
                )
                self.workers.append(WorkerHandle(worker_id, proc))
        except OSError as exc:
            self._reap_all()
            raise TransportError(f"failed to spawn worker pool: {exc}") from exc

    # -- plumbing ---------------------------------------------------------

    def _next_id(self) -> int:
        with self._cond:
            return next(self._call_ids)

    def _send(self, worker: WorkerHandle, msg) -> None:
        try:
            framing.write_message(worker.proc.stdin, msg)
        except TransportError:
            self._mark_dead(worker)
            raise TransportError(f"worker {worker.worker_id} is unreachable") from None
        if self._tap is not None:
            self._tap(("send", worker.worker_id, msg))

    def _recv(self, worker: WorkerHandle):
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
        return msg

    def _mark_dead(self, worker: WorkerHandle) -> None:
        with self._cond:
            worker.state = DEAD
            self._cond.notify_all()
        try:
            worker.proc.kill()
        except OSError:
            pass

    def _acquire(self) -> WorkerHandle:
        with self._cond:
            while True:
                if self._closed:
                    raise PoolClosedError("pool closed")
                idle = [w for w in self.workers if w.state == IDLE]
                if idle:
                    worker = min(idle, key=lambda w: w.worker_id)
                    worker.state = BUSY
                    return worker
                if all(w.state == DEAD for w in self.workers):
                    raise TransportError("no live workers left")
                self._cond.wait()

    def _release(self, worker: WorkerHandle) -> None:
        with self._cond:
            if worker.state == BUSY:
                worker.state = IDLE
            self._cond.notify_all()

    def _reap_all(self) -> None:
        for worker in self.workers:
            proc = worker.proc
            for stream in (proc.stdin, proc.stdout):
                try:
                    if stream:
                        stream.close()
                except OSError:
                    pass
            try:
                proc.kill()
                proc.wait()
            except OSError:
                pass
            worker.state = DEAD

    # -- context distribution ----------------------------------------------

    def ensure_contexts(self, worker: WorkerHandle, refs: dict[str, MrdiDocument]) -> None:
        """Send the worker each ref document of ``refs`` (UUID -> document,
        base rings first, as an IPC save with ``collect_new_refs`` gathers
        them in ``pending_refs``) that it does not hold yet.

        The caller must own the worker (it is the thread's acquired worker or
        the pool is otherwise quiescent).
        """
        for uuid_key, ref_doc in refs.items():
            if uuid_key in worker.known_contexts:
                continue
            call_id = self._next_id()
            self._send(worker, framing.LoadContext(call_id, uuid_key, ref_doc))
            reply = self._recv(worker)
            if isinstance(reply, framing.Failure):
                raise WorkerFailure(
                    f"worker {worker.worker_id} rejected context {uuid_key}: {reply.error}"
                )
            if not isinstance(reply, framing.Result) or reply.call_id != call_id:
                self._mark_dead(worker)
                raise TransportError(
                    f"worker {worker.worker_id} broke protocol during context load"
                )
            worker.known_contexts.add(uuid_key)

    def _merge_result_refs(self, worker: WorkerHandle, refs: dict) -> None:
        for uuid_key, ref_doc in refs.items():
            if self.global_state.resolve(uuid_key) is None:
                load_context_document(ref_doc, self.global_state, uuid_key)
            worker.known_contexts.add(uuid_key)

    # -- calls ---------------------------------------------------------------

    def remote_call(self, fn: str, args: tuple):
        """Run ``fn(*args)`` on an idle worker and return the value."""
        if not isinstance(args, tuple):
            raise ValidationError("remote_call arguments must be a tuple")
        state = SerializerState(Mode.IPC, self.global_state, collect_new_refs=True)
        args_doc = save(args, state)
        worker = self._acquire()
        try:
            self.ensure_contexts(worker, state.pending_refs)
            call_id = self._next_id()
            self._send(worker, framing.Call(call_id, fn, args_doc))
            reply = self._recv(worker)
            if isinstance(reply, framing.Failure):
                raise WorkerFailure(reply.error)
            if not isinstance(reply, framing.Result) or reply.call_id != call_id:
                self._mark_dead(worker)
                raise TransportError(
                    f"worker {worker.worker_id} answered out of order"
                )
            self._merge_result_refs(worker, reply.refs)
            if reply.value is None:
                return None
            return load(reply.value, DeserializerState(Mode.IPC, self.global_state))
        finally:
            self._release(worker)

    def wait_ready(self) -> None:
        """Have every worker answer one ``identity`` call: all calls go out
        before any answer is read, so the workers start up side by side, and
        once this returns no call waits for a worker's imports.  The pool
        must be idle."""
        args = save((0,), SerializerState(Mode.IPC, self.global_state))
        sent = []
        for worker in self.workers:
            call_id = self._next_id()
            self._send(worker, framing.Call(call_id, "identity", args))
            sent.append((worker, call_id))
        for worker, call_id in sent:
            reply = self._recv(worker)
            if isinstance(reply, framing.Failure):
                raise WorkerFailure(f"worker {worker.worker_id}: {reply.error}")
            if not isinstance(reply, framing.Result) or reply.call_id != call_id:
                self._mark_dead(worker)
                raise TransportError(f"worker {worker.worker_id} answered out of order")

    def parallel_map(self, fn: str, items: Iterable) -> list:
        """Map ``fn`` over ``items`` on the pool, dynamically dispatching to
        idle workers; results come back in input order."""
        items = list(items)
        with self._cond:
            if self._closed:
                raise PoolClosedError("pool closed")
            alive = sum(w.state != DEAD for w in self.workers)
        if not items:
            return []
        if alive == 0:
            raise TransportError("no live workers left")
        results = [None] * len(items)
        progress = {"next": 0, "abort": False}
        failures = []
        lock = threading.Lock()

        def runner():
            while True:
                with lock:
                    if progress["abort"] or progress["next"] >= len(items):
                        return
                    index = progress["next"]
                    progress["next"] += 1
                try:
                    results[index] = self.remote_call(fn, items[index])
                except Exception as exc:  # noqa: BLE001 - reported below
                    with lock:
                        failures.append((index, exc))
                        progress["abort"] = True
                    return

        threads = [
            threading.Thread(target=runner, name=f"pmap-{i}")
            for i in range(min(alive, len(items)))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if failures:
            index, exc = min(failures, key=lambda pair: pair[0])
            if isinstance(exc, WorkerFailure):
                raise WorkerFailure(f"item {index}: {exc}", index=index) from exc
            raise exc
        return results

    # -- lifecycle -------------------------------------------------------------

    def shutdown(self) -> None:
        """Drain in-flight calls, stop every worker, reap the processes."""
        with self._cond:
            self._closed = True
            if self._shutdown_done:
                return
            self._cond.wait_for(lambda: all(w.state != BUSY for w in self.workers))
            self._shutdown_done = True
        for worker in self.workers:
            if worker.state == DEAD:
                continue
            try:
                self._send(worker, framing.Shutdown())
                worker.proc.stdin.close()
            except (TransportError, OSError):
                continue
        for worker in self.workers:
            proc = worker.proc
            try:
                proc.wait(timeout=_SHUTDOWN_GRACE_SECONDS)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            worker.state = DEAD

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.shutdown()

    @property
    def closed(self) -> bool:
        return self._closed


def spawn_pool(n: int, **kwargs) -> WorkerPool:
    """Spawn ``n`` worker processes running this package's worker loop."""
    return WorkerPool(n, **kwargs)
