"""The worker-process loop: read a frame, act, answer, repeat.

A pool's workers are forked from its start-up process (``zygote.py``);
``mrdikit --worker`` runs one on its own stdin/stdout.  Either way the
protocol is on stdin/stdout, and ``serve`` looks each message's handler up
by its class.  Contexts arrive through LoadContext frames before any call
that needs them, sent back to back with that call; every frame is answered
in order, a LoadContext with an empty Result or a Failure, a Call with a
Result or a Failure.  Contexts a call creates on the worker side are
sent back inline with the result, each exactly once.

Environment:
  MRDI_WORKER_ID    worker number assigned by the pool (log naming only)
  MRDI_WORKER_LOG   path prefix; when set the worker appends to <prefix>.w<id>
  MRDI_WORKER_INIT  comma-separated modules to import before serving (extra
                    function registrations)
"""

from __future__ import annotations

import importlib
import os
import sys
import traceback

from ..mrdi.codec import load, load_context_document, save
from ..mrdi.document import Mode
from ..mrdi.states import DeserializerState, GlobalSerializerState, SerializerState
from . import framing
from .registry import lookup


class WorkerLoop:
    def __init__(self, stdin, stdout, log=None):
        self.stdin = stdin
        self.stdout = stdout
        self.global_state = GlobalSerializerState()
        # UUIDs the coordinator is known to share with us (received or sent back).
        self.shared_uuids: set[str] = set()
        self.log = log

    def _log(self, text: str) -> None:
        if self.log is not None:
            self.log.write(text + "\n")
            self.log.flush()

    def _reply(self, msg) -> None:
        framing.write_message(self.stdout, msg)

    def handle_load_context(self, msg: framing.LoadContext) -> None:
        try:
            load_context_document(msg.document, self.global_state, msg.uuid)
            self.shared_uuids.add(msg.uuid)
            self._log(f"loaded context {msg.uuid}")
            self._reply(framing.Result(msg.call_id))
        except Exception as exc:
            self._reply(framing.Failure(msg.call_id, f"context load failed: {exc}"))

    def handle_call(self, msg: framing.Call) -> None:
        fn = lookup(msg.fn)
        if fn is None:
            self._reply(framing.Failure(msg.call_id, f"unknown function: {msg.fn}"))
            return
        try:
            args = load(msg.args, DeserializerState(Mode.IPC, self.global_state))
            if not isinstance(args, tuple):
                raise TypeError("call arguments must decode to a tuple")
            value = fn(*args)
            state = SerializerState(Mode.IPC, self.global_state, collect_new_refs=True)
            doc = save(value, state)
            new_refs = {
                u: d for u, d in state.pending_refs.items() if u not in self.shared_uuids
            }
            self.shared_uuids.update(new_refs)
            self._log(f"call {msg.call_id} {msg.fn} ok ({len(new_refs)} new contexts)")
            self._reply(framing.Result(msg.call_id, doc, new_refs))
        except Exception as exc:
            detail = traceback.format_exception_only(type(exc), exc)[-1].strip()
            self._log(f"call {msg.call_id} {msg.fn} failed: {detail}")
            self._reply(framing.Failure(msg.call_id, detail))

    def serve(self) -> None:
        handlers = {framing.LoadContext: self.handle_load_context, framing.Call: self.handle_call}
        while (msg := framing.read_message(self.stdin)) is not None:
            if isinstance(msg, framing.Shutdown):
                break
            if type(msg) in handlers:
                handlers[type(msg)](msg)
            else:
                self._log(f"ignoring unexpected message {msg!r}")
        self._log("shutting down")


def worker_main() -> int:
    # Workloads register their remote functions at import time.
    import mrdikit.workloads  # noqa: F401

    init = os.environ.get("MRDI_WORKER_INIT", "")
    for module in filter(None, init.split(",")):
        importlib.import_module(module)

    worker_id = os.environ.get("MRDI_WORKER_ID", str(os.getpid()))
    log = None
    log_prefix = os.environ.get("MRDI_WORKER_LOG")
    if log_prefix:
        log = open(f"{log_prefix}.w{worker_id}", "a", encoding="utf-8")

    stdin = sys.stdin.buffer
    stdout = sys.stdout.buffer
    # Anything that accidentally prints must not corrupt the frame stream.
    sys.stdout = sys.stderr
    try:
        WorkerLoop(stdin, stdout, log).serve()
    finally:
        if log is not None:
            log.close()
    return 0
