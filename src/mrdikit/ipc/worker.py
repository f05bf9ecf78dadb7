"""The worker-process loop: read a frame, act, answer, repeat.

A pool's workers are forked from its start-up process (``zygote.py``);
``mrdikit --worker`` runs one on its own stdin/stdout.  Either way the
protocol is on stdin/stdout, and ``serve`` looks each message's handler up
by its class.  Contexts arrive through LoadContext frames before any call
that needs them, sent back to back with that call; every frame is answered
in order, a LoadContext with an empty Result or a Failure, a Call with a
Result or a Failure; a frame of any other kind is ignored.  Contexts a call
creates on the worker side are sent back inline with the result, each
exactly once.  A pool's ``tap`` sees every frame a worker reads or writes.

Environment:
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
    def __init__(self, stdin, stdout):
        self.stdin = stdin
        self.stdout = stdout
        self.global_state = GlobalSerializerState()
        # UUIDs the coordinator is known to share with us (received or sent back).
        self.shared_uuids: set[str] = set()

    def _reply(self, msg) -> None:
        framing.write_message(self.stdout, msg)

    def handle_load_context(self, msg: framing.LoadContext) -> None:
        try:
            load_context_document(msg.document, self.global_state, msg.uuid)
            self.shared_uuids.add(msg.uuid)
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
            self._reply(framing.Result(msg.call_id, doc, new_refs))
        except Exception as exc:
            detail = traceback.format_exception_only(type(exc), exc)[-1].strip()
            self._reply(framing.Failure(msg.call_id, detail))

    def serve(self) -> None:
        handlers = {framing.LoadContext: self.handle_load_context, framing.Call: self.handle_call}
        while (msg := framing.read_message(self.stdin)) is not None:
            if isinstance(msg, framing.Shutdown):
                break
            if type(msg) in handlers:
                handlers[type(msg)](msg)


def worker_main() -> int:
    # Workloads register their remote functions at import time.
    import mrdikit.workloads  # noqa: F401

    init = os.environ.get("MRDI_WORKER_INIT", "")
    for module in filter(None, init.split(",")):
        importlib.import_module(module)

    stdin = sys.stdin.buffer
    stdout = sys.stdout.buffer
    # Anything that accidentally prints must not corrupt the frame stream.
    sys.stdout = sys.stderr
    WorkerLoop(stdin, stdout).serve()
    return 0
