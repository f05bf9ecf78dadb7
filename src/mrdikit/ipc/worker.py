"""The worker-process loop: read a frame, act, answer, repeat.

A pool's workers are forked from its start-up process (``zygote.py``);
``mrdikit --worker`` runs one on its own stdin/stdout.  Either way the
protocol is on stdin/stdout.  A Call's argument document carries in its
``_refs`` the contexts its arguments name that the worker may lack, and
``load`` binds them as it reads the arguments; the worker answers with a
Result or a Failure, in order.  A Shutdown ends the loop, and a frame of any
other kind is ignored.  Contexts a call creates on the worker side go back in
the ``_refs`` of the value document, each exactly once.  A pool's ``tap``
sees every frame a worker reads or writes.

Environment:
  MRDI_WORKER_INIT  comma-separated modules to import before serving (extra
                    function registrations)
"""

from __future__ import annotations

import importlib
import os
import sys
import traceback

from ..mrdi.codec import load, save
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

    def handle_call(self, msg: framing.Call) -> None:
        fn = lookup(msg.fn)
        if fn is None:
            self._reply(framing.Failure(msg.call_id, f"unknown function: {msg.fn}"))
            return
        try:
            args = load(msg.args, DeserializerState(Mode.IPC, self.global_state))
            self.shared_uuids.update(msg.args.refs or ())
            if not isinstance(args, tuple):
                raise TypeError("call arguments must decode to a tuple")
            value = fn(*args)
            state = SerializerState(Mode.IPC, self.global_state, collect_new_refs=True)
            doc = save(value, state)
            new_refs = {
                u: d for u, d in state.pending_refs.items() if u not in self.shared_uuids
            }
            self.shared_uuids.update(new_refs)
            doc.refs = new_refs or None
            self._reply(framing.Result(msg.call_id, doc))
        except Exception as exc:
            detail = traceback.format_exception_only(type(exc), exc)[-1].strip()
            self._reply(framing.Failure(msg.call_id, detail))

    def serve(self) -> None:
        while (msg := framing.read_message(self.stdin)) is not None:
            if isinstance(msg, framing.Shutdown):
                break
            if isinstance(msg, framing.Call):
                self.handle_call(msg)


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
