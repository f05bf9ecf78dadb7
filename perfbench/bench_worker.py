"""Worker-side spans for the traced benchmark run.

Workers import this module through ``MRDI_WORKER_INIT``.  It wraps the
worker's ``load``/``save``/``write_message`` and the algebra entry points,
re-registers ``det_mod_p`` and ``kernel_block`` so pooled calls go through
their spans, and writes every span and count to
``$PERFBENCH_SPAN_DIR/worker-<pid>.jsonl`` when the worker exits.
"""

from __future__ import annotations

import atexit
import json
import os

from mrdikit.ipc.registry import register_function
from mrdikit.workloads import determinant, kernel

import bench_trace
from bench_trace import RUN_ID_ENV, SPAN_DIR_ENV

_recorder = bench_trace.Recorder()
_recorder.run_id = int(os.environ.get(RUN_ID_ENV, "0"))
bench_trace.install(_recorder, bench_trace.WORKER_PROBES)
register_function("det_mod_p", determinant.det_mod_p)
register_function("kernel_block", kernel.kernel_block)


def _write_out() -> None:
    path = os.path.join(os.environ[SPAN_DIR_ENV], f"worker-{_recorder.pid}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"counts": _recorder.counts}) + "\n")
        for span in _recorder.spans:
            fh.write(json.dumps(span) + "\n")


atexit.register(_write_out)
