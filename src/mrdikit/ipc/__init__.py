from .framing import (
    Call,
    Failure,
    Result,
    frame_bytes,
    read_message,
    write_message,
)
from .pool import WorkerPool, spawn_pool
from .registry import lookup, register_function
from .worker import worker_main

__all__ = [
    "Call",
    "Failure",
    "Result",
    "WorkerPool",
    "frame_bytes",
    "lookup",
    "read_message",
    "register_function",
    "spawn_pool",
    "worker_main",
    "write_message",
]
