from .framing import (
    Call,
    Failure,
    LoadContext,
    Message,
    Result,
    Shutdown,
    decode_message,
    encode_message,
    frame_bytes,
    read_message,
    write_message,
)
from .pool import WorkerHandle, WorkerPool, spawn_pool
from .registry import lookup, register_function
from .worker import worker_main

__all__ = [
    "Call",
    "Failure",
    "LoadContext",
    "Message",
    "Result",
    "Shutdown",
    "WorkerHandle",
    "WorkerPool",
    "decode_message",
    "encode_message",
    "frame_bytes",
    "lookup",
    "read_message",
    "register_function",
    "spawn_pool",
    "worker_main",
    "write_message",
]
