"""Serializer bookkeeping: per-document states and the cross-document global state.

The ref documents a save collects and a load reads are JSON objects, as every document is."""

from __future__ import annotations

import random
import threading
import uuid as uuid_module
from typing import Optional

from ..algebra.rings import RingDescriptor
from .document import Mode


class GlobalSerializerState:
    """Bidirectional binding between rings and UUIDs.

    A ring keeps its first UUID for the state's lifetime.  Extra UUIDs
    arriving from other processes for an already-bound ring resolve to the
    same ring but never displace the canonical binding, so saves stay
    deterministic.  Rings are looked up by value.

    ``uuid_seed`` makes UUID minting reproducible (still version-4 shaped);
    without it UUIDs are random.
    """

    def __init__(self, uuid_seed: Optional[int] = None):
        self._lock = threading.Lock()
        self._ctx_to_uuid: dict[RingDescriptor, str] = {}
        self._uuid_to_ctx: dict[str, RingDescriptor] = {}
        self._rng = random.Random(uuid_seed) if uuid_seed is not None else None

    def _mint(self) -> str:
        if self._rng is None:
            return str(uuid_module.uuid4())
        return str(uuid_module.UUID(bytes=self._rng.randbytes(16), version=4))

    def register_context(self, ctx: RingDescriptor) -> str:
        """Idempotent: the first call mints a fresh UUID, later calls return it."""
        with self._lock:
            existing = self._ctx_to_uuid.get(ctx)
            if existing is not None:
                return existing
            minted = self._mint()
            self._ctx_to_uuid[ctx] = minted
            self._uuid_to_ctx[minted] = ctx
            return minted

    def bind(self, uuid_key: str, ctx: RingDescriptor) -> None:
        """Record that ``uuid_key`` names ``ctx`` (e.g. after loading a ref)."""
        with self._lock:
            self._uuid_to_ctx.setdefault(uuid_key, ctx)
            self._ctx_to_uuid.setdefault(ctx, uuid_key)

    def uuid_for(self, ctx: RingDescriptor) -> Optional[str]:
        with self._lock:
            return self._ctx_to_uuid.get(ctx)

    def resolve(self, uuid_key: str) -> Optional[RingDescriptor]:
        with self._lock:
            return self._uuid_to_ctx.get(uuid_key)


class SerializerState:
    """Per-save bookkeeping: mode, the refs accumulated for this document, and
    a link to the shared global state.

    In IPC mode hitting an unregistered context is an error and
    ``pending_refs`` stays empty, unless ``collect_new_refs`` is set: then
    each context met is registered and its ref document collected, so the
    save's ``_refs`` can carry it.  The pool sets it for call arguments, a
    worker for its results.
    """

    def __init__(
        self,
        mode: Mode,
        global_state: GlobalSerializerState,
        collect_new_refs: bool = False,
    ):
        self.mode = mode
        self.global_state = global_state
        self.pending_refs: dict[str, dict] = {}
        self.collect_new_refs = collect_new_refs


class DeserializerState:
    """Per-load bookkeeping: mode, the document's ``_refs`` table, the chain
    of refs being loaded, and a cursor path that locates error messages."""

    def __init__(self, mode: Mode, global_state: GlobalSerializerState):
        self.mode = mode
        self.global_state = global_state
        self.refs: dict[str, dict] = {}
        self.path: list[str] = []
        self._loading: set[str] = set()

    def cursor(self) -> str:
        return "/".join(["data"] + self.path)
