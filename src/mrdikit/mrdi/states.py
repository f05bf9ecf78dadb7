"""Serializer bookkeeping: per-document states and the cross-document global state."""

from __future__ import annotations

import random
import threading
import uuid as uuid_module
from typing import Optional

from ..algebra.rings import ContextHandle
from .document import Mode, MrdiDocument


class GlobalSerializerState:
    """Bidirectional binding between interned contexts and UUIDs.

    A context keeps its first UUID for the state's lifetime.  Extra UUIDs
    arriving from other processes for an already-bound context resolve to the
    same handle but never displace the canonical binding, so saves stay
    deterministic.

    ``uuid_seed`` makes UUID minting reproducible (still version-4 shaped);
    without it UUIDs are random.
    """

    def __init__(self, uuid_seed: Optional[int] = None):
        self._lock = threading.Lock()
        self._ctx_to_uuid: dict[ContextHandle, str] = {}
        self._uuid_to_ctx: dict[str, ContextHandle] = {}
        self._rng = random.Random(uuid_seed) if uuid_seed is not None else None

    def _mint(self) -> str:
        if self._rng is None:
            return str(uuid_module.uuid4())
        return str(uuid_module.UUID(bytes=self._rng.randbytes(16), version=4))

    def register_context(self, ctx: ContextHandle) -> str:
        """Idempotent: the first call mints a fresh UUID, later calls return it."""
        with self._lock:
            existing = self._ctx_to_uuid.get(ctx)
            if existing is not None:
                return existing
            minted = self._mint()
            self._ctx_to_uuid[ctx] = minted
            self._uuid_to_ctx[minted] = ctx
            return minted

    def bind(self, uuid_key: str, ctx: ContextHandle) -> None:
        """Record that ``uuid_key`` names ``ctx`` (e.g. after loading a ref)."""
        with self._lock:
            self._uuid_to_ctx.setdefault(uuid_key, ctx)
            self._ctx_to_uuid.setdefault(ctx, uuid_key)

    def uuid_for(self, ctx: ContextHandle) -> Optional[str]:
        with self._lock:
            return self._ctx_to_uuid.get(ctx)

    def resolve(self, uuid_key: str) -> Optional[ContextHandle]:
        with self._lock:
            return self._uuid_to_ctx.get(uuid_key)


class SerializerState:
    """Per-save bookkeeping: mode, the refs accumulated for this document, and
    a link to the shared global state.

    In IPC mode ``pending_refs`` stays empty and hitting an unregistered
    context is an error; ``collect_new_refs`` relaxes that for worker results,
    which inline the ref documents of contexts the coordinator has not seen.
    """

    def __init__(
        self,
        mode: Mode,
        global_state: GlobalSerializerState,
        collect_new_refs: bool = False,
    ):
        self.mode = mode
        self.global_state = global_state
        self.pending_refs: dict[str, MrdiDocument] = {}
        self.collect_new_refs = collect_new_refs


class DeserializerState:
    """Per-load bookkeeping: mode, the document under read, and a cursor path
    used to point error messages at the offending node."""

    def __init__(self, mode: Mode, global_state: GlobalSerializerState):
        self.mode = mode
        self.global_state = global_state
        self.document: Optional[MrdiDocument] = None
        self.path: list[str] = []
        self._loading: set[str] = set()

    def cursor(self) -> str:
        return "/".join(["data"] + self.path)
