"""Persistent fact-store subsystem: O(1) snapshots, a SQLite backend and
the engine's crash-safe verdict cache.

Snapshots make configurations cheap to capture and picklable.  See
``src/repro/store/README.md`` for the architecture note.
"""

from repro.store.backend import (
    BACKENDS,
    MEMORY_BACKEND,
    SQLITE_BACKEND,
    StoreBackend,
    configured_store_backend,
    create_store,
    resolve_backend,
)
from repro.store.hamt import EMPTY_PMAP, PMap
from repro.store.snapshot import Shard, Snapshot, SnapshotInstance
from repro.store.sqlstore import SQLSnapshot, SQLStoreInstance, SQLStoreView
from repro.store.verdict_cache import (
    BloomFilter,
    LRUMemo,
    VerdictCache,
    atomic_write_bytes,
    clear_store,
    encode_key,
    store_stats,
    verify_store,
)

__all__ = [
    "BACKENDS",
    "MEMORY_BACKEND",
    "SQLITE_BACKEND",
    "StoreBackend",
    "configured_store_backend",
    "create_store",
    "resolve_backend",
    "EMPTY_PMAP",
    "PMap",
    "Shard",
    "Snapshot",
    "SnapshotInstance",
    "SQLSnapshot",
    "SQLStoreInstance",
    "SQLStoreView",
    "BloomFilter",
    "LRUMemo",
    "VerdictCache",
    "atomic_write_bytes",
    "clear_store",
    "encode_key",
    "store_stats",
    "verify_store",
]
