"""Persistent fact-store subsystem: O(1) snapshots + the one pool scheduler.

Snapshots make configurations cheap to capture and picklable; the pool
scheduler (:mod:`repro.store.workqueue`) ships engine tasks to one shared
worker pool with one failure taxonomy.  See ``src/repro/store/README.md``
for the architecture note.
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
from repro.store.workqueue import (
    PoolScheduler,
    Shipped,
    discard_shared_pool,
    shared_pool,
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
    "PoolScheduler",
    "Shipped",
    "discard_shared_pool",
    "shared_pool",
]
