"""Crash-safe two-tier verdict cache for the decision engine.

The engine's cross-request memo is its biggest lever — fingerprints are
stable, canonical tokens and matrix workloads repeat 80–90% of their
tasks — but an unbounded in-process dict dies with the process, so a
fleet of workers or repeated CLI runs re-solve everything.  This module
makes verdicts durable without ever risking a *wrong* one: a cache that
can serve a corrupt, torn or stale entry is worse than no cache, so
every failure mode degrades to a counted, traced recomputation.

## Tiers

* **Memory** — :class:`LRUMemo`, a bounded LRU map (``REPRO_MEMO_CAPACITY``,
  ``0`` = unbounded) with hit/miss/eviction counters.
* **Disk** — an append log of immutable *segment* files in a shared
  directory (``REPRO_MEMO_PERSIST_PATH``).  Batches of verdicts are
  buffered in memory and spilled as one new segment per flush.  Every
  engine built with the default policy shares it, ``repro matrix``'s
  included; the per-call front doors (``repro sat`` among them) run no
  engine, so they neither read nor write it.

## Record format

A segment is ``b"RVC1"`` + one format-version byte, followed by records::

    <klen:u32le> <vlen:u32le> <crc32(key+value):u32le> <key bytes> <value bytes>

Keys are canonical cross-process-stable encodings of task fingerprints
(:func:`encode_key` — notably *not* raw pickle, whose set iteration
order depends on the per-process hash seed); values are pickled result
objects.  Readers verify the per-record checksum and compare the full
key bytes on every hit, so a hash collision or flipped bit can only ever
produce a *miss*.

The engine's fingerprints are ``(kind, key)`` tuples whose parts —
schema key, query keys, relevance shared key, snapshot — are the same
objects across every task of a matrix batch.  So :meth:`VerdictCache.
_key_bytes` writes ``encode_key``'s tuple framing itself and joins the
parts' encodings from a per-batch memo keyed by identity, ``id(part) →
(part, bytes)``: holding the part keeps its id from being reused, and
:meth:`VerdictCache.flush` (called at the end of every engine batch,
abandoned or failed ones included) empties the memo.  Identity is safe
because the engine's keys are hashable (``try_key``), so no list, dict
or set can change inside a part, and a hit returns bytes computed from
that very object; equal parts of other types (``True`` and ``1``) are
never conflated.  The bytes are exactly ``encode_key(fingerprint)``, so
stores written before the memo still hit.

## Writing and locking

Segments are written only through :func:`atomic_write_bytes` (unique tmp
file + ``fsync`` + ``os.replace`` + directory ``fsync``), so a reader
never observes a half-written segment: a crash mid-write leaves a stray
``*.tmp`` and an untouched directory.  All writes happen under an
advisory ``flock`` on ``<dir>/lock`` — the kernel releases it when a
holder dies, so a crashed process can never wedge the store (stale-lock
recovery is automatic).  A lock-acquisition timeout
(``REPRO_MEMO_LOCK_TIMEOUT``) degrades that flush to compute-only with a
single warning.  When the directory accumulates more than
``REPRO_MEMO_COMPACT_SEGMENTS`` segments, the flush holding the lock
compacts them into one (later-wins by segment sequence); a crash
mid-compaction leaves duplicate records, which the next scan resolves
identically.

## Degradation matrix

Every failure is counted in :meth:`VerdictCache.stats`, mirrored into
the :mod:`repro.obs.metrics` registry under ``verdict_cache.*``, and
(when tracing is on) emitted as a ``verdict_cache.degraded`` event:

=================  ==============================================
corrupt record     skipped (framing intact → rest of segment kept)
truncated segment  parsed up to the tear, tail dropped
newer format       store disabled, compute-only, single warning
older format       segment skipped, single warning
``ENOSPC``         persistence disabled, single warning
lock timeout       flush skipped, single warning
unreadable file    treated as a miss
=================  ==============================================

Partial (``UNKNOWN``/interrupted) results are never handed to the cache
(the engine's never-memoize-partials rule), so nothing partial is ever
persisted.

## Fault injection

The storage points of :mod:`repro.store.faults` (``torn_write``,
``corrupt_record``, ``partial_read``, ``lock_timeout``, ``disk_full``)
hook the exact syscall boundaries here, so the crash-consistency suite
can prove verdict-for-verdict equality with the cold-cache oracle under
every fault.
"""

from __future__ import annotations

import enum
import errno
import hashlib
import itertools
import os
import pickle
import struct
import time
import warnings
import zlib
from collections import OrderedDict
from dataclasses import fields as dataclass_fields, is_dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.obs.env import (
    DEFAULT_MEMO_CAPACITY,
    DEFAULT_MEMO_COMPACT_SEGMENTS,
    DEFAULT_MEMO_LOCK_TIMEOUT,
    MEMO_CAPACITY_ENV,
    MEMO_COMPACT_SEGMENTS_ENV,
    MEMO_LOCK_TIMEOUT_ENV,
    MEMO_PERSIST_PATH_ENV,
    non_negative_int,
    positive_float,
    positive_int,
    raw_string,
)
from repro.store import faults

try:  # pragma: no cover - fcntl is present on every supported platform
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

#: Segment file magic; the trailing byte of the header is the version.
MAGIC = b"RVC1"
#: Bump on any incompatible record-format change.  A store written by a
#: *newer* library disables this process's cache (compute-only) — old
#: code must neither misread new records nor pollute a new store.
FORMAT_VERSION = 1

_HEADER = MAGIC + bytes([FORMAT_VERSION])
_RECORD = struct.Struct("<III")  # klen, vlen, crc32(key + value)
#: ``encode_key``'s framing of a 2-tuple (tag + length), the head of
#: every engine fingerprint ``(kind, key)``.
_PAIR_FRAME = b"\x07" + struct.pack("<I", 2)

_SEGMENT_SUFFIX = ".seg"
_LOCK_NAME = "lock"

#: Distinguished miss token (``None`` is a legal cached value).
_MISS = object()

_TMP_COUNTER = itertools.count()


# ----------------------------------------------------------------------
# One-time degradation warnings
# ----------------------------------------------------------------------
_WARNED: set = set()


def _warn_once(key: str, message: str) -> None:
    """Warn once per process about a degradation (then stay quiet)."""
    if key in _WARNED:
        return
    _WARNED.add(key)
    warnings.warn(message, RuntimeWarning, stacklevel=3)


# ----------------------------------------------------------------------
# Canonical key encoding
# ----------------------------------------------------------------------
def _lp(data: bytes) -> bytes:
    """Length-prefixed framing (keeps every encoding self-delimiting)."""
    return struct.pack("<I", len(data)) + data


def encode_key(obj: object) -> bytes:
    """A canonical, cross-process-stable byte encoding of a fingerprint.

    Raw pickle is *not* stable: frozensets pickle in iteration order,
    which depends on the per-process hash seed, so pickled fingerprints
    from two CLI runs would never match on disk.  This encoder is
    type-tagged and recursive; unordered containers sort their elements
    by encoded bytes (injective by induction, so the order is total and
    deterministic), snapshots encode their repr-sorted fact content
    rather than their seed-dependent hash fingerprint, and dataclasses
    (formulas, bounds, results) encode as qualified name plus fields.

    Objects outside the known vocabulary fall back to pickle — a
    potentially unstable encoding, but the failure mode is a cache
    *miss*, never a wrong hit (readers compare full key bytes).
    """
    if obj is None:
        return b"\x00"
    if obj is True:
        return b"\x01"
    if obj is False:
        return b"\x02"
    kind = type(obj)
    if kind is int:
        return b"\x03" + _lp(str(obj).encode("ascii"))
    if kind is float:
        return b"\x04" + struct.pack("<d", obj)
    if kind is str:
        return b"\x05" + _lp(obj.encode("utf-8", "surrogatepass"))
    if kind is bytes:
        return b"\x06" + _lp(obj)
    if kind is tuple:
        return b"\x07" + struct.pack("<I", len(obj)) + b"".join(
            encode_key(item) for item in obj
        )
    if kind is list:
        return b"\x08" + struct.pack("<I", len(obj)) + b"".join(
            encode_key(item) for item in obj
        )
    if kind is frozenset or kind is set:
        parts = sorted(encode_key(item) for item in obj)
        return b"\x09" + struct.pack("<I", len(parts)) + b"".join(parts)
    if kind is dict:
        parts = sorted(
            encode_key(key) + encode_key(value) for key, value in obj.items()
        )
        return b"\x0a" + struct.pack("<I", len(parts)) + b"".join(parts)
    if isinstance(obj, enum.Enum):
        return (
            b"\x0b"
            + _lp(f"{kind.__module__}.{kind.__qualname__}".encode("utf-8"))
            + _lp(obj.name.encode("utf-8"))
        )
    # Foreign store backends (e.g. the SQL store's snapshots) provide the
    # Snapshot-branch payload themselves — duck-typed so this module never
    # imports them; equal facts encode to identical bytes across backends.
    payload_builder = getattr(obj, "_verdict_key_payload", None)
    if payload_builder is not None:
        return b"\x0c" + encode_key(payload_builder())
    # Snapshot content (imported lazily: snapshot.py must not depend on us).
    from repro.store.snapshot import Snapshot

    if isinstance(obj, Snapshot):
        names = tuple(obj.schema.names())
        payload = tuple(
            (name, tuple(sorted(shard.tuples, key=repr)))
            for name, shard in sorted(obj.shards.items())
            if shard.count
        )
        return b"\x0c" + encode_key((names, payload))
    if is_dataclass(obj) and not isinstance(obj, type):
        values = tuple(
            getattr(obj, field.name) for field in dataclass_fields(obj)
        )
        return (
            b"\x0d"
            + _lp(f"{kind.__module__}.{kind.__qualname__}".encode("utf-8"))
            + encode_key(values)
        )
    return b"\x0e" + _lp(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


# ----------------------------------------------------------------------
# Atomic writes
# ----------------------------------------------------------------------
def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write *data* to *path* so readers see the old file or all of *data*.

    Unique tmp file in the same directory → write → ``fsync`` →
    ``os.replace`` → directory ``fsync``.  This is the **only** function
    allowed to create or replace verdict-store files (lint rule IO001).

    Fault hooks: ``disk_full`` raises ``ENOSPC`` before anything is
    written; ``torn_write`` persists only a truncated prefix (action
    ``trip``) or kills the process after the tmp write and before the
    replace (action ``kill`` — the scripted mid-write crash).
    """
    if faults.storage_fault("disk_full") is not None:
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)
    torn = faults.storage_fault("torn_write")
    payload = data[: len(data) // 2] if torn is not None else data
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(
        directory,
        f".{os.path.basename(path)}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp",
    )
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
    try:
        try:
            os.write(fd, payload)
            os.fsync(fd)
        finally:
            os.close(fd)
        if torn is not None and torn.action == "kill":
            os._exit(faults.KILL_EXIT_CODE)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


# ----------------------------------------------------------------------
# Memory tier
# ----------------------------------------------------------------------
class LRUMemo:
    """Bounded LRU map over task fingerprints (capacity ``<= 0``: unbounded)."""

    __slots__ = ("_entries", "capacity", "hits", "misses", "evictions")

    def __init__(self, capacity: int = 0) -> None:
        self._entries: "OrderedDict[object, object]" = OrderedDict()
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: object) -> object:
        """The cached value or :data:`_MISS`; a hit refreshes recency."""
        value = self._entries.get(key, _MISS)
        if value is _MISS:
            self.misses += 1
            return _MISS
        self.hits += 1
        if self.capacity > 0:
            self._entries.move_to_end(key)
        return value

    def put(self, key: object, value: object) -> None:
        self._entries[key] = value
        if self.capacity > 0:
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def clear(self) -> None:
        self._entries.clear()


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------
#: Counter names exposed by :meth:`VerdictCache.stats` (and mirrored into
#: the metrics registry as ``verdict_cache.<name>``).
_COUNTERS = (
    "disk_hits",
    "disk_misses",
    "persisted_records",
    "segments_written",
    "compactions",
    "corrupt_records",
    "truncated_segments",
    "version_mismatches",
    "lock_timeouts",
    "write_errors",
    "read_errors",
    "decode_errors",
    "encode_errors",
)


class VerdictCache:
    """Bounded memory tier + optional crash-safe persistent tier.

    The engine owns one per instance: :meth:`lookup` on classify,
    :meth:`put` on store, :meth:`flush` once per batch.  Thread-safety
    matches the engine's (single-threaded per instance); *process* safety
    is the point — concurrent processes share the store through immutable
    segments and the flock-serialised writer protocol.
    """

    def __init__(
        self,
        capacity: Optional[int] = None,
        persist_path: Optional[str] = None,
        lock_timeout_s: Optional[float] = None,
        compact_segments: Optional[int] = None,
    ) -> None:
        if capacity is None:
            capacity = non_negative_int(MEMO_CAPACITY_ENV, DEFAULT_MEMO_CAPACITY)
        if persist_path is None:
            persist_path = raw_string(MEMO_PERSIST_PATH_ENV, "").strip()
        if lock_timeout_s is None:
            lock_timeout_s = positive_float(
                MEMO_LOCK_TIMEOUT_ENV, DEFAULT_MEMO_LOCK_TIMEOUT
            )
        if compact_segments is None:
            compact_segments = positive_int(
                MEMO_COMPACT_SEGMENTS_ENV, DEFAULT_MEMO_COMPACT_SEGMENTS
            )
        self.memo = LRUMemo(capacity)
        self.persist_path = persist_path or None
        self.lock_timeout_s = lock_timeout_s or DEFAULT_MEMO_LOCK_TIMEOUT
        self.compact_segments = compact_segments
        self.counters: Dict[str, int] = {name: 0 for name in _COUNTERS}
        self._pending: List[Tuple[bytes, bytes]] = []
        # id(part) -> (part, encode_key(part)) for this batch's key parts;
        # holding the part pins its id until flush() empties the memo.
        self._part_bytes: Dict[int, Tuple[object, bytes]] = {}
        # digest -> (segment path, record payload offset, klen, vlen, crc)
        self._index: Dict[bytes, Tuple[str, int, int, int, int]] = {}
        self._scanned = False
        self._dir_sig: Optional[Tuple[int, int]] = None
        self._disabled = False  # newer-format store: compute-only mode
        self._write_disabled = False  # ENOSPC: reads still fine

    # -- counting ------------------------------------------------------
    def _bump(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount
        _metrics.counter(f"verdict_cache.{name}", amount)

    def _degrade(self, point: str, reason: str, warn: Optional[str] = None) -> None:
        """Count + trace one degradation; optionally warn once."""
        self._bump(point)
        _trace.event("verdict_cache.degraded", point=point, reason=reason)
        if warn is not None:
            _warn_once(f"{self.persist_path}:{point}", warn)

    # -- tier 1: memory ------------------------------------------------
    def lookup(self, fingerprint: object) -> Tuple[object, Optional[str]]:
        """``(value, tier)`` — tier ``"memory"``, ``"disk"`` or ``None`` (miss)."""
        value = self.memo.get(fingerprint)
        if value is not _MISS:
            return value, "memory"
        if self.persist_path is None or self._disabled:
            return None, None
        value = self._disk_lookup(fingerprint)
        if value is _MISS:
            return None, None
        # Promote: later same-process hits are memory hits on the same
        # object, preserving the memo's pristine-original semantics.
        self.memo.put(fingerprint, value)
        return value, "disk"

    def put(self, fingerprint: object, value: object) -> None:
        """Store a *complete* verdict (partials are the engine's to reject)."""
        self.memo.put(fingerprint, value)
        if self.persist_path is None or self._disabled or self._write_disabled:
            return
        try:
            key_bytes = self._key_bytes(fingerprint)
            value_bytes = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            # Unpicklable payloads opt out of the disk tier, like
            # unkeyable tasks opt out of memoization.
            self._bump("encode_errors")
            return
        self._pending.append((key_bytes, value_bytes))

    def clear(self, *, disk: bool = False) -> None:
        """Drop the memory tier (and with ``disk=True`` the store files)."""
        self.memo.clear()
        self._pending.clear()
        if disk and self.persist_path is not None:
            clear_store(self.persist_path, lock_timeout_s=self.lock_timeout_s)
        self._index.clear()
        self._scanned = False
        self._dir_sig = None

    def __len__(self) -> int:
        return len(self.memo)

    def stats(self) -> Dict[str, object]:
        out: Dict[str, object] = dict(self.counters)
        out["memory_hits"] = self.memo.hits
        out["memory_misses"] = self.memo.misses
        out["evictions"] = self.memo.evictions
        out["entries"] = len(self.memo)
        out["capacity"] = self.memo.capacity
        out["pending_records"] = len(self._pending)
        out["indexed_records"] = len(self._index)
        out["persist_enabled"] = bool(
            self.persist_path and not self._disabled and not self._write_disabled
        )
        return out

    def _key_bytes(self, fingerprint: object) -> bytes:
        """``encode_key(fingerprint)``, each key part encoded once per batch.

        An engine fingerprint is ``(kind, key)`` with a tuple *key* whose
        parts — schema key, query keys, snapshot — are the same objects
        across a matrix batch.  This writes the tuple framing
        :func:`encode_key` writes and joins the parts' encodings from the
        identity memo; any other shape is encoded directly.
        """
        if type(fingerprint) is not tuple or len(fingerprint) != 2:
            return encode_key(fingerprint)
        kind, key = fingerprint
        if type(key) is not tuple:
            return encode_key(fingerprint)
        memo = self._part_bytes
        chunks = [_PAIR_FRAME, encode_key(kind), b"\x07" + struct.pack("<I", len(key))]
        for part in key:
            entry = memo.get(id(part))
            if entry is None:
                entry = memo[id(part)] = (part, encode_key(part))
            chunks.append(entry[1])
        return b"".join(chunks)

    # -- tier 2: disk --------------------------------------------------
    def _segment_paths(self) -> List[str]:
        """Current segments, oldest first (sequence order = write order)."""
        assert self.persist_path is not None
        try:
            names = os.listdir(self.persist_path)
        except OSError:
            return []
        return [
            os.path.join(self.persist_path, name)
            for name in sorted(names)
            if name.endswith(_SEGMENT_SUFFIX)
        ]

    def _dir_signature(self) -> Optional[Tuple[int, int]]:
        try:
            stat = os.stat(self.persist_path)  # type: ignore[arg-type]
        except OSError:
            return None
        return (stat.st_mtime_ns, stat.st_ino)

    def _read_file(self, path: str) -> bytes:
        with open(path, "rb") as handle:
            data = handle.read()
        if faults.storage_fault("partial_read") is not None:
            data = data[: len(data) // 2]
        return data

    def _read_span(self, path: str, offset: int, length: int) -> bytes:
        with open(path, "rb") as handle:
            handle.seek(offset)
            data = handle.read(length)
        if faults.storage_fault("partial_read") is not None:
            data = data[: len(data) // 2]
        return data

    def _scan(self) -> None:
        """(Re)build the digest index from the segments."""
        self._index.clear()
        self._scanned = True
        self._dir_sig = self._dir_signature()
        for path in self._segment_paths():
            try:
                data = self._read_file(path)
            except OSError:
                self._degrade("read_errors", f"unreadable segment {path}")
                continue
            if len(data) < len(_HEADER) or data[:4] != MAGIC:
                self._degrade(
                    "version_mismatches",
                    f"bad magic in {path}",
                    warn=f"verdict cache: skipping non-RVC file {path!r}",
                )
                continue
            version = data[4]
            if version > FORMAT_VERSION:
                # A newer library owns this store; neither read nor
                # pollute it.  Compute-only from here on.
                self._disabled = True
                self._index.clear()
                self._degrade(
                    "version_mismatches",
                    f"segment format v{version} > v{FORMAT_VERSION}",
                    warn=(
                        f"verdict cache at {self.persist_path!r} uses format "
                        f"v{version} (this library writes v{FORMAT_VERSION}); "
                        "falling back to compute-only mode"
                    ),
                )
                return
            if version < FORMAT_VERSION:
                self._degrade(
                    "version_mismatches",
                    f"segment format v{version} < v{FORMAT_VERSION}",
                    warn=(
                        f"verdict cache: skipping old-format (v{version}) "
                        f"segment {path!r}"
                    ),
                )
                continue
            # Later segments win (the dict keeps the last assignment).
            for digest, entry in self._parse_records(path, data):
                self._index[digest] = entry

    def _parse_records(
        self, path: str, data: bytes
    ) -> Iterator[Tuple[bytes, Tuple[str, int, int, int, int]]]:
        pos = len(_HEADER)
        total = len(data)
        while pos + _RECORD.size <= total:
            klen, vlen, crc = _RECORD.unpack_from(data, pos)
            start = pos + _RECORD.size
            end = start + klen + vlen
            if end > total:
                self._degrade("truncated_segments", f"torn tail in {path}")
                return
            blob = data[start:end]
            pos = end
            if zlib.crc32(blob) & 0xFFFFFFFF != crc:
                # Framing is intact, so later records in the segment
                # are still recoverable.
                self._degrade("corrupt_records", f"checksum mismatch in {path}")
                continue
            digest = hashlib.sha256(blob[:klen]).digest()[:16]
            yield digest, (path, start, klen, vlen, crc)
        if pos != total:
            self._degrade("truncated_segments", f"torn tail in {path}")

    def _disk_lookup(self, fingerprint: object) -> object:
        try:
            key_bytes = self._key_bytes(fingerprint)
        except Exception:
            self._bump("encode_errors")
            return _MISS
        if not self._scanned or self._dir_sig != self._dir_signature():
            self._scan()
            if self._disabled:
                return _MISS
        digest = hashlib.sha256(key_bytes).digest()[:16]
        entry = self._index.get(digest)
        if entry is None:
            self._bump("disk_misses")
            return _MISS
        path, start, klen, vlen, crc = entry
        try:
            blob = self._read_span(path, start, klen + vlen)
        except OSError:
            self._degrade("read_errors", f"unreadable record in {path}")
            return _MISS
        if len(blob) != klen + vlen or zlib.crc32(blob) & 0xFFFFFFFF != crc:
            self._degrade("corrupt_records", f"checksum mismatch in {path}")
            return _MISS
        if blob[:klen] != key_bytes:
            # 128-bit digest collision: astronomically unlikely, but the
            # exact key comparison makes it a miss, never a wrong hit.
            self._bump("disk_misses")
            return _MISS
        try:
            value = pickle.loads(blob[klen:])
        except Exception:
            self._degrade("decode_errors", f"undecodable value in {path}")
            return _MISS
        self._bump("disk_hits")
        _trace.event("verdict_cache.disk_hit", segment=os.path.basename(path))
        return value

    # -- persistence ---------------------------------------------------
    def flush(self) -> None:
        """Spill buffered verdicts as one new segment (batch boundary)."""
        self._part_bytes.clear()
        if not self._pending:
            return
        if (
            self.persist_path is None
            or self._disabled
            or self._write_disabled
            or fcntl is None
        ):
            self._pending.clear()
            return
        with _trace.trace_span(
            "verdict_cache.flush", records=len(self._pending)
        ):
            self._flush_locked()

    def _flush_locked(self) -> None:
        try:
            os.makedirs(self.persist_path, exist_ok=True)  # type: ignore[arg-type]
        except OSError:
            self._degrade(
                "write_errors",
                f"cannot create {self.persist_path}",
                warn=(
                    f"verdict cache: cannot create {self.persist_path!r}; "
                    "persistence disabled"
                ),
            )
            self._write_disabled = True
            self._pending.clear()
            return
        lock_fd = self._acquire_lock()
        if lock_fd is None:
            self._degrade(
                "lock_timeouts",
                "flush skipped (lock busy)",
                warn=(
                    f"verdict cache: lock at {self.persist_path!r} busy for "
                    f">{self.lock_timeout_s}s; this batch stays compute-only"
                ),
            )
            self._pending.clear()
            return
        try:
            # Another writer may have added segments since this cache last
            # looked: only an index that was current before this write may
            # adopt the signature after it, or those segments stay hidden.
            current = self._dir_signature() == self._dir_sig
            # Writers are serialised by the lock, so any leftover tmp
            # file belongs to a crashed writer and is dead.
            self._cleanup_tmp()
            self._write_segment()
            rescanned = self._maybe_compact()
            self._dir_sig = (
                self._dir_signature() if current or rescanned else None
            )
        finally:
            self._release_lock(lock_fd)

    def _write_segment(self) -> None:
        assert self.persist_path is not None
        seq = self._next_sequence()
        path = os.path.join(
            self.persist_path, f"verdicts-{seq:08d}-{os.getpid()}{_SEGMENT_SUFFIX}"
        )
        chunks = [_HEADER]
        offsets: List[Tuple[bytes, int, int, int, int]] = []
        pos = len(_HEADER)
        for key_bytes, value_bytes in self._pending:
            blob = key_bytes + value_bytes
            crc = zlib.crc32(blob) & 0xFFFFFFFF
            chunks.append(_RECORD.pack(len(key_bytes), len(value_bytes), crc))
            start = pos + _RECORD.size
            digest = hashlib.sha256(key_bytes).digest()[:16]
            offsets.append((digest, start, len(key_bytes), len(value_bytes), crc))
            chunks.append(blob)
            pos = start + len(blob)
        payload = b"".join(chunks)
        if faults.storage_fault("corrupt_record") is not None and offsets:
            # Flip one byte inside the first record's value region: the
            # framing stays intact, the checksum does not.
            corrupt = bytearray(payload)
            _, start, klen, _, _ = offsets[0]
            corrupt[start + klen] ^= 0xFF
            payload = bytes(corrupt)
        count = len(self._pending)
        self._pending.clear()
        try:
            atomic_write_bytes(path, payload)
        except OSError as exc:
            if exc.errno == errno.ENOSPC:
                self._write_disabled = True
                self._degrade(
                    "write_errors",
                    "ENOSPC",
                    warn=(
                        f"verdict cache: no space left at "
                        f"{self.persist_path!r}; persistence disabled"
                    ),
                )
            else:
                self._degrade("write_errors", f"segment write failed: {exc}")
            return
        self._bump("segments_written")
        self._bump("persisted_records", count)
        if self._scanned:
            for digest, start, klen, vlen, crc in offsets:
                self._index[digest] = (path, start, klen, vlen, crc)

    def _next_sequence(self) -> int:
        highest = 0
        for path in self._segment_paths():
            name = os.path.basename(path)
            parts = name[: -len(_SEGMENT_SUFFIX)].split("-")
            try:
                highest = max(highest, int(parts[1]))
            except (IndexError, ValueError):
                continue
        return highest + 1

    def _maybe_compact(self) -> bool:
        """Merge the append log into one segment (later-wins), under lock.

        Crash-safe by construction: the merged segment lands atomically
        with the highest sequence number before any old segment is
        unlinked, so a crash at any point leaves duplicates that the
        normal later-wins scan resolves to the same verdicts.  Returns
        whether it compacted, and so rescanned the directory.
        """
        paths = self._segment_paths()
        if len(paths) <= self.compact_segments:
            return False
        merged: "OrderedDict[bytes, Tuple[int, bytes]]" = OrderedDict()
        for path in paths:
            try:
                data = self._read_file(path)
            except OSError:
                self._degrade("read_errors", f"unreadable segment {path}")
                continue
            if len(data) < len(_HEADER) or data[:4] != MAGIC:
                continue
            if data[4] != FORMAT_VERSION:
                if data[4] > FORMAT_VERSION:
                    self._disabled = True
                    return False
                continue
            for digest, (_, start, klen, vlen, _) in self._parse_records(
                path, data
            ):
                merged[digest] = (klen, data[start : start + klen + vlen])
                merged.move_to_end(digest)
        seq = self._next_sequence()
        assert self.persist_path is not None
        target = os.path.join(
            self.persist_path, f"verdicts-{seq:08d}-{os.getpid()}{_SEGMENT_SUFFIX}"
        )
        chunks = [_HEADER]
        for klen, blob in merged.values():
            crc = zlib.crc32(blob) & 0xFFFFFFFF
            chunks.append(_RECORD.pack(klen, len(blob) - klen, crc))
            chunks.append(blob)
        payload = b"".join(chunks)
        try:
            atomic_write_bytes(target, payload)
        except OSError as exc:
            self._degrade("write_errors", f"compaction write failed: {exc}")
            return False
        for path in paths:
            try:
                os.unlink(path)
            except OSError:
                pass
        self._bump("compactions")
        self._scan()
        return True

    # -- locking -------------------------------------------------------
    def _acquire_lock(self) -> Optional[int]:
        assert self.persist_path is not None
        if faults.storage_fault("lock_timeout") is not None:
            return None
        lock_path = os.path.join(self.persist_path, _LOCK_NAME)
        try:
            fd = os.open(lock_path, os.O_RDWR | os.O_CREAT, 0o644)
        except OSError:
            return None
        # Lock-wait deadline: wall-time measurement is exactly what a
        # timeout is, and the obs clock indirection would add nothing.
        deadline = time.monotonic() + self.lock_timeout_s  # repro: noqa[TIME001]
        while True:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                return fd
            except OSError:
                if time.monotonic() >= deadline:  # repro: noqa[TIME001]
                    os.close(fd)
                    return None
                time.sleep(0.005)

    def _release_lock(self, fd: int) -> None:
        try:
            fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)

    def _cleanup_tmp(self) -> None:
        assert self.persist_path is not None
        try:
            names = os.listdir(self.persist_path)
        except OSError:
            return
        for name in names:
            if name.endswith(".tmp"):
                try:
                    os.unlink(os.path.join(self.persist_path, name))
                except OSError:
                    pass


# ----------------------------------------------------------------------
# Store-level helpers (CLI surface)
# ----------------------------------------------------------------------
def store_stats(path: str) -> Dict[str, object]:
    """Segment/record/byte counts of the store at *path* (read-only)."""
    cache = VerdictCache(capacity=0, persist_path=path)
    segments = cache._segment_paths()
    total_bytes = 0
    for segment in segments:
        try:
            total_bytes += os.path.getsize(segment)
        except OSError:
            pass
    cache._scan()
    stats = cache.stats()
    return {
        "path": path,
        "segments": len(segments),
        "records": stats["indexed_records"],
        "bytes": total_bytes,
        "format_version": FORMAT_VERSION,
        "corrupt_records": stats["corrupt_records"],
        "truncated_segments": stats["truncated_segments"],
        "version_mismatches": stats["version_mismatches"],
    }


def verify_store(path: str) -> Dict[str, object]:
    """Re-checksum every record of every segment at *path*.

    Returns a report with per-problem detail; ``ok`` is true only when
    every record of every segment verified clean.
    """
    problems: List[str] = []
    segments = 0
    records = 0
    try:
        names = sorted(os.listdir(path))
    except OSError as exc:
        return {
            "path": path,
            "ok": False,
            "segments": 0,
            "records": 0,
            "problems": [f"cannot list {path!r}: {exc}"],
        }
    for name in names:
        if not name.endswith(_SEGMENT_SUFFIX):
            continue
        segments += 1
        segment = os.path.join(path, name)
        try:
            with open(segment, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            problems.append(f"{name}: unreadable ({exc})")
            continue
        if len(data) < len(_HEADER) or data[:4] != MAGIC:
            problems.append(f"{name}: bad magic")
            continue
        if data[4] != FORMAT_VERSION:
            problems.append(
                f"{name}: format v{data[4]} (expected v{FORMAT_VERSION})"
            )
            continue
        pos = len(_HEADER)
        while pos + _RECORD.size <= len(data):
            klen, vlen, crc = _RECORD.unpack_from(data, pos)
            start = pos + _RECORD.size
            end = start + klen + vlen
            if end > len(data):
                problems.append(f"{name}: truncated record at offset {pos}")
                pos = len(data)
                break
            if zlib.crc32(data[start:end]) & 0xFFFFFFFF != crc:
                problems.append(f"{name}: checksum mismatch at offset {pos}")
            else:
                records += 1
            pos = end
        if pos != len(data):
            problems.append(f"{name}: trailing garbage at offset {pos}")
    return {
        "path": path,
        "ok": not problems,
        "segments": segments,
        "records": records,
        "problems": problems,
    }


def clear_store(
    path: str, lock_timeout_s: float = DEFAULT_MEMO_LOCK_TIMEOUT
) -> int:
    """Remove every segment (and stray tmp) at *path*; returns files removed."""
    cache = VerdictCache(
        capacity=0, persist_path=path, lock_timeout_s=lock_timeout_s
    )
    try:
        names = os.listdir(path)
    except OSError:
        return 0
    lock_fd = cache._acquire_lock() if fcntl is not None else None
    removed = 0
    try:
        for name in names:
            if name.endswith(_SEGMENT_SUFFIX) or name.endswith(".tmp"):
                try:
                    os.unlink(os.path.join(path, name))
                    removed += 1
                except OSError:
                    pass
    finally:
        if lock_fd is not None:
            cache._release_lock(lock_fd)
    return removed
