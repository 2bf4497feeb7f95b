"""The embedded-SQLite store backend: instances bigger than RAM.

:class:`SQLStoreInstance` is the second implementation of the store
backend interface (:mod:`repro.store.backend`): the same facade surface
as :class:`~repro.store.snapshot.SnapshotInstance` — the ``_data``
mapping and ``index``/``tuples``/``tuples_view`` probes the compiled
plan executor uses, the ``add``/``add_unchecked``/``discard`` mutation
API, O(#relations) ``snapshot``/``restore`` — backed by per-relation
SQLite tables instead of in-heap shards, so the working set lives on
disk and only cursors and counters live in Python.

## MVCC layout (snapshots as versioned views, not copies)

Each relation's table holds encoded value columns ``c0..cN`` plus two
generation columns: ``g`` — the generation a row became visible — and
``d`` — the generation it stopped being visible (``NULL`` = live).  The
head (current mutable state) reads ``d IS NULL``; snapshot generation
``S`` reads ``g <= S AND (d IS NULL OR d > S)``.  A snapshot is therefore
one committed transaction plus five Python integers — no data is copied.
A *pin* (:meth:`SQLStoreInstance.pin`) freezes a generation the same way
but inside the open transaction, with no metadata write and no commit:
the Datalog fixedpoint's per-round previous-generation side.  Mutations
after a snapshot or pin only ever touch *unfrozen* rows (``g`` or ``d``
above the last frozen generation), so every frozen generation's visible
set is immutable.  :meth:`SQLStoreInstance.restore` first rolls back the
open transaction, which returns the head to the last committed snapshot
exactly and leaves nothing of the transaction behind; an older target
then tombstones and re-opens rows at the working generation.  A fact's
validity intervals stay pairwise disjoint, which is what lets the SQL
join pushdown (:mod:`repro.store.sqlcodegen`) run without ``DISTINCT``.

## Fingerprint parity with the memory backend

The store maintains the same commutative content fingerprint as the
in-memory shards (``_fact_hash`` sums/xors), so an :class:`SQLSnapshot`
hashes and compares equal to a :class:`~repro.store.snapshot.Snapshot`
with the same facts: engine memo keys, visited sets and the persistent
verdict cache (byte-identical ``encode_key`` via
``_verdict_key_payload``) all work unchanged across backends.

## Value encoding

Fact values are stored in SQLite's own storage classes
(:func:`encode_value`): ``str`` as TEXT; ``int``, ``bool`` and integral
``float`` within int64 as INTEGER; non-integral finite ``float`` and
``±inf`` as REAL.  Two BLOB tags cover what SQLite cannot hold natively:
``None`` is ``b"n"`` and an integer outside int64 (an integral float such
as ``1e300`` included) is ``b"i<digits>"``.  Numeric values collapse to
their canonical equal (``True``/``1``/``1.0`` all store as INTEGER ``1``
and read back as ``1``), the same equivalence the in-memory ``set``
semantics already impose.  Canonical values of different storage
classes never compare equal in SQL, so ``=``/``<>`` over stored values
agree with Python ``==``/``!=``.  The value columns are declared
``BLOB``: BLOB affinity means SQLite never converts a value (TEXT or
NUMERIC affinity would turn ``1`` into ``'1'`` or ``'1'`` into ``1``).
``None`` is a tag, not SQL ``NULL``: ``NULL = NULL`` is not true, and
the partial UNIQUE index would admit duplicate live rows.  Only a row
holding a BLOB needs decoding; every other row is already the Python
tuple.  Values outside the scalar vocabulary raise ``TypeError`` on
write; on the read side an un-encodable probe value simply matches
nothing.  The on-disk layout is format 2 (:data:`_META_FORMAT`); a store
written in another format is refused on open.

## Durability

The connection runs one explicit transaction per snapshot interval:
mutations and pins open it lazily, :meth:`SQLStoreInstance.snapshot`
writes the counter metadata and commits — snapshots are the only
durability points, and SQLite's journal makes each checkpoint atomic (a
crashed writer rolls back to the previous snapshot, never a torn state).
An in-place fixedpoint without a generation log commits nothing, so it
is atomic too: a crash or fault mid-fixedpoint leaves the pre-fixedpoint
state on disk.  A rollback drops the temp tables created inside the
transaction, so the store forgets its delta and derived tables then and
re-creates them on next use.  The scripted ``sql_commit``/
``sql_pushdown`` fault points (:mod:`repro.store.faults`) let the tests
prove both degradations.
"""

from __future__ import annotations

import json
import os
import sqlite3
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.obs import env as _env
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.queries import plan_cache as _pc
from repro.queries.atoms import Atom
from repro.queries.terms import Variable
from repro.relational.instance import Fact, FrozenInstance, Instance
from repro.relational.schema import Relation, Schema, SchemaError
from repro.relational.types import ANY
from repro.store import faults
from repro.store import sqlcodegen as _sql
from repro.store.snapshot import (
    Snapshot,
    SnapshotInstance,
    _fact_hash,
    _M64,
    _snapshot_from_payload,
)

_EMPTY_FROZENSET: FrozenSet[Tuple[object, ...]] = frozenset()

#: Default row threshold above which compiled plans push down as SQL
#: joins (below it the in-memory executor runs against the SQL facade —
#: correct either way; the threshold only picks the faster engine).
DEFAULT_SQL_PUSHDOWN_MIN_ROWS = _env.DEFAULT_SQL_PUSHDOWN_MIN_ROWS

#: Batch size of bulk cursor fetches (pushdown results, bulk copies).
_FETCH_BATCH = 1024

#: On-disk layout version, checked on open.  Format 1 stored values as
#: tagged TEXT; format 2 stores them in SQLite's storage classes.
_META_FORMAT = 2


def _pushdown_threshold() -> int:
    return _env.positive_int(
        _env.SQL_PUSHDOWN_MIN_ROWS_ENV, _env.DEFAULT_SQL_PUSHDOWN_MIN_ROWS
    )


# ----------------------------------------------------------------------
# Value encoding (SQLite storage classes; equality-faithful for scalars)
# ----------------------------------------------------------------------
_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1
#: The BLOB tag of ``None`` (SQL ``NULL`` never equals itself).
_NONE_BLOB = b"n"


def _encode_int(value: int) -> object:
    if _INT64_MIN <= value <= _INT64_MAX:
        return value
    return b"i" + str(value).encode("ascii")


def encode_value(value: object) -> object:
    """The stored SQLite value of one fact value.

    Injective on Python equality classes: equal values (including
    ``True == 1 == 1.0``) share one encoding, unequal values never do —
    so SQL ``=``/``<>`` over encodings agrees with Python ``==``/``!=``.
    ``str`` stays TEXT, integers within int64 are INTEGER, non-integral
    floats and ``±inf`` are REAL; ``None`` and integers outside int64
    are tagged BLOBs.  Raises ``TypeError`` outside the scalar
    vocabulary (str/int/float/bool/None; NaN is rejected because it is
    not equal to itself).
    """
    kind = type(value)
    if kind is str:
        return value
    if kind is int or kind is bool:
        return _encode_int(int(value))
    if kind is float:
        if value != value:
            raise TypeError("NaN fact values are not supported by the SQL backend")
        try:
            integral = value == int(value)
        except OverflowError:
            return value  # +/-inf: no integer equals it, so REAL is canonical
        if integral:
            return _encode_int(int(value))
        return value
    if value is None:
        return _NONE_BLOB
    raise TypeError(
        "the SQL store backend supports scalar fact values "
        f"(str/int/float/bool/None), got {kind.__name__}"
    )


def decode_value(stored: object) -> object:
    """The canonical Python value of one stored SQLite value."""
    if type(stored) is not bytes:
        return stored
    if stored == _NONE_BLOB:
        return None
    return int(stored[1:])


def _encode_tuple(tup: Sequence[object]) -> Tuple[object, ...]:
    return tuple(map(encode_value, tup))


def _decode_row(row: Tuple[object, ...]) -> Tuple[object, ...]:
    """A fetched row as a fact tuple: only a row holding a BLOB changes."""
    if bytes in map(type, row):
        return tuple(map(decode_value, row))
    return row


def _decode_rows(arity: int, rows) -> Iterator[Tuple[object, ...]]:
    """Decode fetched tuple-select rows.

    Nullary selects still return one (dummy) column per visible row —
    SQL has no zero-column results — so every row decodes to ``()``.
    """
    if arity:
        return (_decode_row(row) for row in rows)
    return (() for _ in rows)


# ----------------------------------------------------------------------
# The ``_data`` facade (what the in-memory plan executor probes)
# ----------------------------------------------------------------------
class _SQLRelationView:
    """A live, read-only, sized view of one relation (head or pinned gen)."""

    __slots__ = ("_store", "_snap", "_name")

    def __init__(
        self, store: "SQLStoreInstance", snap: Optional["SQLSnapshot"], name: str
    ) -> None:
        self._store = store
        self._snap = snap
        self._name = name

    def __len__(self) -> int:
        if self._snap is None:
            return self._store._counts.get(self._name, 0)
        return self._snap._counts.get(self._name, 0)

    def __bool__(self) -> bool:
        return len(self) > 0

    def __iter__(self) -> Iterator[Tuple[object, ...]]:
        if self._snap is None:
            return iter(self._store._live_tuples(self._name))
        return iter(self._snap._tuples_at(self._name))

    def __contains__(self, tup: object) -> bool:
        if not isinstance(tup, tuple):
            return False
        if self._snap is None:
            return self._store.contains(self._name, tup)
        return self._snap._contains(self._name, tup)


class _SQLDataMap:
    """The ``._data`` mapping surface over lazily created relation views."""

    __slots__ = ("_store", "_snap", "_views")

    def __init__(
        self, store: "SQLStoreInstance", snap: Optional["SQLSnapshot"]
    ) -> None:
        self._store = store
        self._snap = snap
        self._views: Dict[str, _SQLRelationView] = {}

    def get(
        self, name: str, default: Optional[_SQLRelationView] = None
    ) -> Optional[_SQLRelationView]:
        view = self._views.get(name)
        if view is not None:
            return view
        if name not in self._store.schema:
            return default
        view = _SQLRelationView(self._store, self._snap, name)
        self._views[name] = view
        return view

    def __getitem__(self, name: str) -> _SQLRelationView:
        view = self.get(name)
        if view is None:
            raise KeyError(name)
        return view

    def __contains__(self, name: str) -> bool:
        return name in self._store.schema

    def __iter__(self) -> Iterator[str]:
        return iter(self._store.schema.names())

    def __len__(self) -> int:
        return len(self._store.schema)

    def keys(self) -> Tuple[str, ...]:
        return self._store.schema.names()

    def values(self) -> Iterator[_SQLRelationView]:
        for name in self._store.schema.names():
            yield self[name]

    def items(self) -> Iterator[Tuple[str, _SQLRelationView]]:
        for name in self._store.schema.names():
            yield name, self[name]


# ----------------------------------------------------------------------
# Snapshots (generation tokens) and pinned read views
# ----------------------------------------------------------------------
class SQLSnapshot:
    """An immutable state token of an :class:`SQLStoreInstance`.

    Hash and equality are **cross-backend**: the hash formula is the one
    :class:`~repro.store.snapshot.Snapshot` uses over the same
    commutative fact fingerprint, and equality against a memory
    ``Snapshot`` (or another SQL snapshot, even of a different store)
    compares exactly — counters first, then per-relation fact sets (the
    exact check materialises one relation at a time, so it is O(largest
    relation) memory; it only runs on fingerprint-equal pairs).

    Pickling materialises the fact payload and rebuilds as a memory
    ``Snapshot`` on the receiving side (the same fact-list serialisation
    contract as the memory backend) — ship small states, not 10M-fact
    stores.
    """

    __slots__ = (
        "_store",
        "gen",
        "count",
        "hash_sum",
        "hash_xor",
        "_counts",
        "schema",
        "_hash",
        "_view",
    )

    _sql_backend = True

    def __init__(
        self,
        store: "SQLStoreInstance",
        gen: int,
        count: int,
        hash_sum: int,
        hash_xor: int,
        counts: Dict[str, int],
    ) -> None:
        self._store = store
        self.gen = gen
        self.count = count
        self.hash_sum = hash_sum
        self.hash_xor = hash_xor
        self._counts = counts
        self.schema = store.schema
        self._hash = hash((count, hash_sum, hash_xor))
        self._view: Optional["SQLStoreView"] = None

    # -- read API ------------------------------------------------------
    def size(self) -> int:
        return self.count

    def relation_counts(self) -> Dict[str, int]:
        return dict(self._counts)

    def _tuples_at(self, name: str) -> FrozenSet[Tuple[object, ...]]:
        if not self._counts.get(name):
            return _EMPTY_FROZENSET
        store = self._store
        arity = store.schema.arity(name)
        cursor = store._conn.execute(
            _sql.select_at_sql(name, arity), (self.gen, self.gen)
        )
        return frozenset(_decode_rows(arity, cursor.fetchall()))

    def _contains(self, name: str, tup: Tuple[object, ...]) -> bool:
        if not self._counts.get(name):
            return False
        arity = self.schema.arity(name)
        if len(tup) != arity:
            return False  # no stored fact has another arity
        try:
            encoded = _encode_tuple(tup)
        except TypeError:
            return False  # un-encodable values are never stored
        cursor = self._store._conn.execute(
            _sql.at_exists_sql(name, arity), encoded + (self.gen, self.gen)
        )
        return cursor.fetchone() is not None

    def facts(self) -> Iterator[Fact]:
        for name in self.schema.names():
            if not self._counts.get(name):
                continue
            for tup in sorted(self._tuples_at(name), key=repr):
                yield (name, tup)

    def to_instance(self) -> Instance:
        instance = Instance(self.schema)
        for name, tup in self.facts():
            instance.add_unchecked(name, tup)
        return instance

    def view(self) -> "SQLStoreView":
        """A shared read-only facade pinned at this generation (cached)."""
        view = self._view
        if view is None:
            view = SQLStoreView(self._store, self)
            self._view = view
        return view

    def fingerprint(self) -> "SQLSnapshot":
        return self

    # -- persisted-cache key parity ------------------------------------
    def _payload(self) -> Tuple[Tuple[str, Tuple[Tuple[object, ...], ...]], ...]:
        return tuple(
            (name, tuple(sorted(self._tuples_at(name), key=repr)))
            for name in sorted(self.schema.names())
            if self._counts.get(name)
        )

    def _verdict_key_payload(self) -> Tuple[object, ...]:
        """Byte-identical ``encode_key`` content to a memory ``Snapshot``."""
        return (tuple(self.schema.names()), self._payload())

    # -- identity ------------------------------------------------------
    def __hash__(self) -> int:
        return self._hash

    def _same_facts(self, counts: Mapping[str, int], tuples_of) -> bool:
        mine = {name: n for name, n in self._counts.items() if n}
        theirs = {name: n for name, n in counts.items() if n}
        if mine != theirs:
            return False
        for name in mine:
            if self._tuples_at(name) != tuples_of(name):
                return False
        return True

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, SQLSnapshot):
            if self._store is other._store and self.gen == other.gen:
                return True
            if (
                self.count != other.count
                or self.hash_sum != other.hash_sum
                or self.hash_xor != other.hash_xor
            ):
                return False
            return self._same_facts(other._counts, other._tuples_at)
        if isinstance(other, Snapshot):
            if (
                self.count != other.count
                or self.hash_sum != other.hash_sum
                or self.hash_xor != other.hash_xor
            ):
                return False
            return self._same_facts(
                {name: shard.count for name, shard in other.shards.items()},
                lambda name: other.shards[name].frozen_tuples(),
            )
        return NotImplemented

    def __reduce__(self):
        return (_snapshot_from_payload, (self.schema, self._payload()))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return "SQLSnapshot(" + str(self.count) + " facts @ gen " + str(self.gen) + ")"


class SQLStoreView:
    """A read-only facade pinned at one :class:`SQLSnapshot` generation.

    Runs the compiled join plans unchanged (same ``_data``/``index``/
    ``tuples`` surface as the mutable store) and serves as the
    previous-generation side of semi-naive delta plans; large reads push
    down as SQL joins against the pinned-generation visibility predicate.
    """

    __slots__ = ("_store", "_snap", "schema", "_data", "_tuples_cache")

    _sql_backend = True

    def __init__(self, store: "SQLStoreInstance", snap: SQLSnapshot) -> None:
        self._store = store
        self._snap = snap
        self.schema = store.schema
        self._data = _SQLDataMap(store, snap)
        self._tuples_cache: Dict[str, FrozenSet[Tuple[object, ...]]] = {}

    def snapshot(self) -> SQLSnapshot:
        return self._snap

    def fingerprint(self) -> SQLSnapshot:
        return self._snap

    def tuples(self, relation_name: str) -> FrozenSet[Tuple[object, ...]]:
        if relation_name not in self.schema:
            raise SchemaError("unknown relation " + repr(relation_name))
        cached = self._tuples_cache.get(relation_name)
        if cached is None:
            cached = self._snap._tuples_at(relation_name)
            self._tuples_cache[relation_name] = cached
        return cached

    def tuples_view(self, relation_name: str) -> FrozenSet[Tuple[object, ...]]:
        if relation_name not in self.schema:
            return _EMPTY_FROZENSET
        return self.tuples(relation_name)

    def index(
        self, relation_name: str, position: int, value: object
    ) -> FrozenSet[Tuple[object, ...]]:
        if not self._snap._counts.get(relation_name):
            return _EMPTY_FROZENSET
        try:
            encoded = encode_value(value)
        except TypeError:
            return _EMPTY_FROZENSET  # un-encodable probe values match nothing
        arity = self.schema.arity(relation_name)
        cursor = self._store._conn.execute(
            _sql.select_at_index_sql(relation_name, arity, position),
            (self._snap.gen, self._snap.gen, encoded),
        )
        return frozenset(_decode_rows(arity, cursor.fetchall()))

    def facts(self) -> Iterator[Fact]:
        return self._snap.facts()

    def size(self) -> int:
        return self._snap.count

    def __len__(self) -> int:
        return self._snap.count

    def is_empty(self) -> bool:
        return self._snap.count == 0

    def contains(self, relation_name: str, values: Sequence[object]) -> bool:
        return self._snap._contains(relation_name, tuple(values))

    def __contains__(self, fact: Fact) -> bool:
        name, tup = fact
        return self._snap._contains(name, tuple(tup))

    def relation_names(self) -> Tuple[str, ...]:
        return self.schema.names()

    def relation_count(self, relation_name: str) -> int:
        return self._snap._counts.get(relation_name, 0)

    def relation_counts(self) -> Dict[str, int]:
        return self._snap.relation_counts()

    def active_domain(self) -> FrozenSet[object]:
        values: Set[object] = set()
        for name in self.schema.names():
            for tup in self._snap._tuples_at(name):
                values.update(tup)
        return frozenset(values)

    # -- pushdown ------------------------------------------------------
    def sql_assignments(self, plan: "_pc.QueryPlan") -> Optional[Iterator[dict]]:
        return _maybe_pushdown(
            self._store,
            plan,
            counts=self._snap._counts,
            pinned_gen=self._snap.gen,
        )


# ----------------------------------------------------------------------
# The mutable store
# ----------------------------------------------------------------------
class SQLStoreInstance:
    """A mutable relational store backed by an embedded SQLite database.

    Same facade surface as
    :class:`~repro.store.snapshot.SnapshotInstance` (the compiled plan
    executor, the Datalog evaluator and the decision engine run on it
    unchanged), plus SQL join pushdown for large relations.  Pass
    *path* for a persistent, reopenable on-disk store
    (:meth:`SQLStoreInstance.open`); without it the store lives in an
    anonymous on-disk scratch database that SQLite deletes on close —
    still bigger-than-RAM, just not durable.

    Not thread-safe (one connection, one owner — the same contract as
    the in-memory facade).  ``copy``/``from_snapshot`` materialise an
    independent store in O(n) (unlike the memory backend's O(#relations)
    branch): deep-branching searches should stay on the memory backend,
    which is exactly what the pushdown threshold's sibling knob
    ``REPRO_STORE_BACKEND`` defaults to.
    """

    __slots__ = (
        "schema",
        "_path",
        "_conn",
        "_counts",
        "_count",
        "_hash_sum",
        "_hash_xor",
        "_gen",
        "_max_frozen",
        "_committed_gen",
        "_in_txn",
        "_snap_cache",
        "_freeze_cache",
        "_tuples_cache",
        "_data",
        "_insert_sql",
        "_delta_relations",
        "_derived_relations",
        "_staged",
        "_closed",
    )

    _sql_backend = True

    def __init__(self, schema: Schema, path: Optional[str] = None) -> None:
        self.schema = schema
        self._path = path
        # ``connect("")`` is an anonymous on-disk database, auto-deleted
        # on close: the spill-to-disk default needing no path management.
        self._conn = sqlite3.connect(path if path else "", isolation_level=None)
        self._closed = False
        pragmas = _sql.FILE_PRAGMAS if path else _sql.SCRATCH_PRAGMAS
        for pragma in pragmas:
            self._conn.execute(pragma).fetchall()
        self._conn.execute(_sql.create_meta_table_sql())
        for name in schema.names():
            for statement in _sql.create_relation_table_sql(
                name, schema.arity(name)
            ):
                self._conn.execute(statement)
        self._insert_sql = {
            name: _sql.insert_live_sql(name, schema.arity(name))
            for name in schema.names()
        }
        self._counts: Dict[str, int] = {name: 0 for name in schema.names()}
        self._count = 0
        self._hash_sum = 0
        self._hash_xor = 0
        self._max_frozen = 0
        self._committed_gen = 0
        self._gen = 1
        self._in_txn = False
        self._snap_cache: Optional[SQLSnapshot] = None
        self._freeze_cache: Optional[FrozenInstance] = None
        self._tuples_cache: Dict[str, FrozenSet[Tuple[object, ...]]] = {}
        self._data = _SQLDataMap(self, None)
        # Temp tables known to exist (and to hold exactly their round's
        # rows) in this transaction, and the derived tables holding rows.
        self._delta_relations: Set[str] = set()
        self._derived_relations: Set[str] = set()
        self._staged: Set[str] = set()
        try:
            self._load_or_init_meta()
        except SchemaError:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Metadata (reopenability + the committed-counter source of truth)
    # ------------------------------------------------------------------
    def _load_or_init_meta(self) -> None:
        meta = dict(self._conn.execute(_sql.meta_select_sql()).fetchall())
        if "schema" in meta:
            found = meta.get("format")
            if found != str(_META_FORMAT):
                raise SchemaError(
                    "SQL store "
                    + repr(self._path)
                    + " has format "
                    + repr(found)
                    + ", expected format "
                    + repr(str(_META_FORMAT))
                )
            stored = json.loads(meta["schema"])
            declared = [[name, self.schema.arity(name)] for name in self.schema.names()]
            if stored != declared:
                raise SchemaError(
                    "existing SQL store schema "
                    + repr(stored)
                    + " does not match the declared schema "
                    + repr(declared)
                )
            self._max_frozen = self._committed_gen = int(meta.get("max_frozen", "0"))
            self._gen = self._max_frozen + 1
            # The persisted hash_sum/hash_xor were computed under the
            # *writing* process's string-hash seed; fingerprint parity
            # with this process's memory snapshots requires recomputing
            # them from the rows (one streaming scan; the persisted pair
            # stays authoritative only for same-process rollback resync).
            self._recount_from_rows()
        else:
            self._conn.execute(
                _sql.meta_upsert_sql(), ("format", str(_META_FORMAT))
            )
            self._conn.execute(
                _sql.meta_upsert_sql(),
                (
                    "schema",
                    json.dumps(
                        [[name, self.schema.arity(name)] for name in self.schema.names()]
                    ),
                ),
            )
            self._write_meta(self._max_frozen)

    def _recount_from_rows(self) -> None:
        count = 0
        hash_sum = 0
        hash_xor = 0
        counts = {name: 0 for name in self.schema.names()}
        for name in self.schema.names():
            observed = 0
            arity = self.schema.arity(name)
            cursor = self._conn.execute(_sql.select_live_sql(name, arity))
            for tup in _decode_rows(arity, cursor):
                fh = _fact_hash(name, tup)
                hash_sum = (hash_sum + fh) & _M64
                hash_xor ^= fh
                observed += 1
            counts[name] = observed
            count += observed
        self._counts = counts
        self._count = count
        self._hash_sum = hash_sum
        self._hash_xor = hash_xor

    def _write_meta(self, frozen_gen: int) -> None:
        rows = (
            ("count", str(self._count)),
            ("hash_sum", str(self._hash_sum)),
            ("hash_xor", str(self._hash_xor)),
            ("max_frozen", str(frozen_gen)),
            ("counts", json.dumps({n: c for n, c in self._counts.items() if c})),
        )
        self._conn.executemany(_sql.meta_upsert_sql(), rows)

    @classmethod
    def open(cls, path: str) -> "SQLStoreInstance":
        """Reopen a persistent store, reconstructing its schema from disk."""
        if not os.path.exists(path):
            raise FileNotFoundError(path)
        conn = sqlite3.connect(path)
        try:
            meta = dict(conn.execute(_sql.meta_select_sql()).fetchall())
        finally:
            conn.close()
        if "schema" not in meta:
            raise SchemaError("not a repro SQL store: " + path)
        schema = Schema(
            [Relation(name, int(arity)) for name, arity in json.loads(meta["schema"])]
        )
        return cls(schema, path)

    def close(self) -> None:
        """Roll back uncommitted work and close the connection.

        Snapshots are the durability points: anything not yet snapshotted
        is discarded, exactly as a crash would.
        """
        if self._closed:
            return
        if self._in_txn:
            self._conn.execute(_sql.SQL_ROLLBACK)
            self._in_txn = False
        self._conn.close()
        self._closed = True

    @property
    def path(self) -> Optional[str]:
        return self._path

    # ------------------------------------------------------------------
    # Construction helpers (facade parity)
    # ------------------------------------------------------------------
    @classmethod
    def from_instance(cls, instance, path: Optional[str] = None) -> "SQLStoreInstance":
        """A store holding the facts of *instance* (any Instance-like)."""
        store = cls(instance.schema, path)
        for name in instance.schema.names():
            for tup in instance.tuples_view(name):
                store.add_unchecked(name, tup)
        return store

    @classmethod
    def from_snapshot(cls, snap: SQLSnapshot) -> "SQLStoreInstance":
        """An independent store positioned at *snap* (O(n) materialising copy)."""
        store = cls(snap.schema)
        for name in snap.schema.names():
            if not snap._counts.get(name):
                continue
            for tup in snap._tuples_at(name):
                store.add_unchecked(name, tup)
        return store

    def copy(self) -> "SQLStoreInstance":
        """An independent branch (O(n) — see the class docstring caveat)."""
        return SQLStoreInstance.from_instance(self)

    def to_instance(self) -> Instance:
        instance = Instance(self.schema)
        for name, tup in self.facts():
            instance.add_unchecked(name, tup)
        return instance

    # ------------------------------------------------------------------
    # Transactions and snapshots
    # ------------------------------------------------------------------
    def _begin(self) -> None:
        if not self._in_txn:
            self._conn.execute(_sql.SQL_BEGIN)
            self._in_txn = True

    def _touched(self) -> None:
        self._snap_cache = None
        self._freeze_cache = None
        if self._tuples_cache:
            self._tuples_cache.clear()

    def _rollback(self) -> None:
        """Roll back the open transaction to the last committed snapshot.

        Pinned generations die with it, and so do the temp tables created
        inside it: the round bookkeeping forgets every delta and derived
        table, so the next use re-creates (and clears) it.  Counters are
        the caller's to re-adopt.
        """
        self._conn.execute(_sql.SQL_ROLLBACK)
        self._in_txn = False
        self._max_frozen = self._committed_gen
        self._gen = self._committed_gen + 1
        self._delta_relations.clear()
        self._derived_relations.clear()
        self._staged.clear()
        self._touched()

    def _resync_to_committed(self) -> None:
        """Roll back and re-adopt the committed counters from the metadata."""
        self._rollback()
        meta = dict(self._conn.execute(_sql.meta_select_sql()).fetchall())
        self._count = int(meta.get("count", "0"))
        self._hash_sum = int(meta.get("hash_sum", "0"))
        self._hash_xor = int(meta.get("hash_xor", "0"))
        counts = json.loads(meta.get("counts", "{}"))
        self._counts = {name: 0 for name in self.schema.names()}
        self._counts.update({name: int(n) for name, n in counts.items()})

    def _checkpoint(self, frozen_gen: int) -> None:
        self._begin()
        self._write_meta(frozen_gen)
        fault = faults.storage_fault("sql_commit")
        if fault is not None:
            if fault.action == "kill":
                os._exit(faults.KILL_EXIT_CODE)
            # Scripted torn transaction: everything since the previous
            # snapshot rolls back atomically; the store resynchronises to
            # the last committed state and surfaces the failure.
            self._resync_to_committed()
            raise OSError(
                faults.FAULT_INJECT_ENV
                + ": scripted sql_commit fault; store rolled back to the "
                "last snapshot"
            )
        self._conn.execute(_sql.SQL_COMMIT)
        self._in_txn = False
        self._committed_gen = frozen_gen

    def snapshot(self) -> SQLSnapshot:
        """The current state as an immutable token (commits the interval).

        O(#relations) Python work plus one SQLite commit — no data copy;
        the returned token pins a generation the MVCC predicates can read
        forever.  This is also the store's durability point.
        """
        cached = self._snap_cache
        if cached is None:
            frozen = self._gen
            self._checkpoint(frozen)
            cached = SQLSnapshot(
                self,
                frozen,
                self._count,
                self._hash_sum,
                self._hash_xor,
                dict(self._counts),
            )
            self._max_frozen = frozen
            self._gen = frozen + 1
            self._snap_cache = cached
        return cached

    def fingerprint(self) -> SQLSnapshot:
        """Alias of :meth:`snapshot`: an exact O(1)-hashable content key."""
        return self.snapshot()

    def pin(self) -> "SQLStoreView":
        """A read view frozen at the current state, with no commit.

        The fixedpoint's previous-generation side: it advances the
        working generation inside the open transaction (no metadata
        write, no ``COMMIT``) and raises the frozen mark, so a later
        :meth:`discard` tombstones the rows the pin can see instead of
        deleting them.  A pin is not a snapshot: it dies with the
        transaction, and :meth:`restore` of the last committed snapshot
        rolls it back with everything else.
        """
        self._begin()
        frozen = self._gen
        pinned = SQLSnapshot(
            self,
            frozen,
            self._count,
            self._hash_sum,
            self._hash_xor,
            dict(self._counts),
        )
        self._max_frozen = frozen
        self._gen = frozen + 1
        return pinned.view()

    def restore(self, snap: SQLSnapshot) -> None:
        """Roll the head back to *snap* without disturbing frozen generations.

        An open transaction is rolled back first: the head is then the
        last committed snapshot, exactly, and whatever the transaction
        wrote (pinned generations included) leaves no row behind.  If
        *snap* is that snapshot, restore is done.  Restoring an older
        snapshot tombstones and re-opens rows at the working generation,
        keeping every fact's validity intervals disjoint.  Only snapshots
        of this store can be restored (a foreign snapshot has no rows
        here to roll back to).
        """
        if not isinstance(snap, SQLSnapshot) or snap._store is not self:
            raise ValueError(
                "an SQL store can only restore its own snapshots; "
                "branch with from_snapshot() instead"
            )
        if self._in_txn:
            self._rollback()
        if snap.gen < self._max_frozen:
            self._begin()
            working = self._gen
            for name in self.schema.names():
                self._conn.execute(
                    _sql.kill_after_sql(name), (working, snap.gen)
                )
                self._conn.execute(
                    _sql.reinsert_interval_sql(name, self.schema.arity(name)),
                    (working, snap.gen, snap.gen, self._max_frozen),
                )
        self._adopt_counters(snap)
        self._touched()
        if not self._in_txn:
            self._snap_cache = snap  # the head is the committed snapshot

    def _adopt_counters(self, snap: SQLSnapshot) -> None:
        self._count = snap.count
        self._hash_sum = snap.hash_sum
        self._hash_xor = snap.hash_xor
        self._counts = dict(snap._counts)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, relation_name: str, values: Sequence[object]) -> Tuple[object, ...]:
        relation = self.schema.relation(relation_name)
        tup = relation.validate_tuple(values)
        self.add_unchecked(relation_name, tup)
        return tup

    def add_unchecked(self, relation_name: str, tup: Tuple[object, ...]) -> bool:
        statement = self._insert_sql[relation_name]
        encoded = _encode_tuple(tup)
        self._begin()
        cursor = self._conn.execute(statement, encoded + (self._gen,))
        if cursor.rowcount != 1:
            return False
        fh = _fact_hash(relation_name, tup)
        self._count += 1
        self._counts[relation_name] += 1
        self._hash_sum = (self._hash_sum + fh) & _M64
        self._hash_xor ^= fh
        self._touched()
        return True

    def discard(self, relation_name: str, tup: Tuple[object, ...]) -> bool:
        if relation_name not in self.schema:
            return False
        arity = self.schema.arity(relation_name)
        if len(tup) != arity:
            return False  # no stored fact has another arity
        try:
            encoded = _encode_tuple(tup)
        except TypeError:
            return False  # un-encodable values are never stored
        self._begin()
        cursor = self._conn.execute(
            _sql.delete_unfrozen_fact_sql(relation_name, arity),
            encoded + (self._max_frozen,),
        )
        if cursor.rowcount != 1:
            cursor = self._conn.execute(
                _sql.kill_live_fact_sql(relation_name, arity),
                (self._gen,) + encoded,
            )
            if cursor.rowcount != 1:
                return False
        fh = _fact_hash(relation_name, tup)
        self._count -= 1
        self._counts[relation_name] -= 1
        self._hash_sum = (self._hash_sum - fh) & _M64
        self._hash_xor ^= fh
        self._touched()
        return True

    def add_all(self, relation_name: str, tuples: Iterable[Sequence[object]]) -> None:
        """Validate and add several tuples with one ``executemany``.

        Priced for tuples the store does not hold: one statement batch
        plus the Python counter updates.  A batch with live or repeated
        facts is still exact — the insert skips them and the counters are
        recounted from the rows.
        """
        relation = self.schema.relation(relation_name)
        batch = [relation.validate_tuple(values) for values in tuples]
        if not batch:
            return
        gen = (self._gen,)
        rows = [_encode_tuple(tup) + gen for tup in batch]
        self._begin()
        cursor = self._conn.executemany(self._insert_sql[relation_name], rows)
        if cursor.rowcount == len(rows):
            hash_sum, hash_xor = self._hash_sum, self._hash_xor
            for tup in batch:
                fh = _fact_hash(relation_name, tup)
                hash_sum = (hash_sum + fh) & _M64
                hash_xor ^= fh
            self._hash_sum, self._hash_xor = hash_sum, hash_xor
            self._count += len(rows)
            self._counts[relation_name] += len(rows)
        else:
            self._recount_from_rows()
        self._touched()

    def add_fact(self, fact: Fact) -> None:
        self.add(fact[0], fact[1])

    def add_facts(self, facts: Iterable[Fact]) -> int:
        """Bulk-ingest validated ``(relation, tuple)`` facts; returns #new.

        One open transaction across the whole stream (committed by the
        next :meth:`snapshot`) — the batched ingest path of the CLI and
        the scaling benchmarks.
        """
        added = 0
        for name, tup in facts:
            if self.add_unchecked(name, tuple(tup)):
                added += 1
        return added

    # ------------------------------------------------------------------
    # Queries (the Instance read API)
    # ------------------------------------------------------------------
    def _live_tuples(self, relation_name: str) -> FrozenSet[Tuple[object, ...]]:
        cached = self._tuples_cache.get(relation_name)
        if cached is None:
            arity = self.schema.arity(relation_name)
            cursor = self._conn.execute(
                _sql.select_live_sql(relation_name, arity)
            )
            cached = frozenset(_decode_rows(arity, cursor.fetchall()))
            self._tuples_cache[relation_name] = cached
        return cached

    def tuples(self, relation_name: str) -> FrozenSet[Tuple[object, ...]]:
        if relation_name not in self.schema:
            raise SchemaError("unknown relation " + repr(relation_name))
        return self._live_tuples(relation_name)

    def tuples_view(self, relation_name: str) -> FrozenSet[Tuple[object, ...]]:
        if relation_name not in self.schema or not self._counts.get(relation_name):
            return _EMPTY_FROZENSET
        return self._live_tuples(relation_name)

    def index(
        self, relation_name: str, position: int, value: object
    ) -> FrozenSet[Tuple[object, ...]]:
        if not self._counts.get(relation_name):
            return _EMPTY_FROZENSET
        try:
            encoded = encode_value(value)
        except TypeError:
            return _EMPTY_FROZENSET  # un-encodable probe values match nothing
        arity = self.schema.arity(relation_name)
        cursor = self._conn.execute(
            _sql.select_live_index_sql(relation_name, arity, position),
            (encoded,),
        )
        return frozenset(_decode_rows(arity, cursor.fetchall()))

    def __contains__(self, fact: Fact) -> bool:
        name, tup = fact
        return self.contains(name, tuple(tup))

    def missing(
        self, relation_name: str, tuples: Iterable[Tuple[object, ...]]
    ) -> Set[Tuple[object, ...]]:
        """The tuples of *tuples* that *relation_name* does not hold.

        One :meth:`contains` probe per tuple, so a tuple no stored fact
        can equal (wrong arity, un-encodable values) is missing.  The
        fixedpoint does not call this: its rounds stage their rows in SQL.
        """
        return {tup for tup in tuples if not self.contains(relation_name, tup)}

    def contains(self, relation_name: str, values: Sequence[object]) -> bool:
        if relation_name not in self.schema:
            return False
        tup = tuple(values)
        arity = self.schema.arity(relation_name)
        if len(tup) != arity:
            return False  # no stored fact has another arity
        try:
            encoded = _encode_tuple(tup)
        except TypeError:
            return False  # un-encodable values are never stored
        cursor = self._conn.execute(
            _sql.live_exists_sql(relation_name, arity), encoded
        )
        return cursor.fetchone() is not None

    def facts(self) -> Iterator[Fact]:
        for name in self.schema.names():
            if not self._counts.get(name):
                continue
            for tup in sorted(self._live_tuples(name), key=repr):
                yield (name, tup)

    def size(self) -> int:
        return self._count

    def __len__(self) -> int:
        return self._count

    def is_empty(self) -> bool:
        return self._count == 0

    def active_domain(self) -> FrozenSet[object]:
        values: Set[object] = set()
        for name in self.schema.names():
            if self._counts.get(name):
                for tup in self._live_tuples(name):
                    values.update(tup)
        return frozenset(values)

    def relation_names(self) -> Tuple[str, ...]:
        return self.schema.names()

    def relation_count(self, relation_name: str) -> int:
        return self._counts.get(relation_name, 0)

    def relation_counts(self) -> Dict[str, int]:
        return dict(self._counts)

    # ------------------------------------------------------------------
    # Interop with the mutable Instance
    # ------------------------------------------------------------------
    def freeze(self) -> FrozenInstance:
        cached = self._freeze_cache
        if cached is None:
            cached = frozenset(
                (name, tup)
                for name in self.schema.names()
                if self._counts.get(name)
                for tup in self._live_tuples(name)
            )
            self._freeze_cache = cached
        return cached

    def is_subinstance_of(self, other) -> bool:
        for name in self.schema.names():
            if not self._counts.get(name):
                continue
            other_tuples = other.tuples_view(name)
            if any(tup not in other_tuples for tup in self._live_tuples(name)):
                return False
        return True

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, SQLStoreInstance):
            if (
                self._count != other._count
                or self._hash_sum != other._hash_sum
                or self._hash_xor != other._hash_xor
            ):
                return False
            mine = {n: c for n, c in self._counts.items() if c}
            theirs = {n: c for n, c in other._counts.items() if c}
            if mine != theirs:
                return False
            return all(
                self._live_tuples(name) == other._live_tuples(name) for name in mine
            )
        if isinstance(other, (Instance, SnapshotInstance)):
            return self.freeze() == other.freeze()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.freeze())

    def __reduce__(self):
        payload = tuple(
            (name, tuple(sorted(self._live_tuples(name), key=repr)))
            for name in sorted(self.schema.names())
            if self._counts.get(name)
        )
        return (_sqlstore_from_payload, (self.schema, payload))

    def __str__(self) -> str:
        parts = [name + repr(tup) for name, tup in self.facts()]
        return "{" + ", ".join(parts) + "}"

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            "SQLStoreInstance("
            + str(self._count)
            + " facts, "
            + ("scratch" if self._path is None else repr(self._path))
            + ")"
        )

    # ------------------------------------------------------------------
    # Verification (the CLI surface)
    # ------------------------------------------------------------------
    def verify(self) -> Dict[str, object]:
        """Recompute counters from the live rows and compare with the meta.

        Returns a report dict with ``ok`` plus per-check details; used by
        ``repro store verify`` (database-level ``PRAGMA integrity_check``
        first, then content: per-relation counts and the commutative
        fingerprint recomputed row by row against the maintained
        counters).
        """
        integrity = self._conn.execute(_sql.SQL_INTEGRITY_CHECK).fetchone()
        report: Dict[str, object] = {
            "integrity": integrity[0] if integrity else "missing",
            "relations": {},
        }
        count = 0
        hash_sum = 0
        hash_xor = 0
        counts_ok = True
        for name in self.schema.names():
            observed = self._conn.execute(_sql.count_live_sql(name)).fetchone()[0]
            recorded = self._counts.get(name, 0)
            report["relations"][name] = {
                "recorded": recorded,
                "observed": observed,
            }
            if observed != recorded:
                counts_ok = False
            for tup in self._live_tuples(name):
                fh = _fact_hash(name, tup)
                count += 1
                hash_sum = (hash_sum + fh) & _M64
                hash_xor ^= fh
        fingerprint_ok = (
            count == self._count
            and hash_sum == self._hash_sum
            and hash_xor == self._hash_xor
        )
        report["counts_ok"] = counts_ok
        report["fingerprint_ok"] = fingerprint_ok
        # With no transaction open the live head *is* the last committed
        # snapshot, so the committed metadata (whose counts are
        # process-independent, unlike the hash pair) must agree with the
        # observed rows; mid-transaction the head legitimately runs ahead.
        if not self._in_txn:
            meta = dict(self._conn.execute(_sql.meta_select_sql()).fetchall())
            meta_counts = {
                name: int(n)
                for name, n in json.loads(meta.get("counts", "{}")).items()
            }
            meta_ok = int(meta.get("count", "0")) == count and all(
                meta_counts.get(name, 0)
                == report["relations"][name]["observed"]
                for name in self.schema.names()
            )
            report["meta_counts_ok"] = meta_ok
        else:
            meta_ok = True
        report["ok"] = (
            report["integrity"] == "ok" and counts_ok and fingerprint_ok and meta_ok
        )
        return report

    # ------------------------------------------------------------------
    # Semi-naive rounds in SQL (the Datalog evaluator's round API)
    # ------------------------------------------------------------------
    def _ensure_temp(self, name: str, known: Set[str], create, clear) -> None:
        """Create *name*'s temp table on first use in this transaction.

        A table that outlived a rollback still holds the rows of its last
        committed use, so a newly adopted table is cleared too.
        """
        if name not in known:
            self._conn.execute(create(name, self.schema.arity(name)))
            self._conn.execute(clear(name))
            known.add(name)

    def seed_delta(self) -> "SQLDelta":
        """Round 1's delta: every live fact, copied into the delta tables in SQL.

        Also empties what an earlier fixedpoint in this transaction left
        in the round tables, so the tables hold exactly this delta.
        """
        self._begin()
        conn = self._conn
        for name in self._delta_relations:
            conn.execute(_sql.clear_delta_sql(name))
        for name in self._staged:
            conn.execute(_sql.clear_derived_sql(name))
        self._staged.clear()
        counts: Dict[str, int] = {}
        for name in self.schema.names():
            live = self._counts.get(name)
            if not live:
                continue
            self._ensure_temp(
                name, self._delta_relations, _sql.create_delta_table_sql, _sql.clear_delta_sql
            )
            conn.execute(_sql.fill_delta_from_live_sql(name, self.schema.arity(name)))
            counts[name] = live
        return SQLDelta(self, counts)

    def stage(self, relation_name: str, tuples: Iterable[Tuple[object, ...]]) -> None:
        """Stage head tuples derived in Python with one ``executemany``.

        They join the rows pushed-down variants staged in SQL; the round's
        anti-join (:meth:`next_delta`) de-duplicates both.  Raises
        ``TypeError`` for a value outside the scalar vocabulary.
        """
        rows = [_encode_tuple(tup) for tup in tuples]
        if not rows:
            return
        self._begin()
        self._ensure_temp(
            relation_name,
            self._derived_relations,
            _sql.create_derived_table_sql,
            _sql.clear_derived_sql,
        )
        arity = self.schema.arity(relation_name)
        self._conn.executemany(_sql.insert_derived_sql(relation_name, arity), rows)
        self._staged.add(relation_name)

    def next_delta(self, delta: "SQLDelta") -> "SQLDelta":
        """The round's new facts, moved from the derived tables into the deltas.

        Per staged relation, one ``SELECT DISTINCT`` anti-join against the
        live rows fills its delta table (the previous round's delta is
        cleared first), and one read brings each new fact into Python
        exactly once: decoded, validated against its relation (a
        ``SchemaError`` leaves the facts and counters untouched) and
        hashed for the fingerprint.  Nothing is added yet: :meth:`add_delta` does that,
        after the caller has pinned the pre-round state.
        """
        self._begin()
        conn = self._conn
        for name, n in delta.counts.items():
            if n:
                conn.execute(_sql.clear_delta_sql(name))
        counts: Dict[str, int] = {}
        hash_sum = 0
        hash_xor = 0
        for name in sorted(self._staged):
            self._ensure_temp(
                name, self._delta_relations, _sql.create_delta_table_sql, _sql.clear_delta_sql
            )
            arity = self.schema.arity(name)
            added = conn.execute(_sql.new_delta_sql(name, arity)).rowcount
            conn.execute(_sql.clear_derived_sql(name))
            if not added:
                continue
            counts[name] = added
            relation = self.schema.relation(name)
            # An all-``ANY`` relation accepts every decoded tuple of its arity.
            typed = any(datatype is not ANY for datatype in relation.types)
            cursor = conn.execute(_sql.select_delta_sql(name, arity))
            batch = cursor.fetchmany(_FETCH_BATCH)
            while batch:
                for tup in _decode_rows(arity, batch):
                    if typed:
                        relation.validate_tuple(tup)
                    fh = _fact_hash(name, tup)
                    hash_sum = (hash_sum + fh) & _M64
                    hash_xor ^= fh
                batch = cursor.fetchmany(_FETCH_BATCH)
        self._staged.clear()
        return SQLDelta(self, counts, hash_sum, hash_xor)

    def add_delta(self, delta: "SQLDelta") -> None:
        """Add the facts of *delta* (from :meth:`next_delta`) at the working generation."""
        self._begin()
        gen = (self._gen,)
        for name, n in delta.counts.items():
            self._conn.execute(
                _sql.insert_live_from_delta_sql(name, self.schema.arity(name)), gen
            )
            self._counts[name] += n
        self._count += len(delta)
        self._hash_sum = (self._hash_sum + delta.hash_sum) & _M64
        self._hash_xor ^= delta.hash_xor
        self._touched()

    # ------------------------------------------------------------------
    # SQL join pushdown
    # ------------------------------------------------------------------
    def sql_assignments(self, plan: "_pc.QueryPlan") -> Optional[Iterator[dict]]:
        """Execute *plan* as a pushed-down SQL join over the live head.

        Returns ``None`` when the plan should run on the in-memory
        executor instead (below the ``REPRO_SQL_PUSHDOWN_MIN_ROWS``
        threshold, un-encodable constants, or a scripted ``sql_pushdown``
        fault) — the caller falls through to the facade path, which is
        always correct.
        """
        return _maybe_pushdown(self, plan, counts=self._counts)

    def sql_assignments_delta(
        self,
        plan: "_pc.QueryPlan",
        old_instance: "SQLStoreView",
        delta: "SQLDelta",
        head: Atom,
    ) -> Optional[int]:
        """Stage a rule's delta variant in SQL, or decline it.

        *old_instance* is a :meth:`pin` of this store and *delta* its
        :class:`SQLDelta`, whose temp tables the join reads.  The variant
        runs as ``INSERT INTO <derived table of the head> SELECT <head
        columns and constants> FROM <join>`` and the result is the number
        of rows staged (``0`` included): no derived tuple passes through
        Python, and :meth:`next_delta` takes the staged rows from there.
        ``None`` means declined (the routing of :meth:`sql_assignments`),
        and the caller derives the variant in Python.
        """
        return _maybe_pushdown(
            self,
            plan,
            counts=self._counts,
            old_counts=old_instance._snap._counts,
            old_gen=old_instance._snap.gen,
            head=head,
        )


class SQLDelta:
    """One semi-naive round's delta, held in the store's delta temp tables.

    ``counts`` maps each relation to its number of delta facts (relations
    without any are absent); the facts themselves stay in SQLite, where
    the pushed-down variants join them.  :meth:`get` is the mapping probe
    the in-memory delta executor reads: it brings a relation's delta
    into Python only when a declined variant asks for it.  A delta made
    by :meth:`SQLStoreInstance.next_delta` also carries the fingerprint
    contribution of its facts.  It is valid until the store's next
    ``next_delta``/``seed_delta``, which rewrite the tables.
    """

    __slots__ = ("_store", "counts", "hash_sum", "hash_xor", "_tuples")

    def __init__(
        self,
        store: SQLStoreInstance,
        counts: Dict[str, int],
        hash_sum: int = 0,
        hash_xor: int = 0,
    ) -> None:
        self._store = store
        self.counts = counts
        self.hash_sum = hash_sum
        self.hash_xor = hash_xor
        self._tuples: Dict[str, FrozenSet[Tuple[object, ...]]] = {}

    def __len__(self) -> int:
        return sum(self.counts.values())

    def get(
        self, name: str, default: Optional[FrozenSet[Tuple[object, ...]]] = None
    ) -> Optional[FrozenSet[Tuple[object, ...]]]:
        if not self.counts.get(name):
            return default
        cached = self._tuples.get(name)
        if cached is None:
            arity = self._store.schema.arity(name)
            cursor = self._store._conn.execute(_sql.select_delta_sql(name, arity))
            cached = frozenset(_decode_rows(arity, cursor.fetchall()))
            self._tuples[name] = cached
        return cached


def _sqlstore_from_payload(
    schema: Schema,
    payload: Tuple[Tuple[str, Tuple[Tuple[object, ...], ...]], ...],
) -> SQLStoreInstance:
    """Rebuild a pickled SQL store (as a scratch store) in the receiver."""
    store = SQLStoreInstance(schema)
    for name, tuples in payload:
        for tup in tuples:
            store.add_unchecked(name, tup)
    return store


# ----------------------------------------------------------------------
# Pushdown routing
# ----------------------------------------------------------------------
def _maybe_pushdown(
    store: SQLStoreInstance,
    plan: "_pc.QueryPlan",
    counts: Mapping[str, int],
    pinned_gen: Optional[int] = None,
    old_counts: Optional[Mapping[str, int]] = None,
    old_gen: Optional[int] = None,
    head: Optional[Atom] = None,
) -> Optional[object]:
    """The routing decision + execution of one SQL join pushdown.

    Returns a row iterator (decoded assignment dicts) for a plain plan,
    the number of head rows staged into its derived table for a delta
    variant (given with its rule *head*), or ``None`` to degrade to the
    in-memory executor.  The decision is recorded in the
    ``store.pushdown*`` counters and, when tracing is on, as a
    ``store.sql_pushdown`` span.
    """
    if plan.fallback or plan.always_false or not plan.atoms:
        return None
    largest = 0
    for atom in plan.atoms:
        if atom.source == _pc.SRC_DELTA:
            continue
        side = old_counts if atom.source == _pc.SRC_OLD else counts
        n = side.get(atom.relation, 0) if side is not None else 0
        if n > largest:
            largest = n
    if largest < _pushdown_threshold():
        _metrics.counter("store.pushdown_skipped")
        return None
    fault = faults.storage_fault("sql_pushdown")
    if fault is not None:
        # Scripted storage failure on the pushdown path: degrade to the
        # in-memory executor over the same facade — verdict-identical,
        # merely slower — and count the degradation.
        _metrics.counter("store.pushdown_fault")
        return None
    cache = plan.__dict__.get("_sql_join_cache")
    if cache is None:
        cache = {}
        object.__setattr__(plan, "_sql_join_cache", cache)
    visibility = _sql.VIS_PINNED if pinned_gen is not None else _sql.VIS_HEAD
    key = visibility if head is None else (visibility, head)
    join = cache.get(key)
    if join is None:
        try:
            if head is None:
                join = _sql.compile_join_sql(plan, visibility, encode_value)
            else:
                slot_of = {v: slot for slot, v in enumerate(plan.slot_variables)}
                join = _sql.compile_stage_sql(
                    plan,
                    visibility,
                    encode_value,
                    head.relation,
                    [
                        (True, slot_of[term])
                        if isinstance(term, Variable)
                        else (False, term.value)
                        for term in head.terms
                    ],
                )
        except TypeError:
            # A constant outside the scalar vocabulary: comparisons over
            # it have no SQL image — the in-memory executor decides them.
            _metrics.counter("store.pushdown_skipped")
            return None
        cache[key] = join
    args: List[object] = []
    for token, payload in join.params:
        if token == _sql.P_LIT:
            args.append(payload)
        elif token == _sql.P_OLD_GEN:
            args.append(old_gen)
        else:
            args.append(pinned_gen)
    _metrics.counter("store.pushdown")
    slot_variables = plan.slot_variables
    if head is not None:
        store._begin()
        store._ensure_temp(
            head.relation,
            store._derived_relations,
            _sql.create_derived_table_sql,
            _sql.clear_derived_sql,
        )
    with _trace.trace_span(
        "store.sql_pushdown",
        atoms=len(plan.atoms),
        largest_relation=largest,
        delta=head is not None,
    ):
        cursor = store._conn.execute(join.sql, args)
        if head is not None:
            staged = cursor.rowcount
            if staged:
                store._staged.add(head.relation)
            return staged
        first = cursor.fetchmany(_FETCH_BATCH)

    def rows() -> Iterator[dict]:
        batch = first
        while batch:
            for row in batch:
                if bytes in map(type, row):
                    row = tuple(map(decode_value, row))
                yield dict(zip(slot_variables, row))
            batch = cursor.fetchmany(_FETCH_BATCH)

    return rows()
