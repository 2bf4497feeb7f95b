"""The persistent fact store: O(1) snapshots of relational instances.

:class:`SnapshotInstance` is a drop-in facade over the read API of
:class:`repro.relational.instance.Instance` — the compiled join plans of
:mod:`repro.queries.plan_cache` execute on it unchanged — backed by
persistent (structurally shared) per-relation shards instead of mutable
``set`` objects.  The facade itself is mutable in place like an
``Instance``, but every mutation swaps immutable shard roots, so

* :meth:`SnapshotInstance.snapshot` is O(#relations): it retains the
  current roots and the incrementally maintained fingerprint;
* :meth:`SnapshotInstance.restore` rolls the facade back to any snapshot
  in O(#relations), replacing the add/undo delta logs of the search code;
* :meth:`SnapshotInstance.from_snapshot` branches an independent facade
  off a snapshot in O(#relations) — the persistent-instance replacement
  for the O(n) ``Instance.copy()`` in search stack nodes;
* snapshots are hashable (O(1), via the incremental fingerprint) and
  compare *exactly* (structural comparison with identity short-circuits),
  so they serve directly as visited-set and memo keys;
* snapshots are picklable by construction — they serialise as their fact
  list and rebuild on the receiving side — which is what lets budgeted
  searches' resume frontiers carry search states across processes.

Per-relation shards also carry **per-position indexes that survive
snapshots** (``(position, value) -> frozenset of tuples``): built on the
first probe of a relation and *derived* copy-on-write by every later
mutation, they stay warm across snapshot/restore/branch — unlike the
mutable ``Instance`` whose indexes are rebuilt from scratch after a
copy — while relations that are never probed never pay for indexing.
Shards also record **cardinality statistics** (``Shard.count``), which
the plan compiler consumes for statistics-driven atom ordering
(:func:`repro.queries.plan_cache.get_plan`).
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.relational.instance import Fact, FrozenInstance, Instance
from repro.relational.schema import Schema, SchemaError
from repro.store.hamt import PMap

_EMPTY_FROZENSET: FrozenSet[Tuple[object, ...]] = frozenset()

_M64 = (1 << 64) - 1


def _fact_hash(relation_name: str, tup: Tuple[object, ...]) -> int:
    """A well-mixed 64-bit hash of one fact (for the commutative fingerprint)."""
    h = hash((relation_name, tup)) & _M64
    h ^= h >> 33
    h = (h * 0xFF51AFD7ED558CCD) & _M64
    h ^= h >> 33
    h = (h * 0xC4CEB9FE1A85EC53) & _M64
    h ^= h >> 33
    return h


#: Shards at or below this cardinality store their tuples as a plain
#: ``frozenset`` (copy-on-write: updates copy the whole set at C speed);
#: above it they promote to the persistent HAMT, whose O(log n) updates
#: win once copying would move hundreds of entries.  The representation
#: is a pure function of the cardinality, so equal shard contents always
#: have equal representations (which keeps structural equality trivial).
SMALL_SHARD_LIMIT = 256


class Shard:
    """The immutable per-relation state: tuples, indexes, statistics.

    ``tuples`` holds the relation's tuple set — a ``frozenset`` while the
    relation is small, a persistent :class:`~repro.store.hamt.PMap` (of
    ``tuple -> True``) once it outgrows :data:`SMALL_SHARD_LIMIT` — and
    ``count`` is the recorded cardinality statistic.  Two derived views
    are cached *on* the shard — safe because a shard never changes, so
    they survive snapshot/restore/branch for as long as the shard is
    shared:

    * ``frozen`` — the materialised ``frozenset`` of tuples (the tuple
      set itself while the shard is small);
    * ``index`` — the per-position hash index ``(position, value) ->
      frozen bucket``, built on first probe and from then on *derived*
      copy-on-write by every mutation, so a relation that is being
      probed keeps its index warm across snapshots without ever
      rebuilding it, while a relation that is never probed (e.g. a
      search configuration that exists only to be fingerprinted) never
      pays for indexing at all.  The bucket table mirrors the tuple
      set's representation: a plain ``dict`` (whole-table copy per
      mutation, C speed) while the shard is small, a :class:`PMap`
      (O(log) bucket updates, structural sharing) once it grows past
      :data:`SMALL_SHARD_LIMIT` — so deriving stays O(affected buckets)
      at scale instead of O(#buckets).
    """

    __slots__ = ("tuples", "count", "frozen", "index")

    def __init__(
        self,
        tuples,
        count: int,
        index: Optional[Dict[Tuple[int, object], FrozenSet[Tuple[object, ...]]]] = None,
    ) -> None:
        self.tuples = tuples
        self.count = count
        self.frozen: Optional[FrozenSet[Tuple[object, ...]]] = None
        self.index = index

    def frozen_tuples(self) -> FrozenSet[Tuple[object, ...]]:
        tuples = self.tuples
        if type(tuples) is frozenset:
            return tuples
        cached = self.frozen
        if cached is None:
            cached = frozenset(tuples)
            self.frozen = cached
        return cached

    def get_index(self):
        """The bucket table (``dict`` or :class:`PMap`, both ``.get``-able)."""
        index = self.index
        if index is None:
            buckets: Dict[Tuple[int, object], Set[Tuple[object, ...]]] = {}
            for tup in self.tuples:
                for position, value in enumerate(tup):
                    buckets.setdefault((position, value), set()).add(tup)
            frozen_buckets = {
                key: frozenset(bucket) for key, bucket in buckets.items()
            }
            index = (
                frozen_buckets
                if type(self.tuples) is frozenset
                else PMap(frozen_buckets.items())
            )
            self.index = index
        return index


_EMPTY_SHARD = Shard(frozenset(), 0)


def _derive_index(index, tup: Tuple[object, ...], adding: bool, small: bool):
    """A built bucket table with *tup* added to / removed from its buckets.

    Keeps the table's representation in lockstep with the shard's size
    class (*small*): a plain dict is copied whole (C speed, fine for small
    relations), a :class:`PMap` is updated per bucket (O(log) each, so
    large relations never pay O(#buckets) per mutation).
    """
    if small and type(index) is not dict:
        index = dict(index.items())
    elif not small and type(index) is dict:
        index = PMap(index.items())
    if type(index) is dict:
        new_index = dict(index)
        for position, value in enumerate(tup):
            key = (position, value)
            bucket = new_index.get(key)
            if adding:
                new_index[key] = (
                    frozenset((tup,)) if bucket is None else bucket | {tup}
                )
            elif bucket is not None:
                remaining = bucket - {tup}
                if remaining:
                    new_index[key] = remaining
                else:
                    del new_index[key]
        return new_index
    new_pmap = index
    for position, value in enumerate(tup):
        key = (position, value)
        bucket = new_pmap.get(key)
        if adding:
            new_pmap = new_pmap.set(
                key, frozenset((tup,)) if bucket is None else bucket | {tup}
            )
        elif bucket is not None:
            remaining = bucket - {tup}
            new_pmap = (
                new_pmap.set(key, remaining) if remaining else new_pmap.delete(key)
            )
    return new_pmap


class Snapshot:
    """An immutable, hashable, picklable state of a :class:`SnapshotInstance`.

    Hashing is O(1) (the precomputed commutative fingerprint); equality
    first compares fingerprints and then confirms *structurally*, shard
    by shard, with identity short-circuits — so equality is exact (never
    fooled by a fingerprint collision) yet cheap for the snapshots a
    search revisits, which share almost all of their structure.
    """

    __slots__ = (
        "schema",
        "shards",
        "count",
        "hash_sum",
        "hash_xor",
        "_hash",
        "_view",
    )

    def __init__(
        self,
        schema: Schema,
        shards: Dict[str, Shard],
        count: int,
        hash_sum: int,
        hash_xor: int,
    ) -> None:
        self.schema = schema
        self.shards = shards
        self.count = count
        self.hash_sum = hash_sum
        self.hash_xor = hash_xor
        self._hash = hash((count, hash_sum, hash_xor))
        self._view: Optional["SnapshotInstance"] = None

    def size(self) -> int:
        """Total number of facts in the snapshotted state."""
        return self.count

    def relation_counts(self) -> Dict[str, int]:
        """Recorded per-relation cardinality statistics."""
        return {name: shard.count for name, shard in self.shards.items()}

    def facts(self) -> Iterator[Fact]:
        """All facts, repr-sorted per relation (the ``Instance`` convention)."""
        for name in self.schema.names():
            shard = self.shards.get(name)
            if shard is None or not shard.count:
                continue
            for tup in sorted(shard.tuples, key=repr):
                yield (name, tup)

    def to_instance(self) -> Instance:
        """Materialise a dict-backed :class:`Instance` with the same facts."""
        instance = Instance(self.schema)
        for name, tup in self.facts():
            instance.add_unchecked(name, tup)
        return instance

    def view(self) -> "SnapshotInstance":
        """A shared **read-only** facade positioned at this snapshot.

        O(#relations) on first call, O(1) afterwards (the facade is cached
        on the snapshot), and it runs the compiled join plans unchanged —
        this is how the semi-naive Datalog evaluator reads the
        previous-generation side of its delta plans off the same snapshot
        chain it logs.  The shards (and therefore their warm per-position
        indexes) are shared with every other holder of this snapshot, so
        callers must treat the view as immutable: mutate a private branch
        from :meth:`SnapshotInstance.from_snapshot` instead.
        """
        view = self._view
        if view is None:
            view = SnapshotInstance.from_snapshot(self)
            self._view = view
        return view

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Snapshot):
            return NotImplemented
        if (
            self.count != other.count
            or self.hash_sum != other.hash_sum
            or self.hash_xor != other.hash_xor
            or len(self.shards) != len(other.shards)
        ):
            return False
        for name, shard in self.shards.items():
            other_shard = other.shards.get(name)
            if other_shard is None:
                return False
            if shard is other_shard:
                continue
            if shard.count != other_shard.count or shard.tuples != other_shard.tuples:
                return False
        return True

    def __reduce__(self):
        # Shards embed HAMTs whose layout depends on this process's hash
        # seed; serialise the facts instead and rebuild on the other side.
        payload = tuple(
            (name, tuple(sorted(shard.tuples, key=repr)))
            for name, shard in sorted(self.shards.items())
            if shard.count
        )
        return (_snapshot_from_payload, (self.schema, payload))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Snapshot({self.count} facts)"


def _snapshot_from_payload(
    schema: Schema, payload: Tuple[Tuple[str, Tuple[Tuple[object, ...], ...]], ...]
) -> Snapshot:
    """Rebuild a pickled snapshot in the receiving process."""
    instance = SnapshotInstance(schema)
    for name, tuples in payload:
        for tup in tuples:
            instance.add_unchecked(name, tup)
    return instance.snapshot()


class _RelationView:
    """A live, read-only, sized view of one relation's tuples.

    This is what the compiled plan executor sees through ``._data``: it
    needs existence/size checks that track the facade's current state.
    Iteration captures the shard at call time, so an in-flight iteration
    is never affected by later mutations (the same contract as the
    mutable ``Instance``'s cached views).
    """

    __slots__ = ("_owner", "_name")

    def __init__(self, owner: "SnapshotInstance", name: str) -> None:
        self._owner = owner
        self._name = name

    def _shard(self) -> Shard:
        return self._owner._shards.get(self._name, _EMPTY_SHARD)

    def __len__(self) -> int:
        return self._shard().count

    def __bool__(self) -> bool:
        return self._shard().count > 0

    def __iter__(self) -> Iterator[Tuple[object, ...]]:
        return iter(self._shard().tuples)

    def __contains__(self, tup: object) -> bool:
        return tup in self._shard().tuples


class _DataMap:
    """The ``._data`` mapping of a :class:`SnapshotInstance`.

    Provides the small mapping surface the plan executor uses
    (``get``/``[]``/``in``) over lazily created relation views.
    """

    __slots__ = ("_owner", "_views")

    def __init__(self, owner: "SnapshotInstance") -> None:
        self._owner = owner
        self._views: Dict[str, _RelationView] = {}

    def get(
        self, name: str, default: Optional[_RelationView] = None
    ) -> Optional[_RelationView]:
        view = self._views.get(name)
        if view is not None:
            return view
        if name not in self._owner._shards:
            return default
        view = _RelationView(self._owner, name)
        self._views[name] = view
        return view

    def __getitem__(self, name: str) -> _RelationView:
        view = self.get(name)
        if view is None:
            raise KeyError(name)
        return view

    def __contains__(self, name: str) -> bool:
        return name in self._owner._shards

    def __iter__(self) -> Iterator[str]:
        return iter(self._owner._shards)

    def __len__(self) -> int:
        return len(self._owner._shards)

    def keys(self) -> Iterable[str]:
        return self._owner._shards.keys()

    def values(self) -> Iterator[_RelationView]:
        for name in self._owner._shards:
            yield self[name]

    def items(self) -> Iterator[Tuple[str, _RelationView]]:
        for name in self._owner._shards:
            yield name, self[name]


class SnapshotInstance:
    """A mutable facade over the persistent fact store.

    Implements the read API of :class:`~repro.relational.instance.Instance`
    (``tuples``/``tuples_view``/``index``/``facts``/``freeze``/``contains``/
    ``active_domain``/``size`` plus the ``_data`` mapping the compiled plan
    executor probes) and the mutation API the search code uses
    (``add``/``add_unchecked``/``discard``), with three additional
    operations the mutable instance cannot offer:

    * :meth:`snapshot` / :meth:`fingerprint` — an O(#relations) immutable
      state token, hashable in O(1);
    * :meth:`restore` — roll back to any snapshot in O(#relations);
    * :meth:`from_snapshot` — branch an independent facade in
      O(#relations).
    """

    __slots__ = (
        "schema",
        "_shards",
        "_count",
        "_hash_sum",
        "_hash_xor",
        "_data",
        "_snap_cache",
        "_freeze_cache",
    )

    def __init__(
        self,
        schema: Schema,
        facts: Optional[Mapping[str, Iterable[Sequence[object]]]] = None,
    ) -> None:
        self.schema = schema
        self._shards: Dict[str, Shard] = {
            name: _EMPTY_SHARD for name in schema.names()
        }
        self._count = 0
        self._hash_sum = 0
        self._hash_xor = 0
        self._data = _DataMap(self)
        self._snap_cache: Optional[Snapshot] = None
        self._freeze_cache: Optional[FrozenInstance] = None
        if facts:
            for name, tuples in facts.items():
                for values in tuples:
                    self.add(name, values)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_instance(cls, instance) -> "SnapshotInstance":
        """A store holding the facts of *instance* (any Instance-like)."""
        if isinstance(instance, SnapshotInstance):
            return instance.copy()
        store = cls(instance.schema)
        for name in instance.schema.names():
            for tup in instance.tuples_view(name):
                store.add_unchecked(name, tup)
        return store

    @classmethod
    def from_snapshot(cls, snap: Snapshot) -> "SnapshotInstance":
        """An independent facade positioned at *snap* (O(#relations))."""
        store = cls.__new__(cls)
        store.schema = snap.schema
        store._shards = dict(snap.shards)
        store._count = snap.count
        store._hash_sum = snap.hash_sum
        store._hash_xor = snap.hash_xor
        store._data = _DataMap(store)
        store._snap_cache = snap
        store._freeze_cache = None
        return store

    @classmethod
    def from_frozen(cls, schema: Schema, frozen: FrozenInstance) -> "SnapshotInstance":
        """Rebuild a store from a frozen snapshot (a frozenset of facts)."""
        store = cls(schema)
        for name, tup in frozen:
            store.add(name, tup)
        return store

    def copy(self) -> "SnapshotInstance":
        """An independent branch of this store (O(#relations), not O(n))."""
        return SnapshotInstance.from_snapshot(self.snapshot())

    def to_instance(self) -> Instance:
        """Materialise a dict-backed :class:`Instance` with the same facts."""
        return self.snapshot().to_instance()

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> Snapshot:
        """The current state as an immutable, hashable, picklable token."""
        cached = self._snap_cache
        if cached is None:
            cached = Snapshot(
                self.schema,
                dict(self._shards),
                self._count,
                self._hash_sum,
                self._hash_xor,
            )
            self._snap_cache = cached
        return cached

    def fingerprint(self) -> Snapshot:
        """Alias of :meth:`snapshot`: an exact O(1)-hashable content key.

        The mutable ``Instance`` offers the same method returning its
        frozen fact set; both are exact content fingerprints usable as
        memo keys, this one without the O(n) rebuild per mutation.
        """
        return self.snapshot()

    def pin(self) -> "SnapshotInstance":
        """A read view frozen at the current state: :meth:`snapshot`'s view.

        The store backends' common name for a fixedpoint's
        previous-generation side (the SQL store pins without committing).
        """
        return self.snapshot().view()

    def restore(self, snap: Snapshot) -> None:
        """Roll this facade back to *snap* (O(#relations))."""
        self._shards = dict(snap.shards)
        self._count = snap.count
        self._hash_sum = snap.hash_sum
        self._hash_xor = snap.hash_xor
        self._snap_cache = snap
        self._freeze_cache = None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _apply_add(
        self, name: str, shard: Shard, tup: Tuple[object, ...], tuples
    ) -> None:
        new_shard = Shard(tuples, shard.count + 1)
        if shard.frozen is not None:
            new_shard.frozen = shard.frozen | {tup}
        if shard.index is not None:
            # Derive (don't rebuild) the index, touching only this
            # tuple's buckets.
            new_shard.index = _derive_index(
                shard.index, tup, True, type(tuples) is frozenset
            )
        self._shards[name] = new_shard
        fh = _fact_hash(name, tup)
        self._count += 1
        self._hash_sum = (self._hash_sum + fh) & _M64
        self._hash_xor ^= fh
        self._snap_cache = None
        self._freeze_cache = None

    def add(self, relation_name: str, values: Sequence[object]) -> Tuple[object, ...]:
        """Add a tuple, validating arity and types (the ``Instance`` contract)."""
        relation = self.schema.relation(relation_name)
        tup = relation.validate_tuple(values)
        self.add_unchecked(relation_name, tup)
        return tup

    def add_unchecked(self, relation_name: str, tup: Tuple[object, ...]) -> bool:
        """Add an already validated tuple, returning whether it was new."""
        shard = self._shards[relation_name]
        tuples = shard.tuples
        if type(tuples) is frozenset:
            if tup in tuples:
                return False
            if shard.count < SMALL_SHARD_LIMIT:
                new_tuples = tuples | {tup}
            else:
                # Promote to the persistent map: from here on updates are
                # O(log n) node copies instead of whole-set copies.
                new_tuples = PMap((existing, True) for existing in tuples).set(
                    tup, True
                )
        else:
            new_tuples = tuples.set(tup, True)
            if len(new_tuples) == shard.count:
                return False
        self._apply_add(relation_name, shard, tup, new_tuples)
        return True

    def discard(self, relation_name: str, tup: Tuple[object, ...]) -> bool:
        """Remove a tuple if present, returning whether it was removed."""
        shard = self._shards.get(relation_name)
        if shard is None or tup not in shard.tuples:
            return False
        tuples = shard.tuples
        if type(tuples) is frozenset:
            new_tuples = tuples - {tup}
        elif shard.count - 1 <= SMALL_SHARD_LIMIT:
            # Demote exactly at the limit so the representation stays a
            # pure function of the cardinality.
            new_tuples = frozenset(key for key in tuples if key != tup)
        else:
            new_tuples = tuples.delete(tup)
        new_shard = Shard(new_tuples, shard.count - 1)
        if shard.frozen is not None:
            new_shard.frozen = shard.frozen - {tup}
        if shard.index is not None:
            new_shard.index = _derive_index(
                shard.index, tup, False, type(new_tuples) is frozenset
            )
        self._shards[relation_name] = new_shard
        fh = _fact_hash(relation_name, tup)
        self._count -= 1
        self._hash_sum = (self._hash_sum - fh) & _M64
        self._hash_xor ^= fh
        self._snap_cache = None
        self._freeze_cache = None
        return True

    def add_all(self, relation_name: str, tuples: Iterable[Sequence[object]]) -> None:
        """Add several tuples to *relation_name*."""
        for values in tuples:
            self.add(relation_name, values)

    def add_fact(self, fact: Fact) -> None:
        """Add a ``(relation, tuple)`` fact."""
        self.add(fact[0], fact[1])

    # ------------------------------------------------------------------
    # Queries (the Instance read API)
    # ------------------------------------------------------------------
    def tuples(self, relation_name: str) -> FrozenSet[Tuple[object, ...]]:
        """The set of tuples currently stored (cached per immutable shard)."""
        shard = self._shards.get(relation_name)
        if shard is None:
            raise SchemaError(f"unknown relation {relation_name!r}")
        return shard.frozen_tuples()

    def tuples_view(self, relation_name: str) -> FrozenSet[Tuple[object, ...]]:
        """A cheap read-only view (empty for relations outside the schema)."""
        shard = self._shards.get(relation_name)
        if shard is None or not shard.count:
            return _EMPTY_FROZENSET
        return shard.frozen_tuples()

    def index(
        self, relation_name: str, position: int, value: object
    ) -> FrozenSet[Tuple[object, ...]]:
        """Tuples whose *position*-th value is *value* (shard-cached index)."""
        shard = self._shards.get(relation_name)
        if shard is None:
            return _EMPTY_FROZENSET
        return shard.get_index().get((position, value), _EMPTY_FROZENSET)

    def __contains__(self, fact: Fact) -> bool:
        name, tup = fact
        shard = self._shards.get(name)
        return shard is not None and tuple(tup) in shard.tuples

    def contains(self, relation_name: str, values: Sequence[object]) -> bool:
        """Whether the given tuple is present in *relation_name*."""
        return (relation_name, tuple(values)) in self

    def missing(
        self, relation_name: str, tuples: Iterable[Tuple[object, ...]]
    ) -> Set[Tuple[object, ...]]:
        """The tuples of *tuples* that *relation_name* does not hold."""
        shard = self._shards.get(relation_name)
        if shard is None:
            return set(tuples)
        present = shard.tuples
        return {tup for tup in tuples if tup not in present}

    def facts(self) -> Iterator[Fact]:
        """All facts as ``(relation, tuple)`` pairs, repr-sorted per relation."""
        for name in self.schema.names():
            shard = self._shards[name]
            if not shard.count:
                continue
            for tup in sorted(shard.tuples, key=repr):
                yield (name, tup)

    def size(self) -> int:
        """Total number of facts (O(1): maintained incrementally)."""
        return self._count

    def __len__(self) -> int:
        return self._count

    def is_empty(self) -> bool:
        """Whether the store contains no facts."""
        return self._count == 0

    def active_domain(self) -> FrozenSet[object]:
        """The set of values occurring in any fact."""
        values: Set[object] = set()
        for shard in self._shards.values():
            for tup in shard.tuples:
                values.update(tup)
        return frozenset(values)

    def relation_names(self) -> Tuple[str, ...]:
        """Names of the relations of the underlying schema."""
        return self.schema.names()

    # ------------------------------------------------------------------
    # Cardinality statistics
    # ------------------------------------------------------------------
    def relation_count(self, relation_name: str) -> int:
        """Recorded cardinality of one relation (O(1))."""
        shard = self._shards.get(relation_name)
        return shard.count if shard is not None else 0

    def relation_counts(self) -> Dict[str, int]:
        """Recorded per-relation cardinality statistics."""
        return {name: shard.count for name, shard in self._shards.items()}

    # ------------------------------------------------------------------
    # Interop with the mutable Instance
    # ------------------------------------------------------------------
    def freeze(self) -> FrozenInstance:
        """A frozenset-of-facts snapshot (the ``Instance.freeze`` contract).

        O(n) to build, cached until the next mutation.  Prefer
        :meth:`fingerprint` for memo keys — it is O(1) and exactly as
        discriminating.
        """
        cached = self._freeze_cache
        if cached is None:
            cached = frozenset(
                (name, tup)
                for name, shard in self._shards.items()
                for tup in shard.tuples
            )
            self._freeze_cache = cached
        return cached

    def is_subinstance_of(self, other) -> bool:
        """Whether every fact of ``self`` is a fact of *other*."""
        for name, shard in self._shards.items():
            if not shard.count:
                continue
            other_tuples = other.tuples_view(name)
            if any(tup not in other_tuples for tup in shard.tuples):
                return False
        return True

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SnapshotInstance):
            return self.snapshot() == other.snapshot()
        if isinstance(other, Instance):
            return self.freeze() == other.freeze()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.freeze())

    def __reduce__(self):
        return (SnapshotInstance.from_snapshot, (self.snapshot(),))

    def __str__(self) -> str:
        parts = [f"{name}{tup!r}" for name, tup in self.facts()]
        return "{" + ", ".join(parts) + "}"

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"SnapshotInstance({self})"
