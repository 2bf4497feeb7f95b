"""Relational instances with incremental per-position hash indexes.

An :class:`Instance` maps each relation of a schema to a finite set of
tuples.  Instances are the nodes of the labelled transition system induced
by a schema with access methods (Section 2 of the paper): each node is the
set of facts revealed so far.

Instances are mutable (facts can be added and, for undo logs, discarded)
but expose a frozen, hashable snapshot (:meth:`Instance.freeze`) used by
the LTS exploration code to detect revisited configurations.

Performance architecture (the substrate of the indexed join engine in
:mod:`repro.queries.plan_cache`):

* every relation carries lazily built, incrementally maintained hash
  indexes ``position -> value -> {tuples}`` (:meth:`Instance.index`), so a
  join can probe for matching tuples instead of scanning the relation;
* the derived views :meth:`tuples`, :meth:`facts` and :meth:`freeze` are
  cached and invalidated precisely on mutation, so repeated calls (the
  common pattern in fixedpoint loops and guard evaluation) stop
  re-allocating;
* :meth:`add_unchecked` and :meth:`discard` support the add/undo delta
  discipline of the memoized emptiness search
  (:mod:`repro.automata.emptiness`), avoiding full-instance copies on the
  search hot path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.relational.schema import Schema, SchemaError

Fact = Tuple[str, Tuple[object, ...]]
FrozenInstance = FrozenSet[Fact]

_EMPTY_FROZENSET: FrozenSet[Tuple[object, ...]] = frozenset()


@dataclass
class Instance:
    """A finite instance of a :class:`~repro.relational.schema.Schema`."""

    schema: Schema

    def __init__(
        self,
        schema: Schema,
        facts: Optional[Mapping[str, Iterable[Sequence[object]]]] = None,
    ) -> None:
        self.schema = schema
        self._data: Dict[str, Set[Tuple[object, ...]]] = {
            name: set() for name in schema.names()
        }
        # Lazily built indexes: relation -> position -> value -> {tuples}.
        # Once a (relation, position) index exists it is maintained
        # incrementally by add/discard, so it is built at most once per
        # instance lifetime.
        self._indexes: Dict[str, Dict[int, Dict[object, Set[Tuple[object, ...]]]]] = {}
        # Cached derived views, invalidated on mutation.
        self._tuples_cache: Dict[str, FrozenSet[Tuple[object, ...]]] = {}
        self._sorted_cache: Dict[str, List[Tuple[object, ...]]] = {}
        self._freeze_cache: Optional[FrozenInstance] = None
        if facts:
            for name, tuples in facts.items():
                for values in tuples:
                    self.add(name, values)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _invalidate(self, relation_name: str) -> None:
        """Drop cached views after a mutation of *relation_name*."""
        self._freeze_cache = None
        self._tuples_cache.pop(relation_name, None)
        self._sorted_cache.pop(relation_name, None)

    def _index_add(self, relation_name: str, tup: Tuple[object, ...]) -> None:
        indexes = self._indexes.get(relation_name)
        if indexes:
            for position, buckets in indexes.items():
                value = tup[position]
                bucket = buckets.get(value)
                if bucket is None:
                    buckets[value] = {tup}
                else:
                    bucket.add(tup)

    def add(self, relation_name: str, values: Sequence[object]) -> Tuple[object, ...]:
        """Add a tuple to *relation_name*, validating arity and types."""
        relation = self.schema.relation(relation_name)
        tup = relation.validate_tuple(values)
        tuples = self._data[relation_name]
        if tup not in tuples:
            tuples.add(tup)
            self._index_add(relation_name, tup)
            self._invalidate(relation_name)
        return tup

    def add_unchecked(self, relation_name: str, tup: Tuple[object, ...]) -> bool:
        """Add an already validated tuple, returning whether it was new.

        The caller guarantees that *tup* is a well-typed tuple of the right
        arity for *relation_name* (e.g. it was previously returned by
        :meth:`add` on an instance over the same schema).  This is the bulk
        path used by transition-structure construction and the search
        code's scratch structures, where re-validation (or even the
        function-call overhead of the index/cache helpers, hence the
        inlined bodies) would dominate the cost.
        """
        tuples = self._data[relation_name]
        if tup in tuples:
            return False
        tuples.add(tup)
        indexes = self._indexes.get(relation_name)
        if indexes:
            for position, buckets in indexes.items():
                value = tup[position]
                bucket = buckets.get(value)
                if bucket is None:
                    buckets[value] = {tup}
                else:
                    bucket.add(tup)
        self._freeze_cache = None
        self._tuples_cache.pop(relation_name, None)
        self._sorted_cache.pop(relation_name, None)
        return True

    def discard(self, relation_name: str, tup: Tuple[object, ...]) -> bool:
        """Remove a tuple if present, returning whether it was removed.

        Together with :meth:`add_unchecked` this supports the bounded
        apply/undo discipline of the search code's scratch structures:
        apply a candidate's facts, evaluate, then discard exactly the
        facts that were new.  (The search *configurations* themselves now
        roll back via O(1) store snapshots instead —
        :mod:`repro.store.snapshot`.)
        """
        tuples = self._data.get(relation_name)
        if tuples is None or tup not in tuples:
            return False
        tuples.discard(tup)
        indexes = self._indexes.get(relation_name)
        if indexes:
            for position, buckets in indexes.items():
                bucket = buckets.get(tup[position])
                if bucket is not None:
                    bucket.discard(tup)
        self._freeze_cache = None
        self._tuples_cache.pop(relation_name, None)
        self._sorted_cache.pop(relation_name, None)
        return True

    def add_all(
        self, relation_name: str, tuples: Iterable[Sequence[object]]
    ) -> None:
        """Add several tuples to *relation_name*."""
        for values in tuples:
            self.add(relation_name, values)

    def add_fact(self, fact: Fact) -> None:
        """Add a ``(relation, tuple)`` fact."""
        self.add(fact[0], fact[1])

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def tuples(self, relation_name: str) -> FrozenSet[Tuple[object, ...]]:
        """The set of tuples currently stored in *relation_name* (cached)."""
        cached = self._tuples_cache.get(relation_name)
        if cached is not None:
            return cached
        if relation_name not in self._data:
            raise SchemaError(f"unknown relation {relation_name!r}")
        frozen = frozenset(self._data[relation_name])
        self._tuples_cache[relation_name] = frozen
        return frozen

    def tuples_view(self, relation_name: str) -> Set[Tuple[object, ...]]:
        """A live, read-only view of the tuples of *relation_name*.

        Unlike :meth:`tuples` this performs no allocation at all; callers
        must not mutate the returned set and must not hold it across
        mutations of the instance.  Returns an empty set for relations
        outside the schema (queries may mention a larger vocabulary).
        """
        return self._data.get(relation_name, _EMPTY_FROZENSET)  # type: ignore[return-value]

    def index(
        self, relation_name: str, position: int, value: object
    ) -> Set[Tuple[object, ...]]:
        """Tuples of *relation_name* whose *position*-th value is *value*.

        The underlying ``position -> value -> {tuples}`` hash index is built
        on first use and maintained incrementally afterwards.  The returned
        set is a live view with the same caveats as :meth:`tuples_view`.
        """
        indexes = self._indexes.setdefault(relation_name, {})
        buckets = indexes.get(position)
        if buckets is None:
            buckets = {}
            for tup in self._data.get(relation_name, ()):
                key = tup[position]
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = {tup}
                else:
                    bucket.add(tup)
            indexes[position] = buckets
        return buckets.get(value, _EMPTY_FROZENSET)  # type: ignore[return-value]

    def __contains__(self, fact: Fact) -> bool:
        name, tup = fact
        return name in self._data and tuple(tup) in self._data[name]

    def contains(self, relation_name: str, values: Sequence[object]) -> bool:
        """Whether the given tuple is present in *relation_name*."""
        return (relation_name, tuple(values)) in self

    def missing(
        self, relation_name: str, tuples: Iterable[Tuple[object, ...]]
    ) -> Set[Tuple[object, ...]]:
        """The tuples of *tuples* that *relation_name* does not hold."""
        present = self._data.get(relation_name, _EMPTY_FROZENSET)
        return {tup for tup in tuples if tup not in present}

    def _sorted_tuples(self, relation_name: str) -> List[Tuple[object, ...]]:
        cached = self._sorted_cache.get(relation_name)
        if cached is None:
            cached = sorted(self._data[relation_name], key=repr)
            self._sorted_cache[relation_name] = cached
        return cached

    def facts(self) -> Iterator[Fact]:
        """Iterate over all facts as ``(relation, tuple)`` pairs.

        The per-relation ``repr``-sorted order is cached between mutations,
        so repeated iteration (reports, fixedpoint seeding) does not re-sort.
        """
        for name in self.schema.names():
            for tup in self._sorted_tuples(name):
                yield (name, tup)

    def size(self) -> int:
        """Total number of facts."""
        return sum(len(tuples) for tuples in self._data.values())

    def __len__(self) -> int:
        return self.size()

    def is_empty(self) -> bool:
        """Whether the instance contains no facts."""
        return self.size() == 0

    def active_domain(self) -> FrozenSet[object]:
        """The set of values occurring in any fact (the *active domain*)."""
        values: Set[object] = set()
        for tuples in self._data.values():
            for tup in tuples:
                values.update(tup)
        return frozenset(values)

    def relation_names(self) -> Tuple[str, ...]:
        """Names of the relations of the underlying schema."""
        return self.schema.names()

    # ------------------------------------------------------------------
    # Cardinality statistics (the same API as the persistent store)
    # ------------------------------------------------------------------
    def relation_count(self, relation_name: str) -> int:
        """Cardinality of one relation (0 for relations outside the schema)."""
        tuples = self._data.get(relation_name)
        return len(tuples) if tuples is not None else 0

    def relation_counts(self) -> Dict[str, int]:
        """Per-relation cardinality statistics."""
        return {name: len(tuples) for name, tuples in self._data.items()}

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def copy(self) -> "Instance":
        """A deep copy of this instance (sharing the schema object).

        Indexes and cached views are not copied; the clone rebuilds them
        lazily on demand.
        """
        clone = Instance(self.schema)
        for name, tuples in self._data.items():
            clone._data[name] = set(tuples)
        return clone

    def union(self, other: "Instance") -> "Instance":
        """Fact-wise union of two instances over the same schema."""
        if other.schema.names() != self.schema.names():
            raise SchemaError("cannot union instances over different schemas")
        result = self.copy()
        for name, tuples in other._data.items():
            result._data[name].update(tuples)
        return result

    def union_facts(self, facts: Iterable[Fact]) -> "Instance":
        """A new instance extended with the given facts."""
        result = self.copy()
        for fact in facts:
            result.add_fact(fact)
        return result

    def is_subinstance_of(self, other: "Instance") -> bool:
        """Whether every fact of ``self`` is a fact of *other*."""
        for name, tuples in self._data.items():
            if not tuples <= other._data.get(name, set()):
                return False
        return True

    def intersect(self, other: "Instance") -> "Instance":
        """Fact-wise intersection."""
        result = Instance(self.schema)
        for name, tuples in self._data.items():
            result._data[name] = tuples & other._data.get(name, set())
        return result

    def restrict_to_values(self, values: Iterable[object]) -> "Instance":
        """Keep only the facts all of whose values belong to *values*.

        Used by the Boundedness Lemma (Lemma 4.13) style constructions that
        shrink a witness path to a polynomial-size one.
        """
        allowed = set(values)
        result = Instance(self.schema)
        for name, tuples in self._data.items():
            result._data[name] = {
                tup for tup in tuples if all(v in allowed for v in tup)
            }
        return result

    # ------------------------------------------------------------------
    # Hashable snapshots
    # ------------------------------------------------------------------
    def freeze(self) -> FrozenInstance:
        """A hashable snapshot of the instance (a frozenset of facts).

        The snapshot is cached until the next mutation, so callers that
        repeatedly fingerprint the same configuration (visited sets, guard
        caches) pay for the allocation once.
        """
        cached = self._freeze_cache
        if cached is None:
            cached = frozenset(
                (name, tup)
                for name, tuples in self._data.items()
                for tup in tuples
            )
            self._freeze_cache = cached
        return cached

    def fingerprint(self) -> FrozenInstance:
        """An exact content fingerprint usable as a memo key.

        For the dict-backed instance this is :meth:`freeze` (O(n) per
        mutation, cached in between); the persistent
        :class:`~repro.store.snapshot.SnapshotInstance` offers the same
        method returning its O(1) snapshot token.  Callers that memoise
        on content should use this method so either backend works.
        """
        return self.freeze()

    @classmethod
    def from_frozen(cls, schema: Schema, frozen: FrozenInstance) -> "Instance":
        """Rebuild an instance from a frozen snapshot."""
        instance = cls(schema)
        for name, tup in frozen:
            instance.add(name, tup)
        return instance

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return self.freeze() == other.freeze()

    def __hash__(self) -> int:
        return hash(self.freeze())

    def __str__(self) -> str:
        parts = []
        for name in self.schema.names():
            for tup in self._sorted_tuples(name):
                parts.append(f"{name}{tup!r}")
        return "{" + ", ".join(parts) + "}"

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Instance({self})"
