"""Unions of conjunctive queries and positive existential queries.

The paper's embedded language ``FO∃+`` (positive existential first-order
sentences) is, up to standard normalisation, the class of unions of
conjunctive queries (UCQs); with inequalities it is UCQ≠.  We work with the
normalised disjunct representation throughout: a :class:`PositiveQuery` is a
non-empty union of CQ disjuncts that share the same head arity.

The algebra on positive queries (conjunction distributing over union,
negation pushed by the callers) is what lets us keep the embedded formulas
of AccLTL in a normal form suitable for the automaton and Datalog
constructions of Section 4.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional, Sequence, Tuple

from repro.immutable import cached_hash
from repro.queries.cq import ConjunctiveQuery, QueryError
from repro.queries.terms import Constant


@cached_hash
@dataclass(frozen=True)
class UnionOfConjunctiveQueries:
    """A union of conjunctive queries with a common head arity."""

    disjuncts: Tuple[ConjunctiveQuery, ...]
    name: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "disjuncts", tuple(self.disjuncts))
        if not self.disjuncts:
            raise QueryError("a UCQ must have at least one disjunct")
        arities = {len(d.head) for d in self.disjuncts}
        if len(arities) != 1:
            raise QueryError("all disjuncts of a UCQ must have the same head arity")

    @property
    def head_arity(self) -> int:
        return len(self.disjuncts[0].head)

    @property
    def is_boolean(self) -> bool:
        return self.head_arity == 0

    @property
    def has_inequalities(self) -> bool:
        return any(d.has_inequalities for d in self.disjuncts)

    def relations(self) -> FrozenSet[str]:
        """All relation names mentioned in any disjunct."""
        names: set = set()
        for disjunct in self.disjuncts:
            names |= disjunct.relations()
        return frozenset(names)

    def constants(self) -> FrozenSet[Constant]:
        """All constants mentioned in any disjunct."""
        constants: set = set()
        for disjunct in self.disjuncts:
            constants |= disjunct.constants()
        return frozenset(constants)

    def size(self) -> int:
        """Total number of atoms across disjuncts."""
        return sum(d.size() for d in self.disjuncts)

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def union(self, other: "UnionOfConjunctiveQueries") -> "UnionOfConjunctiveQueries":
        """Disjunction of two UCQs of the same head arity."""
        if other.head_arity != self.head_arity:
            raise QueryError("cannot union UCQs of different head arities")
        return UnionOfConjunctiveQueries(self.disjuncts + other.disjuncts)

    def conjoin(self, other: "UnionOfConjunctiveQueries") -> "UnionOfConjunctiveQueries":
        """Conjunction of two boolean UCQs, distributing over the unions."""
        if not (self.is_boolean and other.is_boolean):
            raise QueryError("conjunction is only defined for boolean UCQs")
        products = []
        for index, (left, right) in enumerate(
            itertools.product(self.disjuncts, other.disjuncts)
        ):
            products.append(left.conjoin(right.freshen(f"_r{index}")))
        return UnionOfConjunctiveQueries(tuple(products))

    def rename_relations(self, mapping) -> "UnionOfConjunctiveQueries":
        """Rename relations in every disjunct (see ``Q^pre`` / ``Q^post``)."""
        return UnionOfConjunctiveQueries(
            tuple(d.rename_relations(mapping) for d in self.disjuncts), name=self.name
        )

    def boolean_version(self) -> "UnionOfConjunctiveQueries":
        """Existentially close the head of every disjunct."""
        return UnionOfConjunctiveQueries(
            tuple(d.boolean_version() for d in self.disjuncts), name=self.name
        )

    def without_inequalities(self) -> "UnionOfConjunctiveQueries":
        """Drop inequality atoms from every disjunct."""
        return UnionOfConjunctiveQueries(
            tuple(d.without_inequalities() for d in self.disjuncts), name=self.name
        )

    def __iter__(self):
        return iter(self.disjuncts)

    def __len__(self) -> int:
        return len(self.disjuncts)

    def __str__(self) -> str:
        return " ∪ ".join(str(d) for d in self.disjuncts)


#: The paper's FO∃+ sentences are represented as (boolean) UCQs.
PositiveQuery = UnionOfConjunctiveQueries


def ucq(
    disjuncts: Iterable[ConjunctiveQuery], name: Optional[str] = None
) -> UnionOfConjunctiveQueries:
    """Convenience constructor for a UCQ."""
    return UnionOfConjunctiveQueries(tuple(disjuncts), name=name)


def as_ucq(query) -> UnionOfConjunctiveQueries:
    """Coerce a CQ or UCQ into a UCQ."""
    if isinstance(query, UnionOfConjunctiveQueries):
        return query
    if isinstance(query, ConjunctiveQuery):
        return UnionOfConjunctiveQueries((query,), name=query.name)
    raise TypeError(f"cannot coerce {query!r} to a UCQ")


def conjoin_all(queries: Sequence[UnionOfConjunctiveQueries]) -> UnionOfConjunctiveQueries:
    """Conjunction of a non-empty sequence of boolean UCQs."""
    if not queries:
        raise QueryError("conjoin_all requires at least one query")
    result = queries[0]
    for query in queries[1:]:
        result = result.conjoin(query)
    return result


def true_query() -> UnionOfConjunctiveQueries:
    """The trivially true boolean query (empty body CQ)."""
    return UnionOfConjunctiveQueries((ConjunctiveQuery(atoms=(), head=()),))
